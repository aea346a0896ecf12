"""Tests for the explicit trinomial-coefficient formulas."""

import sys
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from skewdyck import formulas, genfunc
from skewdyck.formulas import (
    dual_coeff_explicit,
    kappa_coeff,
    mu_coeff,
    primal_coeff_explicit,
    red_coeff_explicit,
    trinomial,
)
from skewdyck.series import RATIONAL, WPOLY, Series, WPoly, W_VAR, div, quadratic_power


class TestTrinomial:
    def test_examples(self):
        assert trinomial(2, 3, 2) == 11
        assert trinomial(5, 7, 0) == 1
        assert trinomial(3, -2, 1) == -6

    def test_out_of_range(self):
        assert trinomial(2, 3, 5) == 0
        assert trinomial(2, 3, -1) == 0
        with pytest.raises(ValueError):
            trinomial(-1, 3, 0)
        with pytest.raises(ValueError):
            trinomial(2, Fraction(1, 2), 1)
        # the middle is an int: a w-polynomial or a bool is refused by name
        with pytest.raises(ValueError, match=r"^middle must be an int, got 2 \+ w$"):
            trinomial(2, 2 + W_VAR, 1)
        with pytest.raises(ValueError, match="^middle must be an int, got True$"):
            trinomial(2, True, 1)

    def test_symmetry(self):
        for n in (3, 7, 12, 40):
            for k in range(2 * n + 1):
                assert trinomial(n, 3, k) == trinomial(n, 3, 2 * n - k)

    def test_row_sums(self):
        # evaluating at t=1 gives (1+m+1)^n; the last two rows are the
        # largest cached one and the first one kept outside the cache
        top = formulas._CACHED_ROW_MAX_N
        for n in (*range(6), top, top + 1):
            assert sum(trinomial(n, 3, k) for k in range(2 * n + 1)) == 5**n

    @pytest.mark.parametrize("middle", [3, 2 + W_VAR, -2], ids=["3", "2+w", "-2"])
    def test_rows_match_series_powers(self, middle):
        for n in range(9):
            power = Series.from_dict({0: 1, 1: middle, 2: 1}, 2 * n, WPOLY) ** n
            # the raw full row, second half included, from the shared routine
            assert quadratic_power(2 * n + 1, middle, 1, n, 1) == list(power.coeffs), n
            if isinstance(middle, int):  # trinomial's middle is an int
                got = [trinomial(n, middle, k) for k in range(2 * n + 1)]
                assert got == list(power.coeffs), n

    def test_integral_rows_keep_their_ring(self):
        # an int middle gives int rows, a w middle integer w-polynomials
        for n in (0, 1, 5):
            assert all(type(a) is int for a in formulas._trinomial_row(n, 3))
            row = quadratic_power(n + 1, 2 + W_VAR, 1, n, 1)
            assert all(type(c) is int for a in row for c in WPoly.coerce(a).coeffs)
        # [t^n](1 + m t + t^2)^n = sum_i C(n, i) C(n-i, i) m^(n-2i): its
        # w^0 and w^1 coefficients at m = 2 + w
        ways = [comb(39, i) * comb(39 - i, i) for i in range(20)]
        assert quadratic_power(40, 2 + W_VAR, 1, 39, 1)[39].coeffs[:2] == (
            sum(c * 2 ** (39 - 2 * i) for i, c in enumerate(ways)),
            sum(c * (39 - 2 * i) * 2 ** (38 - 2 * i) for i, c in enumerate(ways)),
        )

    def test_cold_row_needs_no_deep_recursion(self):
        formulas._trinomial_row.cache_clear()
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            assert trinomial(150, 3, 2) == 9 * comb(150, 2) + 150
        finally:
            sys.setrecursionlimit(limit)

    def test_row_cache_is_bounded(self):
        assert formulas._trinomial_row.cache_info().maxsize is not None

    def test_large_rows_are_built_per_call(self, monkeypatch):
        builds = []
        real = formulas.quadratic_power
        monkeypatch.setattr(formulas, "quadratic_power", lambda *a: builds.append(a) or real(*a))
        cached = formulas._trinomial_row.cache_info().currsize
        top = formulas._CACHED_ROW_MAX_N
        # red builds no row: its coefficients are binomial products
        for n in (1, 5, top, top + 2, top + 10):
            red_coeff_explicit(n)
        assert builds == []
        assert formulas._trinomial_row.cache_info().currsize == cached
        # a row above the cached size is built for each call and kept nowhere
        for k in (3, 3, top):
            trinomial(top + 10, 3, k)
        assert len(builds) == 3
        assert formulas._trinomial_row.cache_info().currsize == cached

    @pytest.mark.parametrize("middle", [3, -2, 7])
    def test_values_match_whole_rows(self, middle):
        # outside the cache only the coefficients up to min(k, 2n - k) are
        # built; every value is the one a whole row gives
        for n in range(201):
            row = formulas._trinomial_row(n, middle)
            assert [trinomial(n, middle, k) for k in range(2 * n + 1)] == [
                row[min(k, 2 * n - k)] for k in range(2 * n + 1)
            ], n

    def test_cost_follows_k_not_n(self):
        tracemalloc.start()
        try:
            assert trinomial(10**5, 3, 1) == 3 * 10**5
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_only_rows_over_three_are_cached(self):
        # the formulas read rows over 3 alone; a row over any other middle,
        # however large its entries, is built for its call and kept nowhere
        formulas._trinomial_row.cache_clear()
        assert trinomial(5, 3, 2) == 95
        cached = formulas._trinomial_row.cache_info().currsize
        for middle in (7, -2, 10**50):
            for n in (0, 2, formulas._CACHED_ROW_MAX_N):
                trinomial(n, middle, n)
        assert trinomial(2, 10**50, 2) == 10**100 + 2
        assert formulas._trinomial_row.cache_info().currsize == cached
        hits = formulas._trinomial_row.cache_info().hits
        assert trinomial(5, 3, 8) == 95
        assert formulas._trinomial_row.cache_info().hits == hits + 1


def _rational_poly(coeffs, order):
    return Series.from_dict(dict(enumerate(coeffs)), order, RATIONAL)


@pytest.mark.parametrize("j", range(9))
def test_kappa_matches_series_oracle(j):
    order = 22
    num = _rational_poly((1, 1, -1, -1), order)  # (1+v)^2 (1-v)
    den = Series.one(order, RATIONAL)
    base = _rational_poly((1, 2), order)
    for _ in range(j):
        den = den * base
    oracle = div(num, den)
    for k in range(-1, 21):  # k = -1: zero below the constant term
        assert kappa_coeff(j, k) == oracle.coeff(k), (j, k)


def test_cached_primal_weights_match_a_fresh_build():
    top = formulas._CACHED_ROW_MAX_N
    formulas._kappa_row.cache_clear()
    for j in (*range(9), top, top + 1):  # levels j <= top are cached, higher ones not
        for m in range(1, 81):  # the weights of m <= top are cached, longer ones not
            c = [0, 0, 0] + quadratic_power(m + 1, 2, 0, -j, 1)  # (1+2v)^(-j)
            fresh = [c[k + 3] + c[k + 2] - c[k + 1] - c[k] for k in range(m + 1)]  # times 1+v-v^2-v^3
            assert list(formulas._kappa(j, m + 1)[:m + 1]) == fresh, (j, m)
            assert len(formulas._kappa(j, m + 1)) == max(m, top) + 1
    assert formulas._kappa_row.cache_info().currsize == 10  # one row per cached level
    assert formulas._kappa_row.cache_info().maxsize is not None


def test_cached_dual_weights_match_a_fresh_build():
    top = formulas._CACHED_ROW_MAX_N
    formulas._mu.cache_clear()
    for j in (0, 1, 4, top, top + 1, 100):  # the rows of j <= top are cached, longer ones not
        c = [0, 0, 0] + [comb(j, i) * 2 ** (j - i) for i in range(j + 1)] + [0, 0, 0]  # (2+v)^j
        fresh = [c[k + 3] + c[k + 2] - c[k + 1] - c[k] for k in range(j + 4)]  # times 1+v-v^2-v^3
        assert formulas._mu(j) == tuple(fresh), j
    assert formulas._mu.cache_info().currsize == 4
    assert formulas._mu.cache_info().maxsize is not None


@pytest.mark.parametrize("j", range(9))
def test_mu_matches_series_oracle(j):
    order = 22
    base = _rational_poly((2, 1), order)
    one = Series.one(order, RATIONAL)
    poly = 3 * one - 7 * base + 5 * base * base - base * base * base
    for _ in range(j):
        poly = poly * base
    for k in range(-1, 21):  # k = -1: zero below the constant term
        assert mu_coeff(j, k) == poly.coeff(k), (j, k)


def test_mu_vanishes_beyond_degree():
    assert mu_coeff(0, 4) == 0
    assert mu_coeff(2, 6) == 0


def test_primal_explicit_examples():
    assert primal_coeff_explicit(0, 3) == 10
    assert primal_coeff_explicit(1, 3) == 21
    assert primal_coeff_explicit(2, 4) == 145
    with pytest.raises(ValueError):
        primal_coeff_explicit(0, 0)


def test_explicit_past_the_cached_rows_match_closed_forms():
    # trinomial rows of upper index > 64 are built only as far as the sum reads
    order = 150
    for j in (0, 5, 70):
        s = genfunc.primal_level_series(j, order=order)
        for m in range(1, (order - j) // 2 + 1):
            assert primal_coeff_explicit(j, m) == s.coeff(2 * m + j), (j, m)
        s = genfunc.dual_level_series(j, order=order)
        for N in range(1, (order - j) // 2 + 1):
            assert dual_coeff_explicit(j, N) == s.coeff(j + 2 * N), (j, N)


def test_primal_explicit_builds_only_what_it_reads():
    # upper = 20000 is past the cache; the sum reads two row entries
    tracemalloc.start()
    try:
        assert primal_coeff_explicit(20000, 1) == 20001
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_dual_explicit_examples():
    assert dual_coeff_explicit(2, 2) == 29
    assert dual_coeff_explicit(0, 3) == 10
    assert dual_coeff_explicit(3, 4) == 1306
    with pytest.raises(ValueError):
        dual_coeff_explicit(0, 0)


def test_explicit_formulas_reject_levels_below_the_axis():
    with pytest.raises(ValueError, match="j=-1: bounded paths never end below the axis"):
        primal_coeff_explicit(-1, 2)
    with pytest.raises(ValueError, match="j=-1: dual paths never end below the axis"):
        dual_coeff_explicit(-1, 2)
    with pytest.raises(ValueError, match="j=-1: dual paths never end below the axis"):
        mu_coeff(-1, 0)
    with pytest.raises(ValueError, match="j=-1: bounded paths never end below the axis"):
        kappa_coeff(-1, 2)


@pytest.mark.parametrize("bad", [2.5, 3.0])
def test_explicit_formulas_reject_non_ints_by_name(bad):
    calls = [
        (trinomial, (bad, 3, 1), "n"),
        (trinomial, (2, 3, bad), "k"),
        (primal_coeff_explicit, (bad, 2), "j"),
        (primal_coeff_explicit, (0, bad), "m"),
        (dual_coeff_explicit, (bad, 2), "j"),
        (dual_coeff_explicit, (1, bad), "N"),
        (red_coeff_explicit, (bad,), "n"),
        (kappa_coeff, (bad, 1), "j"),
        (kappa_coeff, (0, bad), "k"),
        (mu_coeff, (bad, 1), "j"),
        (mu_coeff, (0, bad), "k"),
    ]
    for fn, args, name in calls:
        with pytest.raises(ValueError, match=f"^{name} must be an int, got {bad}$"):
            fn(*args)


def test_red_explicit_examples():
    assert red_coeff_explicit(1) == WPoly.const(1)
    assert red_coeff_explicit(3) == WPoly((5, 4, 1))
    assert red_coeff_explicit(4) == WPoly((14, 15, 6, 1))
    with pytest.raises(ValueError):
        red_coeff_explicit(0)


def _red_lagrange_sum(n):
    """[x^n] S(0) as the Lagrange sum over the row of 2+w that
    ``red_coeff_explicit`` once evaluated: T(n) + T(n-1) - T(n-2) - T(n-3),
    T(k) = [t^k](1 + (2+w)t + t^2)^(n-1), read from the half row a_0..a_(n-1)."""
    half = quadratic_power(n, 2 + W_VAR, 1, n - 1, 1)
    top = 2 * (n - 1)

    def row(k):
        return half[min(k, top - k)] if 0 <= k <= top else WPoly()

    return row(n) + row(n - 1) - row(n - 2) - row(n - 3)


def test_red_explicit_equals_the_lagrange_sum():
    # the product form must reproduce the sum it collapses, term for term
    for n in range(1, 201):
        assert red_coeff_explicit(n) == _red_lagrange_sum(n), n


def test_primal_explicit_matches_closed_forms():
    # the levels and orders the lib-queries benchmark asks for
    order = 96
    for j, s in enumerate(genfunc.primal_levels(0, 8, order=order)):
        m = 1
        while 2 * m + j <= order:
            assert primal_coeff_explicit(j, m) == s.coeff(2 * m + j), (j, m)
            m += 1


def test_dual_explicit_matches_closed_forms():
    order = 96
    for j, s in enumerate(genfunc.dual_levels(0, 8, order=order)):
        N = 1
        while j + 2 * N <= order:
            assert dual_coeff_explicit(j, N) == s.coeff(j + 2 * N), (j, N)
            N += 1


def test_red_explicit_matches_closed_forms():
    sx = genfunc.even_to_x(genfunc.red_level_series(0, order=80))
    for n in range(1, 41):
        assert red_coeff_explicit(n) == sx.coeff(n), n


def test_formulas_stay_independent_of_the_series_route():
    # the fourth route is an oracle for the kernel method only while it
    # shares no series arithmetic with it
    for name in ("genfunc", "Series", "div", "inv"):
        assert not hasattr(formulas, name), name
