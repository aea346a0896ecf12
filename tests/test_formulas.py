"""Tests for the explicit trinomial-coefficient formulas."""

import sys
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
from skewdyck.series import RATIONAL, WPOLY, Series, WPoly, div, quadratic_power


class TestTrinomial:
    def test_examples(self):
        assert trinomial(2, 3, 2) == 11
        assert trinomial(5, 7, 0) == 1
        w = WPoly((0, 1))
        assert trinomial(3, 2 + w, 1) == 3 * (2 + w)

    def test_out_of_range(self):
        assert trinomial(2, 3, 5) == 0
        assert trinomial(2, 3, -1) == 0
        with pytest.raises(ValueError):
            trinomial(-1, 3, 0)
        with pytest.raises(ValueError):
            trinomial(2, Fraction(1, 2), 1)
        with pytest.raises(ValueError, match="middle must be an int or a WPoly, got True"):
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

    @pytest.mark.parametrize("middle", [3, WPoly((2, 1)), -2], ids=["3", "2+w", "-2"])
    def test_rows_match_series_powers(self, middle):
        for n in range(9):
            power = Series.from_dict({0: 1, 1: middle, 2: 1}, 2 * n, WPOLY) ** n
            got = [WPoly.coerce(trinomial(n, middle, k)) for k in range(2 * n + 1)]
            assert got == list(power.coeffs), n
            # the raw full row, second half included, from the shared routine
            m = middle.coeffs if isinstance(middle, WPoly) else (middle,)
            raw = [WPoly(c) for c in quadratic_power(2 * n + 1, m, (1,), n, 1)]
            assert raw == list(power.coeffs), n

    def test_integral_rows_keep_their_ring(self):
        # an int middle gives int rows, a w middle integer w-polynomials
        for n in (0, 1, 5):
            assert all(type(a) is int for a in formulas._trinomial_row(n, 3))
            rows = formulas._trinomial_row(n, WPoly((2, 1)))
            assert all(type(c) is int for a in rows for c in a.coeffs)
        # [t^n](1 + m t + t^2)^n = sum_i C(n, i) C(n-i, i) m^(n-2i): its
        # w^0 and w^1 coefficients at m = 2 + w
        ways = [comb(39, i) * comb(39 - i, i) for i in range(20)]
        assert trinomial(39, WPoly((2, 1)), 39).coeffs[:2] == (
            sum(c * 2 ** (39 - 2 * i) for i, c in enumerate(ways)),
            sum(c * (39 - 2 * i) * 2 ** (38 - 2 * i) for i, c in enumerate(ways)),
        )

    def test_equal_middles_hash_equal_and_keep_their_ring(self):
        # an int and the equal constant WPoly are one key of a set or dict,
        # but the row cache keeps them apart, so a result keeps its ring
        for c in (0, 3, -7, 3**100):
            assert WPoly.const(c) == c and hash(WPoly.const(c)) == hash(c)
        three = WPoly.const(3)
        assert len({3, three}) == 1 and {3: "x"}.get(three) == "x" and {three: "x"}.get(3) == "x"
        assert hash(WPoly()) == hash(0) and {0: "zero"}[WPoly()] == "zero"
        for first, then in ((3, three), (three, 3)):
            formulas._trinomial_row.cache_clear()
            for n, k in ((5, 2), (5, 5), (0, 0)):
                assert trinomial(n, first, k) == trinomial(n, then, k)
                assert type(trinomial(n, first, k)) is type(first), (n, k)
                assert type(trinomial(n, then, k)) is type(then), (n, k)

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
        # a half row of 2+w holds about n^2/2 big ints; rows above the
        # cached size are kept nowhere
        cached = formulas._trinomial_row.cache_info().currsize
        top = formulas._CACHED_ROW_MAX_N
        for n in range(top + 2, top + 6):
            red_coeff_explicit(n)
        assert formulas._trinomial_row.cache_info().currsize == cached
        # one red coefficient builds its row once
        builds = []
        real = formulas.quadratic_power
        monkeypatch.setattr(formulas, "quadratic_power", lambda *a: builds.append(a) or real(*a))
        red_coeff_explicit(top + 10)
        assert len(builds) == 1


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
            c = [0, 0, 0] + [a[0] for a in quadratic_power(m + 1, (2,), (), -j, 1)]  # (1+2v)^(-j)
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
