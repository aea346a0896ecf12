"""Unit and property tests for the exact truncated-series kernel."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sqrt_one, w_slice
from skewdyck.series import (
    RATIONAL,
    WPOLY,
    Check,
    ExactnessError,
    NonUnitError,
    RingMismatchError,
    Series,
    SeriesError,
    WPoly,
    W_VAR,
    _divide_exactly,
    bounded_cache,
    compare,
    div,
    first_mismatch,
    half,
    quadratic_power,
    shift_divide,
    shift_up,
    specialize_w,
    w_derivative,
)

integers = st.integers(min_value=-40, max_value=40)


def series_strategy(order=6, unit=False):
    def build(coeffs):
        if unit and coeffs[0] == 0:
            coeffs = [1] + coeffs[1:]
        return Series(coeffs, RATIONAL)

    return st.lists(integers, min_size=order + 1, max_size=order + 1).map(build)


class TestWPoly:
    def test_trailing_zeros_trimmed(self):
        assert WPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert WPoly((0,)) == WPoly()

    def test_arithmetic(self):
        w = W_VAR
        p = (w + 2) * (w + 2)
        assert p == WPoly((4, 4, 1))
        assert p - WPoly((4, 4, 1)) == WPoly()
        assert (w * w * w).coeff(3) == 1
        assert (-w).coeff(1) == -1

    def test_eval_and_deriv(self):
        p = WPoly((1, 4, 5))  # 1 + 4w + 5w^2
        assert p.eval(1) == 10
        assert p.eval(0) == 1
        assert p.deriv() == WPoly((4, 10))

    def test_integer_coefficients_only(self):
        assert all(type(c) is int for c in WPoly((True, 2)).coeffs)
        for bad in (Fraction(1, 2), Fraction(3), 1.0):
            with pytest.raises(TypeError):
                WPoly((1, bad))
            with pytest.raises(TypeError):
                Series([1, bad])

    def test_hashable(self):
        assert len({WPoly((1, 2)), WPoly((1, 2)), WPoly((2, 1))}) == 2

    def test_constants_hash_and_compare_as_their_ints(self):
        # an int and the equal constant WPoly are one key of a set or dict
        for c in (0, 3, -7, 3**100):
            assert WPoly.const(c) == c and hash(WPoly.const(c)) == hash(c)
        three = WPoly.const(3)
        assert len({3, three}) == 1 and {3: "x"}.get(three) == "x" and {three: "x"}.get(3) == "x"
        assert hash(WPoly()) == hash(0) and {0: "zero"}[WPoly()] == "zero"


def _at(xs, k):
    return xs[k] if k < len(xs) else 0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(integers, max_size=8),  # trailing zeros and the zero polynomial included
    st.lists(integers, max_size=8),
    integers,
    st.integers(min_value=1, max_value=9) | st.integers(min_value=-9, max_value=-1),
)
def test_wpoly_results_match_the_checked_constructor(xs, ys, c, d):
    # arithmetic builds its results without the per-coefficient check; each
    # must equal the public constructor's polynomial, trailing zeros trimmed
    p, q = WPoly(xs), WPoly(ys)
    n = max(len(xs), len(ys))
    cases = [
        ("+", p + q, [_at(xs, k) + _at(ys, k) for k in range(n)]),
        ("-", p - q, [_at(xs, k) - _at(ys, k) for k in range(n)]),
        ("neg", -p, [-x for x in xs]),
        ("*", p * q, [sum(_at(xs, i) * _at(ys, k - i) for i in range(k + 1)) for k in range(len(xs) + len(ys))]),
        ("deriv", p.deriv(), [k * x for k, x in enumerate(xs)][1:]),
        ("/d", _divide_exactly(WPoly([d * x for x in xs]), d), xs),
        ("+int", p + c, [_at(xs, 0) + c, *xs[1:]]),
        ("int-", c - p, [c - _at(xs, 0), *(-x for x in xs[1:])]),
        ("*int", c * p, [c * x for x in xs]),
        ("*int right", p * c, [c * x for x in xs]),
        ("divmod q", divmod(p, d)[0], [x // d for x in xs]),
        ("divmod r", divmod(p, d)[1], [x % d for x in xs]),
    ]
    for op, got, want in cases:
        assert got.coeffs == WPoly(want).coeffs, op
        assert not got.coeffs or got.coeffs[-1] != 0, op
        assert all(type(x) is int for x in got.coeffs), op
    if any(x % d for x in xs):
        with pytest.raises(ExactnessError):
            _divide_exactly(p, d)
    with pytest.raises(TypeError):
        WPoly((1.5,))


class TestSeriesBasics:
    def test_coeff_beyond_order_raises(self):
        s = Series.one(3)
        with pytest.raises(SeriesError):
            s.coeff(4)
        assert s.coeff(-1) == 0

    def test_order_shrinks_to_min(self):
        a = Series.one(5)
        b = Series.one(3)
        assert (a + b).order == 3
        assert (a * b).order == 3

    def test_ring_mismatch(self):
        a = Series.one(3, RATIONAL)
        b = Series.one(3, WPOLY)
        with pytest.raises(RingMismatchError):
            a + b

    def test_truncate_cannot_extend(self):
        with pytest.raises(SeriesError):
            Series.one(3).truncate(5)

    def test_immutable(self):
        s = Series.one(3)
        with pytest.raises(AttributeError):
            s.coeffs = ()


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy())
def test_mul_commutes(a, b):
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy(), series_strategy())
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(series_strategy(), st.sampled_from([1, -1]))
def test_inv_roundtrip(a, unit):
    a = Series([unit, *a.coeffs[1:]])  # over the integers only +-1 are units
    assert a * div(Series.one(a.order), a) == Series.one(a.order)


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy(unit=True))
def test_div_roundtrip(a, b):
    assert div(a * b, b) == a


def test_inexact_division_raises():
    one = Series.one(3)
    with pytest.raises(ExactnessError):
        div(one, 2 * one)
    with pytest.raises(ExactnessError):
        div(Series.one(2), Series([3, 1, 0]))
    with pytest.raises(ExactnessError):
        half(Series([2, 3, 4]))
    with pytest.raises(ExactnessError):
        half(Series([WPoly((2, 1))], WPOLY))
    assert half(Series([2, -4, 0])) == Series([1, -2, 0])
    with pytest.raises(NonUnitError):
        div(one, Series([0, 1, 0, 0]))
    with pytest.raises(ExactnessError):  # 1/w is no w-polynomial
        div(Series.one(1, WPOLY), Series([W_VAR, 1], WPOLY))


@pytest.mark.parametrize("c", [1, 2], ids=["1+w", "2+2w"])
def test_w_ring_division_by_a_polynomial_constant(c):
    # c(1 + w - wz^2), c = 1 and 2: the red ladder divides by c = 2
    d = c * (1 + W_VAR)
    b = Series.from_dict({0: d, 2: -c * W_VAR}, 3, WPOLY)
    q = Series([W_VAR * W_VAR - 3, 7 * W_VAR, 0, WPoly((1, 0, 0, 5))], WPOLY)
    assert div(q * b, b) == q
    assert _divide_exactly(WPoly((-6, -7, 0, 2)) * d, d) == WPoly((-6, -7, 0, 2))
    assert _divide_exactly(WPoly(), d) == WPoly()


def test_w_ring_inexact_division_raises():
    one = Series.one(2, WPOLY)
    for d in (1 + W_VAR, 2 + 2 * W_VAR):
        with pytest.raises(ExactnessError):
            div(one, Series([d, 1, 0], WPOLY))
        with pytest.raises(ExactnessError):  # neither divides w
            div(Series([W_VAR, 0, 0], WPOLY), Series([d, 1, 0], WPOLY))
    with pytest.raises(ExactnessError):  # (2 + 2w)/(2 + 2w) = 1, but 1 + 2w is not over 2 + 2w
        div(Series([2 + 2 * W_VAR, 1 + 2 * W_VAR], WPOLY), Series([2 + 2 * W_VAR, 0], WPOLY))
    with pytest.raises(NonUnitError):
        div(one, Series([WPoly(), 1 + W_VAR, 0], WPOLY))


@settings(max_examples=60, deadline=None)
@given(series_strategy())
def test_sqrt_of_square(a):
    one = Series.one(a.order)
    u = one + shift_up(a, 1)  # unit with constant term 1
    assert sqrt_one(u * u) == u


def test_sqrt_requires_constant_one():
    with pytest.raises(NonUnitError):
        sqrt_one(Series([2, 0, 0]))


def test_shift_divide_exact_and_errors():
    z2 = Series.from_dict({2: 1, 4: 3}, 6)
    assert shift_divide(z2, 2) == Series.from_dict({0: 1, 2: 3}, 4)
    with pytest.raises(ExactnessError):
        shift_divide(Series.one(4), 1)
    with pytest.raises(SeriesError):
        shift_divide(Series.one(2), 3)


def test_shift_up_keeps_order():
    s = Series([1, 2, 3])
    up = shift_up(s, 1)
    assert up.order == 2
    assert [up.coeff(i) for i in range(3)] == [0, 1, 2]


def test_w_homomorphisms():
    w = W_VAR
    s = Series([WPoly.const(1), w + 2, w * w], WPOLY)
    assert specialize_w(s, 1) == Series([1, 3, 1], RATIONAL)
    assert w_slice(s, 1) == Series([0, 1, 0], RATIONAL)
    assert w_derivative(s) == Series([WPoly(), WPoly.const(1), 2 * w], WPOLY)
    with pytest.raises(RingMismatchError):
        specialize_w(Series.one(2, RATIONAL), 1)


def test_z_at_order_zero_is_zero():
    assert Series.z(0) == Series.zero(0)
    assert Series.z(0, WPOLY) == Series.zero(0, WPOLY)
    assert Series.z(2) == Series([0, 1, 0])


def test_check_record():
    check = Check("dp-closed:primal", True)
    assert check.detail == ""
    assert check == Check(name="dp-closed:primal", ok=True, detail="")
    assert check != Check("dp-closed:primal", False, "first mismatch")
    assert check != ("dp-closed:primal", True, "")
    assert hash(check) == hash(Check("dp-closed:primal", True, ""))
    assert len({check, Check("dp-closed:primal", True)}) == 1
    assert repr(check) == "Check(name='dp-closed:primal', ok=True, detail='')"
    assert pickle.loads(pickle.dumps(check)) == check
    with pytest.raises(AttributeError):
        check.ok = False
    with pytest.raises(AttributeError):
        check.extra = 1
    with pytest.raises(AttributeError):
        del check.detail


def test_first_mismatch_stops_at_the_first():
    seen = []

    def triples():
        for n in range(10):
            seen.append(n)
            yield n, n * n, n * n + (n >= 3)

    assert first_mismatch(triples()) == (3, 9, 10)
    assert seen == [0, 1, 2, 3]
    assert first_mismatch((n, n, n) for n in range(5)) is None


def test_compare_builds_the_check_at_the_first_mismatch():
    seen = []

    def triples():
        for n in range(10):
            seen.append(n)
            yield f"z^{n}", n, n + (n in (4, 6))

    assert compare("c", triples(), "(all)") == Check("c", False, "first mismatch at z^4: 4 != 5")
    assert seen == [0, 1, 2, 3, 4]
    fmt = "first mismatch at %s: closed %s != dp %s"
    assert compare("c", [(0, 1, 1), ("j=2", 2, 3)], fmt=fmt).detail == (
        "first mismatch at j=2: closed 2 != dp 3"
    )
    assert compare("c", ((n, n, n) for n in range(5)), "(5 terms)") == Check("c", True, "(5 terms)")
    assert compare("c", []) == Check("c", True, "")


@pytest.mark.parametrize(
    "a, b",
    [(WPoly.const(-6), WPoly.const(5)), (WPoly((-4, -2)), WPoly((0, 4, 1))), (WPoly.const(-4), WPoly())],
    ids=["W", "Ww", "sqrt(1-4x)"],
)
def test_quadratic_square_roots_match_sqrt_one(a, b):
    # p/q = 1/2: the kernel roots in x = z^2, and sqrt(1 - 4x)
    n = 30
    radicand = Series.from_dict({0: 1, 1: a, 2: b}, n, WPOLY)
    assert Series(quadratic_power(n + 1, a, b), WPOLY) == sqrt_one(radicand)


def test_quadratic_power_is_exact():
    for a, b in ((WPoly.const(1), WPoly()), (1, 0), (W_VAR, 0)):
        assert quadratic_power(1, a, b) == [1]
        with pytest.raises(ExactnessError, match=r"t\^1 "):
            quadratic_power(2, a, b)  # (1 + a t)^(1/2) = 1 + a t/2 + ...


def test_quadratic_power_on_wpoly_constants_gives_the_int_values():
    # W, sqrt(1 - 4x), the full trinomial rows over 3 and (1 + 2v)^(+-j):
    # plain ints, and the same loop on constant WPoly values
    cases = [(-6, 5, 1, 2, 60), (-4, 0, 1, 2, 60)]
    cases += [(3, 1, n, 1, 2 * n + 1) for n in range(71)]
    cases += [(2, 0, e, 1, 40) for j in range(9) for e in (j, -j)]
    for a, b, p, q, count in cases:
        got = quadratic_power(count, a, b, p, q)
        assert len(got) == count and all(type(c) is int for c in got), (a, b, p)
        in_w = quadratic_power(count, WPoly.const(a), WPoly.const(b), p, q)
        assert [WPoly.coerce(c).coeffs for c in in_w] == [WPoly.const(c).coeffs for c in got], (a, b, p)


def test_bounded_cache_keeps_only_admitted_calls():
    builds = []

    @bounded_cache(2, lambda n: n <= 10)
    def square(n):
        """n squared."""
        builds.append(n)
        return n * n

    assert [square(n) for n in (3, 3, 11, 11, 4, 5, 3)] == [9, 9, 121, 121, 16, 25, 9]
    assert builds == [3, 11, 11, 4, 5, 3]  # 11 is built per call; 3 fell out of two slots
    info = square.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (1, 4, 2, 2)
    square.cache_clear()
    assert square.cache_info().currsize == 0
    assert square.__doc__ == "n squared."
