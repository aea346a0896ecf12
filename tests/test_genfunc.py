"""Tests for the kernel-method closed-form series."""

import inspect
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewdyck
from conftest import red_root, sqrt_one, w_slice
from skewdyck import genfunc
from skewdyck.dp import dp_table
from skewdyck.paths import BOUNDED, DUAL, UNBOUNDED
from skewdyck.series import (
    WPOLY,
    ExactnessError,
    NonUnitError,
    Series,
    SeriesError,
    WPoly,
    div,
    shift_up,
    specialize_w,
)

# golden coefficient lists for the level series (nonzero entries only;
# each series is supported on one parity class)
S_GOLDEN = {
    0: [1, 1, 3, 10, 36, 137, 543],
    1: [1, 2, 6, 21, 79, 311, 1265],
    2: [1, 3, 10, 37, 145, 589, 2455],
    3: [1, 4, 15, 59, 241, 1010, 4314],
}
G_GOLDEN = {
    0: [1, 1, 3, 10, 36, 137, 543, 2219],
    1: [2, 3, 10, 36, 137, 543, 2219, 9285],
    2: [4, 8, 29, 111, 442, 1813, 7609, 32521],
    3: [8, 20, 78, 315, 1306, 5527, 23779, 103699],
}
OPEN_PRIMAL = [1, 1, 2, 3, 7, 11, 26, 43, 102, 175, 416]
OPEN_DUAL = [1, 2, 5, 11, 27, 62, 151, 354, 859, 2036]
NEGATIVE_AXIS_GOLDEN = {
    "f0": [1, 1, 2, 6, 21, 79, 311, 1265],
    "g0": [0, 1, 3, 10, 37, 145, 589, 2455],
    "h0": [0, 0, 1, 5, 21, 87, 365, 1555],
    "sum": [1, 2, 6, 21, 79, 311, 1265, 5275],
}


def _even_part(s, terms):
    return [s.coeff(2 * n) for n in range(terms)]


def _nonzero_part(s, j, terms):
    return [s.coeff(2 * n + j) for n in range(terms)]


@pytest.mark.parametrize("j", sorted(S_GOLDEN))
def test_primal_level_golden(j):
    s = genfunc.primal_level_series(j, order=2 * 6 + j)
    assert _nonzero_part(s, j, 7) == S_GOLDEN[j]
    # parity: the complementary coefficients vanish
    assert all(s.coeff(n) == 0 for n in range(s.order + 1) if (n - j) % 2)


@pytest.mark.parametrize("j", sorted(G_GOLDEN))
def test_dual_level_golden(j):
    s = genfunc.dual_level_series(j, order=2 * 7 + j)
    assert _nonzero_part(s, j, 8) == G_GOLDEN[j]
    assert all(s.coeff(n) == 0 for n in range(s.order + 1) if (n - j) % 2)


def test_dual_axis_equals_primal_axis():
    order = 40
    assert genfunc.dual_level_series(0, order=order) == genfunc.primal_level_series(
        0, order=order
    )


def test_open_ended_expansions():
    s = genfunc.primal_open_ended(order=10)
    assert [s.coeff(n) for n in range(11)] == OPEN_PRIMAL
    g = genfunc.dual_open_ended(order=9)
    assert [g.coeff(n) for n in range(10)] == OPEN_DUAL


def test_primal_classes_sum_to_total():
    order = 20
    for j in range(4):
        total = genfunc.primal_level_series(j, order=order)
        parts = [genfunc.primal_level_series(j, cls=c, order=order) for c in "fgh"]
        assert parts[0] + parts[1] + parts[2] == total


def test_dual_classes_sum_to_total():
    order = 20
    for j in range(4):
        total = genfunc.dual_level_series(j, order=order)
        parts = [genfunc.dual_level_series(j, cls=c, order=order) for c in "abc"]
        assert parts[0] + parts[1] + parts[2] == total


def test_primal_classes_match_dp():
    order = 14
    table = dp_table(BOUNDED, order)
    for j in range(5):
        for cls in genfunc.PRIMAL_CLASSES:
            s = genfunc.primal_level_series(j, cls=cls, order=order)
            want = table.coefficients(j, cls=None if cls == "total" else cls)
            assert list(s.coeffs) == want, (j, cls)


def test_dual_classes_match_dp():
    order = 14
    table = dp_table(DUAL, order)
    for j in range(5):
        for cls in genfunc.DUAL_CLASSES:
            s = genfunc.dual_level_series(j, cls=cls, order=order)
            want = table.coefficients(j, cls=None if cls == "total" else cls)
            assert list(s.coeffs) == want, (j, cls)


def test_kernel_bundle_identities():
    b = genfunc.kernel_bundle(12)
    from skewdyck.series import RATIONAL, Series, W_VAR

    z = Series.z(12, RATIONAL)
    one = Series.one(12, RATIONAL)
    z2 = z * z
    assert b.W * b.W == one - 6 * z2 + 5 * z2 * z2
    assert b.P * b.Q == z2 * (2 * one - z2)
    assert b.P + b.Q == one + z2
    Ww = red_root(12)
    onew = Series.one(12, Ww.ring)
    zw = Series.z(12, onew.ring)
    w = W_VAR
    assert Ww * Ww == (onew - zw * zw * w) * (onew - zw * zw * (w + 4))


def _sqrt_one_bundle(order):
    """W, P, Q, Ww and Pw built with the O(N^2) square root, as an oracle."""
    from skewdyck.series import RATIONAL, WPOLY, W_VAR, Series, half, shift_up

    one = Series.one(order, RATIONAL)
    z2 = shift_up(one, 2)
    W = sqrt_one(one - 6 * z2 + 5 * shift_up(one, 4))
    onew = Series.one(order, WPOLY)
    z2w = shift_up(onew, 2)
    Ww = sqrt_one((onew - z2w * W_VAR) * (onew - z2w * (4 + W_VAR)))
    return {
        "W": W,
        "P": half(one + z2 + W),
        "Q": half(one + z2 - W),
        "Ww": Ww,
        "Pw": half(onew + z2w * W_VAR + Ww),
    }


@pytest.mark.parametrize("order", list(range(13)) + [40, 81])
def test_kernel_bundle_matches_sqrt_one_oracle(order):
    # W_w is dual_blue_g0's, and P_w = 1 - z^2 G is how red_level_series reads it
    b = genfunc.kernel_bundle(order)
    assert b.order == order
    red_p = Series.one(order, WPOLY) - shift_up(genfunc.dual_blue_g0(order), 2)
    made = {"W": b.W, "P": b.P, "Q": b.Q, "Ww": red_root(order), "Pw": red_p}
    for name, want in _sqrt_one_bundle(order).items():
        assert made[name] == want, name


def test_constructors_hold_integers_only():
    made = [genfunc.primal_open_ended(30), genfunc.dual_open_ended(30)]
    for cls in genfunc.PRIMAL_CLASSES:
        made += genfunc.primal_levels(0, 6, cls, order=30)
        made += genfunc.negative_levels(-6, 6, cls, order=24)
    for cls in genfunc.DUAL_CLASSES:
        made += genfunc.dual_levels(0, 6, cls, order=30)
    made += [genfunc.negative_axis_series(cls, 24) for cls in genfunc.NEGATIVE_AXIS_CLASSES]
    made += [*genfunc.negative_boundary_series(24), genfunc.average_red_series(12)]
    axis = genfunc.even_to_x(genfunc.dual_blue_g0(24))
    made += [s for k in range(5) for s in (genfunc.red_w_power_slice(k, 12), w_slice(axis, k))]
    assert all(type(c) is int for s in made for c in s.coeffs)
    red = [genfunc.dual_blue_g0(14)]
    for cls in genfunc.PRIMAL_CLASSES:
        red += [genfunc.red_level_series(j, cls, order=14) for j in range(4)]
    coeffs = [c for s in red for c in s.coeffs]
    assert all(type(c) is WPoly and all(type(a) is int for a in c.coeffs) for c in coeffs)


def test_kernel_bundle_record():
    b = genfunc.kernel_bundle(6)
    same = genfunc.kernel_bundle(6)
    assert b == same and hash(b) == hash(same)
    assert b == genfunc.KernelBundle(6, b.W, P=b.P, Q=b.Q)
    assert b != genfunc.kernel_bundle(8)
    assert repr(b).startswith("KernelBundle(order=6, W=Series(")
    # a plain immutable record: its four fields, no instance dict, no cache
    assert genfunc.KernelBundle.__slots__ == ("order", "W", "P", "Q")
    assert not hasattr(b, "__dict__") and not hasattr(genfunc, "cached_property")
    with pytest.raises(AttributeError):
        b.order = 8
    with pytest.raises(AttributeError):
        b.Ww = None  # no slot for anything else


def test_kernel_bundle_rejects_negative_order():
    with pytest.raises(ValueError):
        genfunc.kernel_bundle(-1)


def test_truncation_is_the_lower_order():
    # verify builds G = dual_blue_g0 once, to z^max(order, 40), and reads the
    # lower orders it checks as truncations: each must be, value for value
    # and type for type, the series built at that order, and so must each
    # root of kernel_bundle
    built = {n: (genfunc.dual_blue_g0(n), genfunc.kernel_bundle(n)) for n in range(201)}
    for top in [*range(41), 200]:
        G, b = built[top]
        for n in range(top + 1):
            G_n, b_n = built[n]
            pairs = [(G, G_n)] + [(getattr(b, f), getattr(b_n, f)) for f in ("W", "P", "Q")]
            for s, want in pairs:
                cut = s.truncate(n)
                assert cut == want, (top, n)
                assert list(map(type, cut.coeffs)) == list(map(type, want.coeffs)), (top, n)


# the exported genfunc constructors, read through getattr, because the
# package resolves its exports on access
_CONSTRUCTORS = sorted(
    name
    for name in skewdyck.__all__
    if inspect.isfunction(obj := getattr(skewdyck, name)) and obj.__module__ == genfunc.__name__
    and name != "substitution_identity_check"
)
_INTS = ("order", "j", "lo", "hi", "k")


def test_constructor_sample_is_whole():
    assert _CONSTRUCTORS == [
        "average_red_series", "dual_blue_g0", "dual_level_series", "dual_levels",
        "dual_open_ended", "kernel_bundle", "negative_axis_series",
        "negative_boundary_series", "negative_level_series", "negative_levels",
        "primal_level_series", "primal_levels", "primal_open_ended",
        "red_level_series", "red_w_power_slice",
    ]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_CONSTRUCTORS), st.data())
def test_constructors_reject_bad_ints_by_name(name, data):
    make = getattr(genfunc, name)
    params = inspect.signature(make).parameters
    value = st.integers(-3, 6) | st.sampled_from([2.5, 3.0])
    args = {p: data.draw(value, label=p) for p in _INTS if p in params}
    if name == "negative_axis_series":
        args["cls"] = data.draw(st.sampled_from(genfunc.NEGATIVE_AXIS_CLASSES))
    try:
        made = make(**args)
    except ValueError as exc:  # not a SeriesError from deep inside the engine
        assert not isinstance(exc, SeriesError), (args, exc)
        msg = str(exc)
        assert any(
            re.search(rf"\b{p}\b", msg) and str(args[p]) in msg for p in _INTS if p in args
        ), (args, msg)
        return
    assert not any(isinstance(args[p], float) for p in _INTS if p in args), args
    if isinstance(made, genfunc.KernelBundle):
        made = (made.W, made.P, made.Q)
    made = made if isinstance(made, (list, tuple)) else [made]
    assert all(s.order == args["order"] for s in made)


@pytest.mark.parametrize(
    "name, args",
    [
        ("dual_blue_g0", ()),
        ("red_level_series", (2, "h")),
        ("primal_open_ended", ()),
        ("dual_open_ended", ()),
        ("negative_axis_series", ("g0",)),
    ],
)
def test_closed_forms_build_no_bundle(monkeypatch, name, args):
    # each builds only the root it reads: W alone, or W_w in dual_blue_g0
    want = getattr(genfunc, name)(*args, order=12)

    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} built a kernel bundle")

    monkeypatch.setattr(genfunc, "kernel_bundle", refuse)
    assert getattr(genfunc, name)(*args, order=12) == want


@pytest.mark.parametrize(
    "name, args",
    [
        ("primal_level_series", (2,)),
        ("primal_level_series", (0, "h")),
        ("dual_level_series", (3,)),
        ("dual_level_series", (3, "a")),
        ("dual_level_series", (2, "b")),
        ("dual_level_series", (1, "c")),
        ("negative_level_series", (1,)),
        ("negative_level_series", (-2, "g")),
        ("negative_boundary_series", ()),
        ("negative_levels", (-12, 12)),
    ],
)
def test_given_bundle_yields_exactly_the_order(name, args):
    make = getattr(genfunc, name)
    bundle = genfunc.kernel_bundle(24)
    for order in (0, 5, 16):
        want = make(*args, order=order)
        assert make(*args, order=order, bundle=bundle) == want
        assert make(*args, order=order, bundle=genfunc.kernel_bundle(order)) == want
    if name.startswith("dual"):
        # every dual class, the total too, reads a bundle of exactly the
        # order: the ladder divides by P itself
        for j in range(21):
            exact = make(j, *args[1:], order=16, bundle=genfunc.kernel_bundle(16))
            assert exact == make(j, *args[1:], order=16), j
    if name == "negative_levels":
        # the levels below the axis read the bad root by one more division
        # by P, so every class reads a bundle of exactly the order
        for cls in genfunc.PRIMAL_CLASSES:
            for order in range(41):
                exact = make(*args, cls, order=order, bundle=genfunc.kernel_bundle(order))
                assert exact == make(*args, cls, order=order), (cls, order)


@pytest.mark.parametrize(
    "name, args, order, bundle_order",
    [
        ("primal_level_series", (0,), 30, 10),
        ("dual_level_series", (3,), 16, 15),
        ("dual_level_series", (3, "a"), 16, 15),
        ("negative_level_series", (-1,), 16, 15),
        ("negative_boundary_series", (), 16, 15),
        # every level constructor refuses a bundle one short of its order
        ("primal_level_series", (0,), 16, 15),
        ("dual_level_series", (3, "c"), 16, 15),
        ("negative_levels", (-3, 3), 16, 15),
        ("negative_level_series", (1,), 16, 15),
        ("primal_levels", (0, 3), 16, 15),
        ("dual_levels", (0, 3), 16, 15),
    ],
)
def test_too_short_bundle_rejected(name, args, order, bundle_order):
    bundle = genfunc.kernel_bundle(bundle_order)
    with pytest.raises(ValueError, match=f"too short for order {order}$"):
        getattr(genfunc, name)(*args, order=order, bundle=bundle)


@pytest.mark.parametrize(
    "name, args",
    [
        ("primal_levels", (0, 1)),
        ("primal_level_series", (0,)),
        ("dual_levels", (0, 1)),
        ("dual_level_series", (2,)),
        ("negative_levels", (-1, 1)),
        ("negative_level_series", (-1,)),
        ("negative_boundary_series", ()),
    ],
)
@pytest.mark.parametrize("bundle", ["x", 40, genfunc.kernel_bundle(8).W])
def test_bundle_that_is_no_bundle_rejected(name, args, bundle):
    with pytest.raises(ValueError, match="^bundle must be a KernelBundle, got "):
        getattr(genfunc, name)(*args, order=4, bundle=bundle)


@pytest.mark.parametrize("j", [-2, 0, 3])
def test_negative_total_builds_boundary_once(monkeypatch, j):
    calls = []
    real = genfunc.negative_boundary_series

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(genfunc, "negative_boundary_series", counting)
    genfunc.negative_level_series(j, "total", order=10)
    assert len(calls) == 1


def _count_divisions(monkeypatch):
    """Count genfunc's series divisions and record the closed forms read."""
    calls, forms = [], []
    real_div, real_form = genfunc.div, genfunc._closed_form

    def counting_div(*args, **kwargs):
        calls.append(1)
        return real_div(*args, **kwargs)

    def counting_form(root, order, *form):
        forms.append(form)
        return real_form(root, order, *form)

    monkeypatch.setattr(genfunc, "div", counting_div)
    monkeypatch.setattr(genfunc, "_closed_form", counting_form)
    return calls, forms


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: genfunc.primal_levels(0, 3, order=10), id="primal"),
        pytest.param(lambda: genfunc.dual_levels(0, 3, order=10), id="dual"),
        pytest.param(lambda: genfunc.red_level_series(3, order=10), id="red"),
    ],
)
def test_each_ladder_reads_one_closed_form(monkeypatch, make):
    # a ladder reads no closed form: it divides each of its levels 0..3 by
    # its kernel's den0 once
    calls, forms = _count_divisions(monkeypatch)
    make()
    assert forms == [] and len(calls) == 4


@pytest.mark.parametrize("lo", [-3, 0])
def test_negative_levels_divide_by_the_bad_root_once(monkeypatch, lo):
    # one division per closed form, the boundary's f0, g0 and h0, and one per
    # level of the ladder above the axis, 0..3; below it, one more division
    # by P for z times the bad root z/P, and one per level -1..-3 and the
    # ladder's level 0
    calls, forms = _count_divisions(monkeypatch)
    genfunc.negative_levels(lo, 3, order=10)
    assert forms == list(genfunc._BOUNDARY)
    assert len(calls) == 3 + 4 + (1 + 4) * (lo < 0)


@pytest.mark.parametrize(
    "name, j",
    [
        pytest.param("primal_level_series", 3, id="primal-3"),
        pytest.param("dual_level_series", 3, id="dual-3"),
        pytest.param("red_level_series", 3, id="red-3"),
        pytest.param("negative_level_series", -2, id="-2"),
        pytest.param("negative_level_series", 3, id="3"),
    ],
)
def test_negative_total_extracts_once(monkeypatch, name, j):
    # the total adds the class numerators over their shared denominator,
    # so one level of it runs one ladder, not one per class
    calls = []
    real = genfunc._ladder

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(genfunc, "_ladder", counting)
    getattr(genfunc, name)(j, "total", order=10)
    assert len(calls) == 1


_LEVELS = {
    "primal": genfunc.PRIMAL_CLASSES,
    "dual": genfunc.DUAL_CLASSES,
    "negative": ("f", "g", "h", "total"),
}


@pytest.mark.parametrize(
    "family, cls", [(family, cls) for family, classes in _LEVELS.items() for cls in classes]
)
def test_levels_call_builds_one_bundle(monkeypatch, family, cls):
    calls = {"kernel_bundle": 0, "negative_boundary_series": 0}
    for name in calls:
        real = getattr(genfunc, name)

        def counting(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(genfunc, name, counting)
    lo = -3 if family == "negative" else 0
    getattr(genfunc, f"{family}_levels")(lo, 3, cls, order=10)
    assert calls == {"kernel_bundle": 1, "negative_boundary_series": int(family == "negative")}


@pytest.mark.parametrize("order", range(13))
def test_levels_equal_single_level_calls(order):
    top = order + 2  # past the order, where the levels are zero
    ranges = {
        "primal": [(0, top), (2, top), (top, top)],
        "dual": [(0, top), (2, top), (top, top)],
        "negative": [(-top, top), (-top, -2), (-1, -1), (-1, 2), (0, 0), (2, top)],
    }
    for family, classes in _LEVELS.items():
        levels = getattr(genfunc, f"{family}_levels")
        single = getattr(genfunc, f"{family}_level_series")
        for cls in classes:
            bottom = ranges[family][0][0]
            want = {j: single(j, cls, order=order) for j in range(bottom, top + 1)}
            for lo, hi in ranges[family]:
                got = dict(zip(range(lo, hi + 1), levels(lo, hi, cls, order=order)))
                assert got == {j: want[j] for j in range(lo, hi + 1)}, (family, cls, lo, hi)


@pytest.mark.parametrize("family", sorted(_LEVELS))
def test_empty_level_range_rejected(family):
    with pytest.raises(ValueError, match="empty level range 3..2"):
        getattr(genfunc, f"{family}_levels")(3, 2, order=4)


_ONE, _Z = Series.one(8), Series.z(8)


@pytest.mark.parametrize(
    "num, den0, den1, lo, hi, want",
    [
        # 1/(1 - zu): level j is z^j
        pytest.param(
            (_ONE,), _ONE, {1: -1}, 0, 4, [Series.from_dict({j: 1}, 8) for j in range(5)],
            id="geometric",
        ),
        # (2 + 5zu)/(1 - zu): level j >= 1 is 2z^j + 5z z^(j-1) = 7z^j
        pytest.param(
            (2 * _ONE, 5 * _Z), _ONE, {1: -1}, 1, 3,
            [Series.from_dict({j: 7}, 8) for j in (1, 2, 3)], id="numerator-shift",
        ),
        # den0 = z has no inverse
        pytest.param((_Z,), _Z, {1: 1}, 0, 0, NonUnitError, id="non-unit-den0"),
    ],
)
def test_ladder_expansion(num, den0, den1, lo, hi, want):
    if want is NonUnitError:
        with pytest.raises(NonUnitError):
            genfunc._ladder(num, den0, den1, lo, hi)
    else:
        assert genfunc._ladder(num, den0, den1, lo, hi) == want


def _generic_rungs(order):
    """The first rungs base, ratio base and ratio^2 base of each ladder by
    the generic construction: for den0 + den1 u, base = div(1, den0) and
    ratio = -den1 base."""
    b = genfunc.kernel_bundle(order)
    one, z, z2 = Series.one(order), Series.z(order), shift_up(Series.one(order), 2)
    red_p = Series.one(order, WPOLY) - shift_up(genfunc.dual_blue_g0(order), 2)
    rungs = {}
    for name, unit, den0, den1 in (
        ("primal", one, -b.P, z),
        ("dual", one, b.P, -(z * (2 * one - z2))),
        ("red", Series.one(order, WPOLY), -red_p, Series.z(order, WPOLY)),
    ):
        base = div(unit, den0)
        ratio = -(den1 * base)
        rungs[name] = [base, ratio * base, ratio * (ratio * base)]
    return rungs


@pytest.mark.parametrize("order", [*range(41), 200])
def test_ladder_rungs_are_the_generic_construction(order):
    # the ladder of num = 1 over each family's den0 + den1 u
    P = genfunc.kernel_bundle(order).P
    Pw = Series.one(order, WPOLY) - shift_up(genfunc.dual_blue_g0(order), 2)
    ladders = {
        "primal": (-P, genfunc._ZU),
        "dual": (P, genfunc._DUAL_U),
        "red": (-Pw, genfunc._ZU),
    }
    for name, want in _generic_rungs(order).items():
        den0, den1 = ladders[name]
        got = genfunc._ladder((Series.one(order, den0.ring),), den0, den1, 0, 2)
        assert got == want, name
        assert [[type(c) for c in s.coeffs] for s in got] == [
            [type(c) for c in s.coeffs] for s in want
        ], name


@pytest.mark.parametrize("order", [0, 1, 2, 3, 8])
def test_level_series_at_small_orders_match_dp(order):
    families = (
        (BOUNDED, genfunc.primal_level_series, range(0, order + 4)),
        (DUAL, genfunc.dual_level_series, range(0, order + 4)),
        (UNBOUNDED, genfunc.negative_level_series, range(-order - 3, order + 4)),
    )
    for family, level_series, levels in families:
        table = dp_table(family, order, with_color_marker=False)
        for j in levels:
            s = level_series(j, order=order)
            assert s.order == order, (family, j)
            assert list(s.coeffs) == [table.count(n, j) for n in range(order + 1)], (family, j)


# -- red (w-marked) series ------------------------------------------------


def test_red_axis_expansion():
    sx = genfunc.even_to_x(genfunc.red_level_series(0, order=12))
    w = WPoly((0, 1))
    assert sx.coeff(0) == WPoly.const(1)
    assert sx.coeff(1) == WPoly.const(1)
    assert sx.coeff(2) == w + 2
    assert sx.coeff(3) == WPoly((5, 4, 1))
    assert sx.coeff(4) == WPoly((14, 15, 6, 1))


def test_red_specializations():
    order = 20
    marked = genfunc.red_level_series(0, order=order)
    plain = genfunc.primal_level_series(0, order=order)
    assert specialize_w(marked, 1) == plain
    catalan = w_slice(marked, 0)
    assert [catalan.coeff(2 * n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_red_classes_match_color_dp():
    order = 12
    table = dp_table(BOUNDED, order, with_color_marker=True)
    for j in range(4):
        for cls in genfunc.PRIMAL_CLASSES:
            s = genfunc.red_level_series(j, cls=cls, order=order)
            for n in range(order + 1):
                want = table.wpoly(n, j, cls=None if cls == "total" else cls)
                assert s.coeff(n) == want, (j, cls, n)


def test_substitution_identities():
    checks = genfunc.substitution_identity_check(genfunc.even_to_x(genfunc.dual_blue_g0(40)))
    assert len(checks) == 2
    assert all(c.ok for c in checks), checks


@pytest.mark.parametrize("n", range(9))
def test_substitution_check_names_first_wrong_coefficient(n):
    # a constant bump survives w := 1, so both weights must fail at x^n
    s = genfunc.even_to_x(genfunc.dual_blue_g0(16))
    checks = genfunc.substitution_identity_check(s + Series.from_dict({n: 1}, s.order, s.ring))
    assert [c.name for c in checks] == ["substitution weight 2+w", "substitution weight 3"]
    assert not any(c.ok for c in checks)
    for c in checks:
        assert c.detail.startswith(f"first mismatch at order {n}: "), c.detail


def test_average_red_series():
    s = genfunc.average_red_series(order=8)
    assert [s.coeff(n) for n in range(8)] == [0, 0, 1, 6, 30, 144, 685, 3258]
    # semilength 3: 6 red edges over 10 paths = 3/5
    assert Fraction(s.coeff(3), 10) == Fraction(3, 5)


def test_average_red_series_builds_no_bundle(monkeypatch):
    # sqrt(1-6x+5x^2) comes straight from the root recurrence, and the
    # derivative route (the w-marked axis) is verify's closed-derivative:red
    orders = []

    def counting(order=genfunc.DEFAULT_ORDER):
        orders.append(order)
        return build(order)

    build = genfunc.kernel_bundle
    monkeypatch.setattr(genfunc, "kernel_bundle", counting)
    genfunc.average_red_series(order=10)
    assert orders == []


@pytest.mark.parametrize("k", range(5))
def test_w_power_slices(k):
    closed = genfunc.red_w_power_slice(k, order=20)
    sliced = w_slice(genfunc.even_to_x(genfunc.dual_blue_g0(40)), k)
    assert closed == sliced


@pytest.mark.parametrize("k", range(5))
def test_w_power_slices_are_binomial_catalan_sums(k):
    # [w^k] S(0) = sum_n C(n-1, k) Cat(n-k) x^n over n >= 1, plus 1 at k = 0
    def catalan(m):
        return comb(2 * m, m) // (m + 1)

    want = [int(k == 0)] + [comb(n - 1, k) * catalan(n - k) if n > k else 0 for n in range(1, 61)]
    assert list(genfunc.red_w_power_slice(k, order=60).coeffs) == want


def test_w_power_slice_catalan():
    s = genfunc.red_w_power_slice(0, order=8)
    assert [s.coeff(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_blue_marked_dual_axis():
    s = genfunc.dual_blue_g0(order=24)
    assert s.coeff(6) == WPoly((5, 4, 1))
    assert s.coeff(8) == WPoly((14, 15, 6, 1))  # (w+2)(w^2+4w+7)
    blue_dp = dp_table(DUAL, 24, with_color_marker=True)
    for n in range(25):
        assert s.coeff(n) == blue_dp.wpoly(n, 0)


@pytest.mark.parametrize("order", [*range(41), 120])
def test_red_axis_closed_form_is_the_ladder_level(order):
    # the red checks read dual_blue_g0's closed form in x; level 0 of the red
    # ladder is the second route to the same series
    ladder = genfunc.even_to_x(genfunc.red_level_series(0, order=order))
    closed = genfunc.even_to_x(genfunc.dual_blue_g0(order))
    assert closed == ladder and closed.order == ladder.order == order // 2
    assert [type(c) for c in closed.coeffs] == [type(c) for c in ladder.coeffs]


def test_red_axis_inverts_no_series(monkeypatch):
    want = genfunc.even_to_x(genfunc.dual_blue_g0(40))

    def refuse(*args, **kwargs):
        raise AssertionError("the red axis reached the ladder or a series inverse")

    for name in ("red_level_series", "div"):
        monkeypatch.setattr(genfunc, name, refuse)
    assert genfunc.even_to_x(genfunc.dual_blue_g0(40)) == want


# -- negative territory ----------------------------------------------------


@pytest.mark.parametrize("cls", sorted(NEGATIVE_AXIS_GOLDEN))
def test_negative_axis_closed_forms(cls):
    s = genfunc.negative_axis_series(cls, order=14)
    assert _even_part(s, 8) == NEGATIVE_AXIS_GOLDEN[cls]


def test_negative_axis_is_not_the_path_count():
    """The axis closed forms and the enumerative level series genuinely
    differ: they solve the same functional equations with different
    analyticity requirements (see module docstring)."""
    axis = genfunc.negative_axis_series("sum", order=8)
    level = genfunc.negative_level_series(0, order=8)
    assert _even_part(axis, 5) == [1, 2, 6, 21, 79]
    assert _even_part(level, 5) == [1, 2, 7, 29, 127]


def test_negative_boundary_matches_dp():
    order = 40
    f0, g0, h0 = genfunc.negative_boundary_series(order=order)
    table = dp_table(UNBOUNDED, order)
    for n in range(order + 1):
        assert f0.coeff(n) == table.count(n, 0, cls="f")
        assert g0.coeff(n) == table.count(n, 0, cls="g")
        assert h0.coeff(n) == table.count(n, 0, cls="h")


def test_negative_level_series_matches_dp():
    order = 14
    table = dp_table(UNBOUNDED, order)
    for j in range(-4, 5):
        for cls in ("f", "g", "h", "total"):
            s = genfunc.negative_level_series(j, cls=cls, order=order)
            for n in range(order + 1):
                want = (
                    table.count(n, j)
                    if cls == "total"
                    else table.count(n, j, cls=cls)
                )
                assert s.coeff(n) == want, (j, cls, n)


def test_negative_level_axis_values():
    s = genfunc.negative_level_series(-1, order=13)
    assert [s.coeff(2 * n + 1) for n in range(7)] == [1, 4, 17, 75, 339, 1558, 7247]
    s = genfunc.negative_level_series(-2, order=14)
    assert [s.coeff(2 * n) for n in range(8)] == [0, 2, 9, 41, 189, 880, 4131, 19522]


@pytest.mark.parametrize(
    "make",
    [
        lambda: genfunc.primal_levels(0, 2, "a", order=6),
        lambda: genfunc.dual_levels(0, 2, "f", order=6),
        lambda: genfunc.negative_levels(-2, 2, "a", order=6),
        lambda: genfunc.red_level_series(0, "a", order=6),
        lambda: genfunc.negative_axis_series("f", order=6),
    ],
)
def test_bad_class_builds_no_bundle(monkeypatch, make):
    calls = []
    real = genfunc.kernel_bundle

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(genfunc, "kernel_bundle", counting)
    with pytest.raises(ValueError, match="unknown class"):
        make()
    assert calls == []


def test_axis_solutions_share_the_class_relations():
    # both solutions keep the upper kernel's g0 = rho_g f0 and h0 = rho_h f0
    # and differ only in f0, first at z^4 (2 against 3); rho_g and rho_h
    # come from Q by series division here, not from the closed forms
    for order in (16, 120):
        one = Series.one(order + 4)
        z2 = shift_up(one, 2)
        Q = genfunc.kernel_bundle(order + 4).Q
        rho_h = div(shift_up(one, 4), Q * (z2 - one) + one - 2 * z2)
        rho_g = div(z2 + rho_h, one - z2)
        axis = [genfunc.negative_axis_series(cls, order) for cls in ("f0", "g0", "h0")]
        boundary = genfunc.negative_boundary_series(order)
        for f0, g0, h0 in (axis, boundary):
            assert g0 == (rho_g * f0).truncate(order)
            assert h0 == (rho_h * f0).truncate(order)
        assert genfunc.negative_axis_series("sum", order) == axis[0] + axis[1] + axis[2]
        differ = [n for n in range(order + 1) if axis[0].coeff(n) != boundary[0].coeff(n)]
        assert differ[0] == 4 and (axis[0].coeff(4), boundary[0].coeff(4)) == (2, 3)


def test_closed_form_refuses_a_wrong_denominator():
    # the boundary's g0 read as it stands, and with one coefficient of its
    # denominator 2(2-z^2)^2(1-5z^2) bumped: the quotient is not integral
    a, b, den = genfunc._BOUNDARY[1]
    W = genfunc.kernel_bundle(20).W
    assert genfunc._closed_form(W, 20, a, b, den) == genfunc.negative_boundary_series(20)[1]
    with pytest.raises(ExactnessError):
        genfunc._closed_form(W, 20, a, b, {**den, 2: den[2] + 1})


def test_bad_class_rejected():
    with pytest.raises(ValueError):
        genfunc.primal_level_series(0, cls="x")
    with pytest.raises(ValueError):
        genfunc.negative_axis_series("nope")
