"""Acceptance gate: one printed PASS/FAIL line per criterion.

Each criterion is exact (integer/rational equality) except the red-edge
ratio bound in criterion 5, which is an interval check at a finite length
because the n/5 growth claim is asymptotic.
"""

from fractions import Fraction

from conftest import red_root, w_slice
from skewdyck import genfunc
from skewdyck.dp import dp_table
from skewdyck.formulas import (
    dual_coeff_explicit,
    primal_coeff_explicit,
    red_coeff_explicit,
)
from skewdyck.paths import BOUNDED, DUAL, UNBOUNDED
from skewdyck.series import RATIONAL, Series, WPoly, W_VAR, specialize_w, w_derivative

BRUTE_LENGTH = 14


def _report(capsys, number, label, failures):
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else f" [{'; '.join(failures[:3])}]"
    with capsys.disabled():
        print(f"ACCEPTANCE criterion {number} ({label}): {status}{detail}")
    assert not failures, failures


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


# -- criterion 1: golden tables -------------------------------------------

S_LISTS = {
    0: [1, 1, 3, 10, 36, 137, 543],
    1: [1, 2, 6, 21, 79, 311, 1265],
    2: [1, 3, 10, 37, 145, 589, 2455],
    3: [1, 4, 15, 59, 241, 1010, 4314],
}
G_LISTS = {
    0: [1, 1, 3, 10, 36, 137, 543, 2219],
    1: [2, 3, 10, 36, 137, 543, 2219, 9285],
    2: [4, 8, 29, 111, 442, 1813, 7609, 32521],
    3: [8, 20, 78, 315, 1306, 5527, 23779, 103699],
}
OPEN_PRIMAL = [1, 1, 2, 3, 7, 11, 26, 43, 102, 175, 416]
OPEN_DUAL = [1, 2, 5, 11, 27, 62, 151, 354, 859, 2036]
RED_AXIS_X = [
    WPoly.const(1),
    WPoly.const(1),
    WPoly((2, 1)),
    WPoly((5, 4, 1)),
    WPoly((14, 15, 6, 1)),
]
AXIS_LISTS = {
    "f0": [1, 1, 2, 6, 21, 79, 311, 1265],
    "g0": [0, 1, 3, 10, 37, 145, 589, 2455],
    "h0": [0, 0, 1, 5, 21, 87, 365, 1555],
    "sum": [1, 2, 6, 21, 79, 311, 1265, 5275],
}


def test_criterion_1_golden_tables(capsys):
    failures = []
    for j, want in S_LISTS.items():
        s = genfunc.primal_level_series(j, order=15)
        got = [s.coeff(2 * n + j) for n in range(len(want)) if 2 * n + j <= 15]
        _check(failures, got == want[: len(got)], f"primal s_{j}: {got}")
    for j, want in G_LISTS.items():
        s = genfunc.dual_level_series(j, order=17)
        got = [s.coeff(2 * n + j) for n in range(len(want)) if 2 * n + j <= 17]
        _check(failures, got == want[: len(got)], f"dual G_{j}: {got}")
    s = genfunc.primal_open_ended(order=10)
    _check(failures, [s.coeff(n) for n in range(11)] == OPEN_PRIMAL, "open primal")
    s = genfunc.dual_open_ended(order=9)
    _check(failures, [s.coeff(n) for n in range(10)] == OPEN_DUAL, "open dual")
    sx = genfunc.even_to_x(genfunc.red_level_series(0, order=10))
    _check(
        failures,
        [sx.coeff(n) for n in range(5)] == RED_AXIS_X,
        "red-marked axis expansion",
    )
    for cls, want in AXIS_LISTS.items():
        s = genfunc.negative_axis_series(cls, order=14)
        got = [s.coeff(2 * n) for n in range(8)]
        _check(failures, got == want, f"negative axis {cls}: {got}")
    _report(capsys, 1, "golden tables", failures)


def test_criterion_2_reference_sequences(capsys):
    from skewdyck.refs import A002212, A033321_PREFIX

    failures = []
    s = genfunc.primal_level_series(0, order=26)
    got = tuple(s.coeff(2 * n) for n in range(14))
    _check(failures, got == A002212, f"A002212: {got}")
    s = genfunc.negative_axis_series("sum", order=14)
    got = tuple(s.coeff(2 * n) for n in range(8))
    _check(failures, got == A033321_PREFIX, f"A033321 prefix: {got}")
    _report(capsys, 2, "reference sequences", failures)


def test_criterion_3_four_way_equivalence(capsys, brute_tables):
    failures = []
    # brute force == dp, fully refined, lengths <= 14
    for family in (BOUNDED, DUAL, UNBOUNDED):
        table = dp_table(family, BRUTE_LENGTH)
        _check(
            failures,
            brute_tables[family].entries == table.entries,
            f"brute != dp for {family}",
        )
    # dp == closed forms
    order = 40
    table = dp_table(BOUNDED, order, with_color_marker=False)
    for j in range(9):
        s = genfunc.primal_level_series(j, order=order)
        ok = all(s.coeff(n) == table.count(n, j) for n in range(order + 1))
        _check(failures, ok, f"primal dp != closed at j={j}")
    table = dp_table(DUAL, order, with_color_marker=False)
    for j in range(9):
        s = genfunc.dual_level_series(j, order=order)
        ok = all(s.coeff(n) == table.count(n, j) for n in range(order + 1))
        _check(failures, ok, f"dual dp != closed at j={j}")
    norder = 24
    table = dp_table(UNBOUNDED, norder, with_color_marker=False)
    for j in range(-6, 7):
        s = genfunc.negative_level_series(j, order=norder)
        ok = all(s.coeff(n) == table.count(n, j) for n in range(norder + 1))
        _check(failures, ok, f"negative dp != closed at j={j}")
    # closed forms == explicit formulas
    for j in range(9):
        s = genfunc.primal_level_series(j, order=40)
        m = 1
        while 2 * m + j <= 40:
            _check(
                failures,
                primal_coeff_explicit(j, m) == s.coeff(2 * m + j),
                f"primal explicit != closed at (j={j}, m={m})",
            )
            m += 1
    for j in range(9):
        s = genfunc.dual_level_series(j, order=40)
        N = 1
        while j + 2 * N <= 40:
            _check(
                failures,
                dual_coeff_explicit(j, N) == s.coeff(j + 2 * N),
                f"dual explicit != closed at (j={j}, N={N})",
            )
            N += 1
    sx = genfunc.even_to_x(genfunc.red_level_series(0, order=44))
    for n in range(1, 21):
        _check(
            failures,
            red_coeff_explicit(n) == sx.coeff(n),
            f"red explicit != closed at n={n}",
        )
    _report(capsys, 3, "four-way oracle equivalence", failures)


def test_criterion_4_structural_identities(capsys):
    failures = []
    order = 20
    b = genfunc.kernel_bundle(order)
    one = Series.one(order, RATIONAL)
    z = Series.z(order, RATIONAL)
    z2 = z * z
    _check(failures, b.W * b.W == one - 6 * z2 + 5 * z2 * z2, "W^2")
    _check(failures, b.P * b.Q == z2 * (2 * one - z2), "P*Q")
    Ww = red_root(order)  # the root the red series read, from dual_blue_g0
    onew = Series.one(order, Ww.ring)
    zw = Series.z(order, Ww.ring)
    w = W_VAR
    _check(
        failures,
        Ww * Ww == (onew - zw * zw * w) * (onew - zw * zw * (w + 4)),
        "Ww^2",
    )
    for chk in genfunc.substitution_identity_check(genfunc.even_to_x(genfunc.dual_blue_g0(40))):
        _check(failures, chk.ok, f"substitution {chk.name}")
    _check(
        failures,
        genfunc.dual_level_series(0, order=40)
        == genfunc.primal_level_series(0, order=40),
        "dual j=0 != primal j=0",
    )
    for j in range(4):
        s = genfunc.primal_level_series(j, order=20)
        _check(
            failures,
            all(s.coeff(n) == 0 for n in range(21) if (n - j) % 2),
            f"parity primal j={j}",
        )
        g = genfunc.dual_level_series(j, order=20)
        _check(
            failures,
            all(g.coeff(n) == 0 for n in range(21) if (n - j) % 2),
            f"parity dual j={j}",
        )
    marked = genfunc.red_level_series(0, order=24)
    _check(
        failures,
        specialize_w(marked, 1) == genfunc.primal_level_series(0, order=24),
        "w=1 specialization",
    )
    catalan = w_slice(marked, 0)
    _check(
        failures,
        [catalan.coeff(2 * n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132],
        "w=0 Catalan",
    )
    _report(capsys, 4, "structural identities", failures)


def test_criterion_5_red_edge_statistics(capsys):
    failures = []
    n_max = 30
    reds = genfunc.average_red_series(order=n_max)
    # the closed form against the derivative route, d/dw at w = 1
    deriv = specialize_w(w_derivative(genfunc.even_to_x(genfunc.dual_blue_g0(2 * n_max))), 1)
    _check(failures, reds == deriv, "closed form != derivative route at n <= 30")
    axis = genfunc.primal_level_series(0, order=2 * n_max)
    avg3 = Fraction(reds.coeff(3), axis.coeff(6))
    _check(failures, avg3 == Fraction(3, 5), f"average at n=3 is {avg3}")
    avg30 = Fraction(reds.coeff(30), axis.coeff(60))
    ratio = avg30 / Fraction(30, 5)
    _check(
        failures,
        Fraction(85, 100) <= ratio <= Fraction(115, 100),
        f"ratio at n=30 is {float(ratio):.4f}",
    )
    _report(capsys, 5, "red-edge statistics", failures)


def test_criterion_6_slice_closed_forms(capsys):
    failures = []
    for k in range(5):
        closed = genfunc.red_w_power_slice(k, order=20)
        sliced = w_slice(genfunc.even_to_x(genfunc.dual_blue_g0(40)), k)
        _check(failures, closed == sliced, f"slice k={k}")
    _report(capsys, 6, "w-power slice closed forms", failures)


def test_criterion_7_negative_levels_vs_brute(capsys, brute_tables):
    failures = []
    brute = brute_tables[UNBOUNDED]
    for j in (-1, -2):
        s = genfunc.negative_level_series(j, order=BRUTE_LENGTH)
        for n in range(BRUTE_LENGTH + 1):
            _check(
                failures,
                s.coeff(n) == brute.count(n, j),
                f"j={j} n={n}: closed {s.coeff(n)} != brute {brute.count(n, j)}",
            )
    _report(capsys, 7, "negative-territory levels vs brute force", failures)
