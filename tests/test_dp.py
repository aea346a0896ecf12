"""Tests for the state-diagram dynamic programming route."""

import pytest

from skewdyck.dp import check_recursions, dp_table
from skewdyck.formulas import red_coeff_explicit
from skewdyck.paths import (
    BOUNDED,
    DUAL,
    FAMILIES,
    UNBOUNDED,
    CountTable,
    count_table,
    family_spec,
)
from skewdyck.series import WPoly


@pytest.mark.parametrize("family", FAMILIES)
def test_dp_matches_brute_force_refined(family):
    for n in (0, 1, 2, 8, 10, 11):  # the short lengths have the smallest digit widths
        brute = count_table(family, n)
        table = dp_table(family, n)
        assert brute.entries == table.entries, n


@pytest.mark.parametrize("family", FAMILIES)
def test_dp_without_marker_lumps_counts(family):
    n = 8
    refined = dp_table(family, n, with_color_marker=True)
    lumped = dp_table(family, n, with_color_marker=False)
    for length in range(n + 1):
        for j in range(-length, length + 1):
            assert refined.count(length, j) == lumped.count(length, j)
            assert lumped.count(length, j, k=0) == lumped.count(length, j)


@pytest.mark.parametrize("family", FAMILIES)
def test_dp_rejects_negative_length(family):
    with pytest.raises(ValueError, match="max_length must be >= 0, got -1"):
        dp_table(family, -1)
    with pytest.raises(ValueError, match="max_length must be an int, got 2.5"):
        dp_table(family, 2.5)


def test_dp_axis_values():
    table = dp_table(BOUNDED, 12)
    assert [table.count(2 * n, 0) for n in range(7)] == [1, 1, 3, 10, 36, 137, 543]
    negative = dp_table(UNBOUNDED, 12)
    assert [negative.count(2 * n, 0) for n in range(7)] == [1, 2, 7, 29, 127, 572, 2623]
    assert [negative.count(2 * n + 1, -1) for n in range(6)] == [1, 4, 17, 75, 339, 1558]


def test_dp_dual_axis_values():
    table = dp_table(DUAL, 12)
    assert [table.count(2 * n, 0) for n in range(7)] == [1, 1, 3, 10, 36, 137, 543]
    assert [table.count(2 * n + 2, 2) for n in range(6)] == [4, 8, 29, 111, 442, 1813]


def test_entries_are_per_length_columns_in_class_order():
    bounded = dp_table(BOUNDED, 4)
    assert bounded.classes == ("f", "g", "h")
    B = bounded.bits
    # length 2 at levels 0, 2: UD; UU.  A red step never meets an up step
    assert list(bounded.levels(2)) == [0, 2]
    assert bounded.entries[2] == [[0, 1], [1, 0], [0, 0]]
    f, g, h = bounded.entries[4]  # levels 0, 2, 4
    assert (f[0], g[0], h[0]) == (0, 2, 1 << B)  # UDUD, UUDD; UUDR with one red
    assert (f[2], g[2], h[2]) == (1, 0, 0)
    dual = dp_table(DUAL, 2)
    assert dual.classes == ("a", "b", "c")
    B = dual.bits
    # length 2 at levels 0, 2: ud (a blue step never meets a down step); uu, Bu; uB, BB
    assert dual.entries[2] == [[0, 1 + (1 << B)], [1, 0], [0, (1 << B) + (1 << 2 * B)]]
    assert sorted(dual.entries) == [0, 1, 2]
    assert list(dp_table(UNBOUNDED, 3).levels(3)) == [-3, -1, 1, 3]


def test_axis_colour_polynomials_match_red_formula():
    table = dp_table(BOUNDED, 96)
    for m in range(1, 49):
        assert table.wpoly(2 * m, 0) == red_coeff_explicit(m), m


# the number of recursion instances at length L: it pins the identity set
_RECURSION_COUNTS = {BOUNDED: (1, 3), DUAL: (2, 3), UNBOUNDED: (0, 6)}


@pytest.mark.parametrize("family", FAMILIES)
def test_recursion_identities_hold(family):
    base, per_length = _RECURSION_COUNTS[family]
    for n in range(15):
        checks = check_recursions(dp_table(family, n))
        failures = [c for c in checks if not c.ok]
        assert not failures, (n, failures)
        assert len(checks) == base + per_length * n, n
        assert len({c.name for c in checks}) == len(checks)


def test_recursion_checker_flags_corruption():
    # each bumped count fails its own identity and those it feeds; a count
    # at the top power z^8 shows that the table's own length is compared
    corrupt = [
        (BOUNDED, (4, 0, "g"), [
            ("f_1 = z f_0 + z g_0", "z^5: 2 != 3"),
            ("g_0 = z f_1 + z g_1 + z h_1", "z^4: 3 != 2"),
        ]),
        (BOUNDED, (8, 2, "f"), [("f_2 = z f_1 + z g_1", "z^8: 17 != 16")]),
        (DUAL, (4, 2, "a"), [
            ("a_2 = z a_1 + z b_1 + z c_1", "z^4: 4 != 3"),
            ("b_1 = z a_2 + z b_2", "z^5: 7 != 8"),
            ("a_3 = z a_2 + z b_2 + z c_2", "z^5: 8 != 9"),
            ("c_3 = z a_2 + z c_2", "z^5: 4 != 5"),
        ]),
        (DUAL, (8, 2, "a"), [("a_2 = z a_1 + z b_1 + z c_1", "z^8: 37 != 36")]),
        (UNBOUNDED, (3, -1, "h"), [
            ("g_-2 = z f_-1 + z g_-1 + z h_-1", "z^4: 4 != 5"),
            ("h_-2 = z g_-1 + z h_-1", "z^4: 3 != 4"),
            ("h_-1 = z g_0 + z h_0", "z^3: 2 != 1"),
        ]),
        (UNBOUNDED, (8, 2, "f"), [("f_2 = [i=0] + z f_1 + z g_1", "z^8: 41 != 40")]),
    ]
    for family, key, failures in corrupt:
        table = dp_table(family, 8)
        table.add(*key, 0)
        got = [(c.name, c.detail) for c in check_recursions(table) if not c.ok]
        assert got == [(name, f"first mismatch at {at}") for name, at in failures], key


def test_unknown_family():
    with pytest.raises(ValueError):
        dp_table("nonsense", 4)
    with pytest.raises(ValueError, match="unknown family 'nonsense'"):
        check_recursions(CountTable("nonsense", 3))


def _reference_counts(family, max_length, with_color_marker):
    """Unpacked forward DP: {(n, j, cls, k): count}, one entry per state."""
    spec = family_spec(family)
    out = {}
    state = {(0, spec.empty_class, 0): 1}
    for n in range(max_length + 1):
        for (level, cls, k), v in state.items():
            out[n, level, cls, k] = v
        nxt = {}
        for (level, cls, k), v in state.items():
            prev = spec.steps[spec.classes.index(cls)]
            for s, cls_s in zip(spec.steps, spec.classes):
                nl = level + spec.incr[s]
                if (prev, s) in spec.forbidden or (spec.floor and nl < 0):
                    continue
                nk = k + (with_color_marker and s == spec.colored)
                nxt[nl, cls_s, nk] = nxt.get((nl, cls_s, nk), 0) + v
        state = nxt
    return out


@pytest.mark.parametrize("marker", [True, False])
@pytest.mark.parametrize("family", FAMILIES)
def test_lookups_match_unpacked_reference(family, marker):
    top = 29  # odd, so its floored rows start at level 1
    ref = _reference_counts(family, top, marker)
    classes = family_spec(family).classes
    for max_length in (0, 1, 2, 3, 20, top):
        table = dp_table(family, max_length, with_color_marker=marker)
        assert table.counts() == {key: v for key, v in ref.items() if key[0] <= max_length}
        for n in range(max_length + 1):
            for j in range(-n - 1, n + 2):  # rows past |j| = n are absent
                for cls in classes + (None,):
                    cs = classes if cls is None else (cls,)
                    by_k = [sum(ref.get((n, j, c, k), 0) for c in cs) for k in range(n + 3)]
                    assert table.wpoly(n, j, cls=cls) == WPoly(by_k)
                    assert table.count(n, j, cls=cls) == sum(by_k)
                    assert table.count(n, j, cls=cls, k=-1) == 0
                    for k, want in enumerate(by_k):  # k up to two past the top digit
                        assert table.count(n, j, cls=cls, k=k) == want
        for j in (-max_length - 1, 0, 1, max_length + 1):
            for cls in classes + (None,):
                for k in (None, 0, 1, max_length + 1):
                    assert table.coefficients(j, cls=cls, k=k) == [
                        table.count(n, j, cls=cls, k=k) for n in range(max_length + 1)
                    ]

