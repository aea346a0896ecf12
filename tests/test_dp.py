"""Tests for the state-diagram dynamic programming route."""

import re

import pytest
from conftest import bumped

from skewdyck import dp
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
    assert bounded.entries[2] == ((0, 1), (1, 0), (0, 0))
    f, g, h = bounded.entries[4]  # levels 0, 2, 4
    assert (f[0], g[0], h[0]) == (0, 2, 1 << B)  # UDUD, UUDD; UUDR with one red
    assert (f[2], g[2], h[2]) == (1, 0, 0)
    dual = dp_table(DUAL, 2)
    assert dual.classes == ("a", "b", "c")
    B = dual.bits
    # length 2 at levels 0, 2: ud (a blue step never meets a down step); uu, Bu; uB, BB
    assert dual.entries[2] == ((0, 1 + (1 << B)), (1, 0), (0, (1 << B) + (1 << 2 * B)))
    assert len(dual.entries) == 3  # lengths 0, 1, 2
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
        table = bumped(dp_table(family, 8), *key, 0)
        got = [(c.name, c.detail) for c in check_recursions(table) if not c.ok]
        assert got == [(name, f"first mismatch at {at}") for name, at in failures], key


def test_unknown_family():
    with pytest.raises(ValueError):
        dp_table("nonsense", 4)
    with pytest.raises(ValueError, match="unknown family 'nonsense'"):
        check_recursions(CountTable("nonsense", 3, ()))


@pytest.mark.parametrize("change", ["add", "entries", "column"])
@pytest.mark.parametrize("family", FAMILIES)
def test_cached_tables_are_owned_by_the_caller(family, change):
    """The cached table is shared, so no caller may change what the next
    one gets: every route to a change fails or builds a new table."""
    table = dp_table(family, 8)
    if change == "add":
        assert not hasattr(table, "add") and not hasattr(table, "copy")
        changed = bumped(table, 4, 0, table.classes[1], 0)
        assert changed != table and changed.entries is not table.entries
    elif change == "entries":
        for name in ("family", "max_length", "entries", "classes", "bits", "anything"):
            with pytest.raises(AttributeError):
                setattr(table, name, None)
    else:  # the columns are tuples too
        with pytest.raises(TypeError):
            table.entries[4][0][0] += 1
    again = dp_table(family, 8)
    assert again.entries == dp._build_table(family, 8, True).entries
    assert again is table  # the cached table itself, unchanged


@pytest.mark.parametrize("family", FAMILIES)
def test_a_table_is_a_shared_value(family):
    for marker in (True, False):
        for n in range(dp._CACHED_MAX_LENGTH + 1):
            table = dp_table(family, n, marker)
            assert dp_table(family, n, marker) is table, (n, marker)  # the cached table itself
            assert table == dp._build_table(family, n, marker), (n, marker)
    brute = count_table(family, 12)
    assert brute == dp_table(family, 12) and hash(brute) == hash(dp_table(family, 12))
    assert dp_table(family, 12, True) != dp_table(family, 12, False)
    cls = brute.classes[1]
    assert bumped(brute, 4, 0, cls, 0) != brute and bumped(bumped(brute, 4, 0, cls, 0), 4, 0, cls, 0, -1) == brute
    assert repr(brute) == f"CountTable(family={family!r}, max_length=12)"


@pytest.mark.parametrize("args, message", [
    ((BOUNDED, [3]), "max_length must be an int, got [3]"),
    ((BOUNDED, True), "max_length must be an int, got True"),
    ((BOUNDED, -1), "max_length must be >= 0, got -1"),
    (("nonsense", 4), "unknown family 'nonsense'"),
    (([BOUNDED], 4), "unknown family ['bounded']"),
])
def test_bad_arguments_are_rejected_before_the_cache(args, message):
    before = dp._cached_table.cache_info()
    with pytest.raises(ValueError, match=re.escape(message)):
        dp_table(*args)
    assert dp._cached_table.cache_info() == before


def test_equal_arguments_share_one_entry():
    dp._cached_table.cache_clear()
    dp_table(BOUNDED, 5)
    dp_table(BOUNDED, max_length=5)
    dp_table(BOUNDED, 5, with_color_marker=1)
    dp_table(family=BOUNDED, max_length=5, with_color_marker=True)
    info = dp._cached_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)


def test_cache_is_bounded():
    info = dp._cached_table.cache_info
    for n in range(info().maxsize + 3):
        dp_table(DUAL, n, with_color_marker=False)
    assert info().currsize <= info().maxsize
    dp._cached_table.cache_clear()
    top = dp._CACHED_MAX_LENGTH
    dp_table(DUAL, top + 1, with_color_marker=False)  # longer than the cap: not kept
    assert info().currsize == 0
    dp_table(DUAL, top, with_color_marker=False)
    assert info().currsize == 1


@pytest.mark.parametrize("marker", [True, False])
@pytest.mark.parametrize("family", FAMILIES)
def test_cached_and_uncached_builds_agree(family, marker):
    for n in range(41):
        fresh = dp._build_table(family, n, marker).entries
        assert dp_table(family, n, marker).entries == fresh, n  # a miss
        assert dp_table(family, n, marker).entries == fresh, n  # a hit


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

