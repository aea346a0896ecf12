"""Tests for the state-diagram dynamic programming route."""

import pytest

from skewdyck.dp import check_recursions, dp_table
from skewdyck.paths import BOUNDED, DUAL, FAMILIES, UNBOUNDED, count_table


@pytest.mark.parametrize("family", FAMILIES)
def test_dp_matches_brute_force_refined(family):
    n = 10
    brute = count_table(family, n)
    table = dp_table(family, n)
    assert brute.entries == table.entries


@pytest.mark.parametrize("family", FAMILIES)
def test_dp_without_marker_lumps_counts(family):
    n = 8
    refined = dp_table(family, n, with_color_marker=True)
    lumped = dp_table(family, n, with_color_marker=False)
    for length in range(n + 1):
        for j in range(-length, length + 1):
            assert refined.count(length, j) == lumped.count(length, j)
            assert lumped.count(length, j, k=0) == lumped.count(length, j)


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


@pytest.mark.parametrize("family", FAMILIES)
def test_recursion_identities_hold(family):
    n = 10
    table = dp_table(family, n)
    checks = check_recursions(family, table, n)
    failures = [c for c in checks if not c.ok]
    assert not failures, failures
    assert len(checks) > 3


def test_recursion_checker_flags_corruption():
    n = 8
    table = dp_table(BOUNDED, n)
    table.entries[(4, 0, "g", 0)] += 1
    checks = check_recursions(BOUNDED, table, n)
    assert any(not c.ok for c in checks)


def test_unknown_family():
    with pytest.raises(ValueError):
        dp_table("nonsense", 4)
