import pytest

from skewdyck.paths import BOUNDED, DUAL, UNBOUNDED, CountTable, count_table, family_spec
from skewdyck.genfunc import dual_blue_g0
from skewdyck.series import WPOLY, W_VAR, NonUnitError, Series, _divide_exactly, shift_up

BRUTE_LENGTH = 14


@pytest.fixture(scope="session")
def brute_tables():
    """Brute-force count tables at the reference length, shared across tests."""
    return {fam: count_table(fam, BRUTE_LENGTH) for fam in (BOUNDED, DUAL, UNBOUNDED)}


def bumped(table, n, j, cls, k, by=1):
    """A fault to inject: a table equal to ``table`` except that the count
    at (n, j, cls, k) moves by ``by``, +1 or -1.  A table never changes, so
    this builds a new one."""
    assert by in (1, -1)
    i, at = table.classes.index(cls), table.levels(n).index(j)
    columns = list(table.entries[n])
    column = list(columns[i])
    column[at] += by << (k * table.bits)
    columns[i] = tuple(column)
    entries = table.entries[:n] + (tuple(columns),) + table.entries[n + 1:]
    return CountTable(table.family, table.max_length, entries)


# -- oracles and helpers that only the tests read ------------------------------


def sqrt_one(a):
    """Square root with constant term 1, by the O(N^2) generic recurrence:
    the oracle for the kernel roots, which the library builds from
    ``quadratic_power``.  a(0) must be 1 exactly, else NonUnitError; a
    coefficient that is not integral raises ExactnessError."""
    if a.coeffs[0] != 1:
        raise NonUnitError("sqrt_one requires constant term exactly 1")
    out = [a.coeffs[0]]
    for k in range(1, a.order + 1):
        acc = a.coeffs[k]
        for i in range(1, k):
            acc = acc - out[i] * out[k - i]
        out.append(_divide_exactly(acc, 2))
    return Series(out, a.ring)


def red_root(order):
    """W_w to z^order, read from the series that builds it: with
    G = dual_blue_g0 = (1 - wz^2 - W_w)/(2z^2), W_w = 1 - wz^2 - 2z^2 G."""
    g2 = shift_up(dual_blue_g0(order), 2)
    return Series.from_dict({0: 1, 2: -W_VAR}, order, WPOLY) - g2 - g2


def w_slice(s, k):
    """The integer series of [w^k] of a w-ring series, coefficientwise."""
    assert s.ring == WPOLY
    return Series([c.coeff(k) for c in s.coeffs])


def last_class(word):
    """The class of a path word's last step; the empty word's is its
    family's empty class."""
    spec = family_spec(word.family)
    return spec.classes[spec.steps.index(word.steps[-1])] if word.steps else spec.empty_class


def colored_count(word):
    """The number of colored (red or blue) steps of a path word."""
    return word.steps.count(family_spec(word.family).colored)
