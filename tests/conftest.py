import pytest

from skewdyck.paths import BOUNDED, DUAL, UNBOUNDED, CountTable, count_table

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
