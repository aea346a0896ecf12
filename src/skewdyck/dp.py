"""Step-by-step dynamic programming over (level, last-step class).

A direct executable transcription of the state diagrams: the DP iterates
forward over the number of steps taken, which is polynomial in the target
length, one whole column of levels per last-step class at a time.
:func:`check_recursions` then validates the level-coupled recursions
(which on their own are identities, not an algorithm) against the finished
table.  The recursions are one rule table, ``_RECURSIONS``, copied from the
paper per family; one loop reads it for the table's own family and length.
"""

from itertools import repeat
from operator import add, lshift

from .paths import CountTable, _check_length, _digit_bits, family_spec
from .series import bounded_cache, compare


def _sum_plan(into):
    """How one DP step sums, per class, the columns of the classes it may
    follow (the position lists of ``into``), so that a shared part is
    added once.

    Returns (class, start, rest, keep) per class, in the order the step
    computes them: the sum starts from part ``start`` and adds the parts
    ``rest``, where part i < K is column i and part K + c the sum into
    class c, kept (``keep``) when a later sum starts from it.  A class
    whose predecessor set contains another's starts from that sum, the
    largest such, so the smaller sets come first.
    """
    K = len(into)
    preds = [frozenset(p) for _, _, p in into]
    order = sorted(range(K), key=lambda c: len(preds[c]))
    plan = []
    for t, c in enumerate(order):
        inside = [b for b in order[:t] if preds[b] <= preds[c]]
        if inside:
            b = max(inside, key=lambda b: len(preds[b]))
            start, rest = K + b, sorted(preds[c] - preds[b])
        else:
            start, *rest = sorted(preds[c])
        plan.append((c, start, rest))
    starts = {start for _, start, _ in plan}
    return [(c, start, rest, K + c in starts) for c, start, rest in plan]


# Tables up to this length are cached; the README states what the cache
# holds at most.
_CACHED_MAX_LENGTH = 96


def dp_table(family, max_length, with_color_marker=True):
    """Same semantics as brute-force ``count_table`` but polynomial cost.

    With ``with_color_marker`` the table is refined by the colored-edge
    count k (entries are w-polynomials via ``CountTable.wpoly``); without
    it all counts are lumped at k=0.

    The state after n steps is one tuple column per class
    (``spec.classes`` order) whose index i holds the paths ending in that
    class at level lo + 2i, lo = -n (n mod 2 for the floored families):
    exactly the table's entry for length n (see
    :class:`~skewdyck.paths.CountTable`), so the table stores each step's
    columns as they are.  A step sums, per
    class, the columns of the classes its step may follow, starting from
    another class's sum where that one's predecessors are a subset
    (``_sum_plan``); it shifts by B = ``table.bits`` for the coloured step
    (by 0 without the marker), pads at the bottom for an up step or the
    top for a down step, and a floored family drops the row that fell
    below the axis.

    Tables up to length ``_CACHED_MAX_LENGTH`` come from a cache of the 4
    last used, keyed by (family, max_length, with_color_marker) after the
    arguments are checked; a longer table is built for this call alone.  A
    table is an immutable value, so every caller of one key shares the
    cached table itself.
    """
    name = family_spec(family).name
    _check_length("max_length", max_length, cap=None)
    return _cached_table(name, int(max_length), bool(with_color_marker))


def _build_table(family, max_length, with_color_marker):
    """The DP of :func:`dp_table`, on checked arguments, uncached."""
    spec = family_spec(family)
    shift = _digit_bits(max_length) if with_color_marker else 0
    # the step into each class: (level increment, shift, the positions of
    # the classes it may follow); the empty path is in the up class
    into = [
        (spec.incr[s], shift if s == spec.colored else 0,
         [i for i, prev in enumerate(spec.steps) if (prev, s) not in spec.forbidden])
        for s in spec.steps
    ]
    plan = _sum_plan(into)
    columns = [(int(cls == spec.empty_class),) for cls in spec.classes]
    entries = []
    for n in range(max_length + 1):
        entries.append(tuple(columns))
        if n == max_length:
            break
        parts = columns + [None] * len(columns)
        nxt = [None] * len(columns)
        for c, start, rest, keep in plan:
            total = parts[start]
            for i in rest:
                total = map(add, total, parts[i])
            if keep:
                total = parts[len(columns) + c] = tuple(total)
            incr, by, _ = into[c]
            if by:
                total = map(lshift, total, repeat(by))
            nxt[c] = (0, *total) if incr > 0 else (*total, 0)
        columns = [col[1:] for col in nxt] if spec.floor and n % 2 == 0 else nxt
    return CountTable(family, max_length, tuple(entries))


_cached_table = bounded_cache(4, lambda family, n, marker: n <= _CACHED_MAX_LENGTH)(_build_table)


# The paper's level-coupled recursions per family, for a table of length L:
# (below, seeds, rules).  i runs over 0..L-1, or over -L..L-1 when below.
# A seed (c, j, v) states c_j = v.  A rule (c, d, terms, unit, trim) states
#     c_{i+d} = [i=0] + z c'_{i+d'} + ...   over the (c', d') in terms,
# with the [i=0] only when unit, compared at z^0..z^(L-trim).  Copied from
# the paper, not derived from the DP's moves, so that they stay an oracle
# for the DP.
_RECURSIONS = {
    "bounded": (False, (("f", 0, 1),), (
        ("f", 1, (("f", 0), ("g", 0)), False, 0),
        ("g", 0, (("f", 1), ("g", 1), ("h", 1)), False, 1),
        ("h", 0, (("h", 1), ("g", 1)), False, 1),
    )),
    "dual": (False, (("a", 0, 1), ("c", 0, 0)), (
        ("a", 1, (("a", 0), ("b", 0), ("c", 0)), False, 0),
        ("b", 0, (("a", 1), ("b", 1)), False, 1),
        ("c", 1, (("a", 0), ("c", 0)), False, 0),
    )),
    "unbounded": (True, (), (
        ("f", 0, (("f", -1), ("g", -1)), True, 0),
        ("g", 0, (("f", 1), ("g", 1), ("h", 1)), False, 1),
        ("h", 0, (("g", 1), ("h", 1)), False, 1),
    )),
}
_AT_Z = "first mismatch at z^%s: %s != %s"


def check_recursions(table):
    """Verify the level-coupled recursions coefficientwise on the table.

    The family and the length L are the table's own.  Returns one
    :class:`~skewdyck.series.Check` per recursion instance, 1 + 3L for
    bounded, 2 + 3L for dual and 6L for unbounded; a violation is report
    content, not an exception.
    """
    below, seeds, rules = _RECURSIONS[table.family]
    top = table.max_length
    arrays = {}  # (class, level) -> coefficients of z^0..z^L, read once

    def arr(cls, level):
        if (cls, level) not in arrays:
            arrays[cls, level] = table.coefficients(level, cls=cls)
        return arrays[cls, level]

    checks = [
        compare(f"{c}_{j} = {v}", zip(range(top + 1), arr(c, j), [v] + [0] * top), fmt=_AT_Z)
        for c, j, v in seeds
    ]
    for i in range(-top if below else 0, top):
        for c, d, terms, unit, trim in rules:
            rhs = [int(unit and i == 0)]
            rhs += [sum(col) for col in zip(*(arr(t, i + e) for t, e in terms))]
            name = f"{c}_{i + d} = " + "[i=0] + " * unit
            name += " + ".join(f"z {t}_{i + e}" for t, e in terms)
            checks.append(compare(name, zip(range(top - trim + 1), arr(c, i + d), rhs), fmt=_AT_Z))
    return checks
