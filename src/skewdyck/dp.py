"""Step-by-step dynamic programming over (level, last-step class).

A direct executable transcription of the state diagrams: the DP iterates
forward over the number of steps taken, which is polynomial in the target
length, and :func:`check_recursions` then validates the level-coupled
recursions (which on their own are identities, not an algorithm) against the
finished table.  The recursions are one rule table, ``_RECURSIONS``, copied
from the paper per family; one loop reads it for the table's own family
and length.
"""

from .paths import CountTable, family_spec
from .series import compare


def dp_table(family, max_length, with_color_marker=True):
    """Same semantics as brute-force ``count_table`` but polynomial cost.

    With ``with_color_marker`` the table is refined by the colored-edge
    count k (entries are w-polynomials via ``CountTable.wpoly``); without
    it all counts are lumped at k=0.

    The state after n steps maps each level to ``{class: packed}``, which
    is exactly the table's (n, level) row: the counts of every colour
    count k in one int, digit k in base 2^B with B = ``table.bits`` (see
    :class:`~skewdyck.paths.CountTable`; counts stay below 2^B, so digits
    never carry).  A coloured step shifts by B (by 0 without the marker),
    and states that meet are merged by int addition.
    """
    spec = family_spec(family)
    table = CountTable(family, max_length)
    shift = table.bits if with_color_marker else 0
    # the allowed moves out of each class, named after the step into it:
    # (level increment, class reached, shift); the seed (empty-path) class
    # is the up class, so this also covers the start state
    moves = {
        cls: tuple(
            (spec.incr[s], cls_s, shift if s == spec.colored else 0)
            for s, cls_s in zip(spec.steps, spec.classes)
            if (prev, s) not in spec.forbidden
        )
        for prev, cls in zip(spec.steps, spec.classes)
    }

    state = {0: {spec.empty_class: 1}}
    for n in range(max_length + 1):
        for level, row in state.items():
            table.entries[n, level] = row
        if n == max_length:
            break
        nxt = {}
        for level, row in state.items():
            for cls, v in row.items():
                for incr, cls_s, by in moves[cls]:
                    nl = level + incr
                    if spec.floor and nl < 0:
                        continue
                    out = nxt.setdefault(nl, {})
                    out[cls_s] = out.get(cls_s, 0) + (v << by)
        state = nxt
    return table


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
