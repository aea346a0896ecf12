"""Step-by-step dynamic programming over (level, last-step class).

A direct executable transcription of the state diagrams: the DP iterates
forward over the number of steps taken, which is polynomial in the target
length, and :func:`check_recursions` then validates the level-coupled
recursions (which on their own are identities, not an algorithm) against the
finished table.
"""

from .paths import CountTable, family_spec
from .series import Check, first_mismatch


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


def _arrays(table, cls, levels, max_length):
    return {
        j: [table.count(n, j, cls=cls) for n in range(max_length + 1)]
        for j in levels
    }


def check_recursions(family, table, max_length):
    """Verify the level-coupled recursions coefficientwise on the table.

    Returns one :class:`~skewdyck.series.Check` per recursion instance; a
    violation is report content, not an exception.
    """
    eqs = []  # (name, lhs, rhs, highest power of z compared)

    def shift(arr):  # multiply a coefficient array by z
        return [0] + arr[:-1]

    def addv(*arrays):
        return [sum(vals) for vals in zip(*arrays)]

    if family in ("bounded",):
        levels = range(0, max_length + 2)
        f = _arrays(table, "f", levels, max_length)
        g = _arrays(table, "g", levels, max_length)
        h = _arrays(table, "h", levels, max_length)
        seed = [1] + [0] * max_length
        eqs.append(("f_0 = 1", f[0], seed, max_length))
        for i in range(0, max_length):
            eqs += [
                (
                    f"f_{i + 1} = z f_{i} + z g_{i}",
                    f[i + 1],
                    addv(shift(f[i]), shift(g[i])),
                    max_length,
                ),
                (
                    f"g_{i} = z f_{i + 1} + z g_{i + 1} + z h_{i + 1}",
                    g[i],
                    addv(shift(f[i + 1]), shift(g[i + 1]), shift(h[i + 1])),
                    max_length - 1,
                ),
                (
                    f"h_{i} = z h_{i + 1} + z g_{i + 1}",
                    h[i],
                    addv(shift(h[i + 1]), shift(g[i + 1])),
                    max_length - 1,
                ),
            ]
    elif family == "dual":
        levels = range(0, max_length + 2)
        a = _arrays(table, "a", levels, max_length)
        b = _arrays(table, "b", levels, max_length)
        c = _arrays(table, "c", levels, max_length)
        seed = [1] + [0] * max_length
        eqs.append(("a_0 = 1", a[0], seed, max_length))
        eqs.append(("c_0 = 0", c[0], [0] * (max_length + 1), max_length))
        for i in range(0, max_length):
            eqs += [
                (
                    f"a_{i + 1} = z a_{i} + z b_{i} + z c_{i}",
                    a[i + 1],
                    addv(shift(a[i]), shift(b[i]), shift(c[i])),
                    max_length,
                ),
                (
                    f"b_{i} = z a_{i + 1} + z b_{i + 1}",
                    b[i],
                    addv(shift(a[i + 1]), shift(b[i + 1])),
                    max_length - 1,
                ),
                (
                    f"c_{i + 1} = z a_{i} + z c_{i}",
                    c[i + 1],
                    addv(shift(a[i]), shift(c[i])),
                    max_length,
                ),
            ]
    elif family == "unbounded":
        levels = range(-max_length - 1, max_length + 2)
        f = _arrays(table, "f", levels, max_length)
        g = _arrays(table, "g", levels, max_length)
        h = _arrays(table, "h", levels, max_length)
        for i in range(-max_length, max_length):
            seed = [1 if (i == 0 and n == 0) else 0 for n in range(max_length + 1)]
            eqs += [
                (
                    f"f_{i} = [i=0] + z f_{i - 1} + z g_{i - 1}",
                    f[i],
                    addv(seed, shift(f[i - 1]), shift(g[i - 1])),
                    max_length,
                ),
                (
                    f"g_{i} = z f_{i + 1} + z g_{i + 1} + z h_{i + 1}",
                    g[i],
                    addv(shift(f[i + 1]), shift(g[i + 1]), shift(h[i + 1])),
                    max_length - 1,
                ),
                (
                    f"h_{i} = z g_{i + 1} + z h_{i + 1}",
                    h[i],
                    addv(shift(g[i + 1]), shift(h[i + 1])),
                    max_length - 1,
                ),
            ]
    else:
        raise ValueError(f"unknown family {family!r}")
    checks = []
    for name, lhs, rhs, upto in eqs:
        bad = first_mismatch(zip(range(upto + 1), lhs, rhs))
        detail = "first mismatch at z^%s: %s != %s" % bad if bad else ""
        checks.append(Check(name, bad is None, detail))
    return checks
