"""Brute-force enumeration of skew Dyck path families.

Ground truth for everything else in the package: words over typed steps are
generated depth-first and counted one by one into exact count tables
refined by length, end level, last-step class and colored-edge count.  Both
enumerators walk one rule table (``_successors``), read off the family's
increments and forbidden adjacent pairs: the steps that may follow each
step, in canonical order.  A step is taken when the level stays at or above
the family's floor.  ``is_valid`` reads the same rules literally, word by
word, so it judges words that the walks did not make.

Families:

* ``bounded``   - up / down-black / down-red steps, level >= 0 everywhere,
                  the pairs (up, red) and (red, up) forbidden.
* ``dual``      - up-black / up-blue / down steps, level >= 0 everywhere,
                  the pairs (down, blue) and (blue, down) forbidden.
* ``unbounded`` - same steps and rules as ``bounded`` but the level may go
                  negative.  No word starts with a red step: the empty path
                  stands after an up step, and (up, red) is forbidden.  That
                  is why the axis counts run 1, 2, 7, 29, ...

Last-step classes are named after the step that leads into a state:
``f``/``g``/``h`` = up / down-black / down-red for the primal families,
``a``/``b``/``c`` = up-black / down / up-blue for the dual family.  The
empty path sits in the ``f`` (resp. ``a``) class, consistent with the seed
of the level recursions.
"""

from .series import Record, WPoly, check_int

BRUTE_FORCE_CAP = 16

BOUNDED = "bounded"
DUAL = "dual"
UNBOUNDED = "unbounded"

FAMILIES = (BOUNDED, DUAL, UNBOUNDED)

# step letters, in canonical (lexicographic generation) order
_PRIMAL_STEPS = ("U", "D", "R")  # up, down-black, down-red
_DUAL_STEPS = ("u", "d", "B")  # up-black, down, up-blue


class FamilySpec(Record):
    """The steps and rules of one family:

    * ``steps``: step letters, in canonical order;
    * ``incr``: step -> level increment;
    * ``forbidden``: the forbidden adjacent (prev, next) pairs;
    * ``classes``: class label per step, same order as ``steps``;
    * ``empty_class``: the class of the empty path;
    * ``colored``: the marked step (red / blue);
    * ``floor``: whether prefix levels must stay >= 0.
    """

    _fields = ("name", "steps", "incr", "forbidden", "classes", "empty_class", "colored", "floor")
    __slots__ = _fields

    def __init__(self, name, steps, incr, forbidden, classes, empty_class, colored, floor):
        self._set(name, steps, incr, forbidden, classes, empty_class, colored, floor)


_SPECS = {
    BOUNDED: FamilySpec(
        name=BOUNDED,
        steps=_PRIMAL_STEPS,
        incr={"U": 1, "D": -1, "R": -1},
        forbidden=frozenset({("U", "R"), ("R", "U")}),
        classes=("f", "g", "h"),
        empty_class="f",
        colored="R",
        floor=True,
    ),
    DUAL: FamilySpec(
        name=DUAL,
        steps=_DUAL_STEPS,
        incr={"u": 1, "d": -1, "B": 1},
        forbidden=frozenset({("d", "B"), ("B", "d")}),
        classes=("a", "b", "c"),
        empty_class="a",
        colored="B",
        floor=True,
    ),
    UNBOUNDED: FamilySpec(
        name=UNBOUNDED,
        steps=_PRIMAL_STEPS,
        incr={"U": 1, "D": -1, "R": -1},
        forbidden=frozenset({("U", "R"), ("R", "U")}),
        classes=("f", "g", "h"),
        empty_class="f",
        colored="R",
        floor=False,
    ),
}


def family_spec(family):
    try:
        return _SPECS[family]
    except (KeyError, TypeError):  # TypeError: an unhashable family
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


class PathWord(Record):
    """A finite sequence of typed steps, kept as a tuple, in one of the three families."""

    _fields = ("steps", "family")
    __slots__ = _fields

    def __init__(self, steps, family):
        spec = family_spec(family)
        steps = tuple(steps)
        for s in steps:
            if s not in spec.steps:
                raise ValueError(f"step {s!r} not in family {family}")
        self._set(steps, family)

    @classmethod
    def _unchecked(cls, steps, family):
        """A word made without the step check, for steps taken from the
        family's own rule table (``enumerate_paths``)."""
        word = object.__new__(cls)
        word._set(steps, family)
        return word

    def __len__(self):
        return len(self.steps)

    @property
    def end_level(self):
        spec = family_spec(self.family)
        return sum(spec.incr[s] for s in self.steps)

    def word(self):
        return "".join(self.steps)


def _word_spec(word):
    """The :class:`FamilySpec` of ``word``, which must be a :class:`PathWord`."""
    if not isinstance(word, PathWord):
        raise ValueError(f"expected a PathWord, got {word!r}")
    return family_spec(word.family)


def is_valid(word):
    """Check the forbidden-adjacency rules and (where required) the level floor.

    The empty path lives in the up-step layer, so the adjacency rules treat
    the start of a word as if an up step preceded it.  This only bites for
    the unbounded family (an initial red step is excluded, matching the
    state diagram's seed); in the floored families an initial red step is
    already below the axis.
    """
    spec = _word_spec(word)
    level = 0
    prev = spec.steps[0]
    for s in word.steps:
        if (prev, s) in spec.forbidden:
            return False
        level += spec.incr[s]
        if spec.floor and level < 0:
            return False
        prev = s
    return True


def _check_length(name, n, cap=BRUTE_FORCE_CAP):
    """Reject a length, named ``name``, that is not an int
    (:func:`~skewdyck.series.check_int`), is negative or is above ``cap``
    (None for no cap)."""
    check_int(name, n)
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")
    if cap is not None and n > cap:
        raise ValueError(f"length {n} exceeds the brute-force cap {cap}")


def _successors(spec):
    """The adjacency rule as a table: for each step position p (in
    ``spec.steps`` order), the (position, level increment) of every step
    that may follow step p, in canonical order.  A walk starts after
    position 0, the up step the empty path stands in for."""
    return [
        tuple((i, spec.incr[s]) for i, s in enumerate(spec.steps) if (prev, s) not in spec.forbidden)
        for prev in spec.steps
    ]


def _lowest(spec, n):
    """The lowest level a prefix of a length-n word may reach."""
    return 0 if spec.floor else -n


def enumerate_paths(family, n, end_level=None):
    """All valid words of length n, in lexicographic step order; those that
    end at level ``end_level`` only, unless it is None."""
    _check_length("n", n)
    if end_level is not None:
        check_int("end_level", end_level)
    spec = family_spec(family)
    succ = _successors(spec)
    lowest = _lowest(spec, n)
    out = []
    steps = []

    def rec(level, prev, remaining):
        if remaining == 0:
            if end_level is None or level == end_level:
                out.append(PathWord._unchecked(tuple(steps), family))
            return
        for s, d in succ[prev]:
            nl = level + d
            if nl < lowest:
                continue
            if end_level is not None and abs(nl - end_level) > remaining - 1:
                continue
            steps.append(spec.steps[s])
            rec(nl, s, remaining - 1)
            steps.pop()

    rec(0, 0, n)
    return out


def _levels(floor, n):
    """The end levels a length-n path may reach, lo(n), lo(n) + 2, ..., n,
    with lo(n) = n mod 2 for a floored family and -n otherwise."""
    return range(n % 2 if floor else -n, n + 1, 2)


def _digit_bits(max_length):
    """B, the bits of one colour digit in a table of length ``max_length``."""
    return (3**max_length).bit_length() + 1


class CountTable(Record):
    """Exact counts indexed by (length, end level, last-step class, color count).

    An immutable value, built whole by :func:`count_table` or
    :func:`~skewdyck.dp.dp_table` and never changed, so a cached table is
    shared by every caller.  Two tables compare equal when their
    ``family``, ``max_length`` and ``entries`` are equal, that is, when they
    agree at every (n, j, cls, k).

    ``count(n, j, cls=None, k=None)`` sums over any index passed as None.
    A lookup raises ``ValueError`` for a ``cls`` not among ``classes`` (the
    family's), for a non-int n, j or k, and for n outside 0..max_length; a
    level no path reaches counts 0.

    Layout: ``entries[n]``, for n = 0..max_length, is a tuple with one
    column per class, in ``classes`` order.  A column is a tuple that
    holds, at index i, the count at level lo(n) + 2i, for the levels of
    :meth:`levels`: lo(n) = n mod 2 for the floored families and -n for
    the unbounded one, up to n.  Entries of another shape raise
    ``ValueError``.  Each count packs the counts of every
    colour count k, count k being digit k in base 2^B (Kronecker
    substitution).  B = ``bits`` = bit_length(3^N) + 1 depends on
    ``max_length`` N alone, so two tables of one length share it.

    The builders' guarantee that makes the packing exact: the total of a
    cell (n, j), over classes and colour counts, is at most 3^N, since it
    counts paths of one length n <= N, of which there are at most 3^n.  No
    lookup checks it.  So a digit never carries into the next, the sum of
    the packed values of several classes is the packed sum of their
    counts, and a total is its packed value mod 2^B - 1 (2^B is 1 mod
    2^B - 1, and the digit sum, at most 3^N, is below 2^B - 1).  Every
    lookup makes one indexed read of ``entries`` and unpacks only what it
    returns.
    """

    _fields = ("family", "max_length", "entries")
    __slots__ = _fields + ("classes", "bits", "_mask", "_floor")

    def __init__(self, family, max_length, entries):
        spec = family_spec(family)
        _check_length("max_length", max_length, cap=None)
        if len(entries) != max_length + 1:
            need = max_length + 1
            raise ValueError(f"max_length {max_length} needs {need} entries, got {len(entries)}")
        for n, columns in enumerate(entries):
            width = len(_levels(spec.floor, n))
            if len(columns) != len(spec.classes) or any(len(col) != width for col in columns):
                raise ValueError(f"entries[{n}] needs {len(spec.classes)} columns of {width} counts")
        self._set(family, max_length, entries)
        bits = _digit_bits(max_length)
        for name, value in (("classes", spec.classes), ("bits", bits), ("_mask", (1 << bits) - 1),
                            ("_floor", spec.floor)):
            object.__setattr__(self, name, value)

    def __repr__(self):
        return f"CountTable(family={self.family!r}, max_length={self.max_length})"

    def levels(self, n):
        """The end levels a length-n path may reach: the levels of the
        columns at length n."""
        return _levels(self._floor, n)

    def _position(self, cls):
        if cls not in self.classes:
            raise ValueError(f"unknown class {cls!r}; expected one of {self.classes}")
        return self.classes.index(cls)

    def _packed(self, n, j, cls):
        i = None if cls is None else self._position(cls)
        check_int("n", n)
        if not 0 <= n <= self.max_length:
            raise ValueError(f"n must be an int in 0..{self.max_length}, got {n!r}")
        check_int("j", j)
        levels = _levels(self._floor, n)
        if j not in levels:
            return 0
        at = levels.index(j)
        columns = self.entries[n]
        return sum([col[at] for col in columns]) if i is None else columns[i][at]

    def _digit(self, packed, k):
        return (packed >> (k * self.bits)) & self._mask

    def _digits(self, packed):
        mask = self._mask
        out = []
        while packed:
            out.append(packed & mask)
            packed >>= self.bits
        return out

    def count(self, n, j, cls=None, k=None):
        packed = self._packed(n, j, cls)
        if k is None:
            return packed % self._mask  # the digit sum (see the class docstring)
        check_int("k", k)
        return self._digit(packed, k) if k >= 0 else 0

    def wpoly(self, n, j, cls=None):
        """Counts at (n, j) as a polynomial in the color marker w."""
        return WPoly._trusted(self._digits(self._packed(n, j, cls)))

    def coefficients(self, j, cls=None, k=None):
        """[count(0, j), count(1, j), ...] up to max_length."""
        return [self.count(n, j, cls=cls, k=k) for n in range(self.max_length + 1)]

    def counts(self):
        """Every nonzero count, as ``{(n, j, cls, k): count}``."""
        out = {}
        for n, columns in enumerate(self.entries):
            for cls, column in zip(self.classes, columns):
                for j, packed in zip(self.levels(n), column):
                    for k, c in enumerate(self._digits(packed)):
                        if c:
                            out[n, j, cls, k] = c
        return out


def count_table(family, max_length):
    """Full refined table from depth-first enumeration (no words stored).

    Every valid word of length <= ``max_length`` is visited once and adds
    one to a flat tally with a slot per (n, level, k, class).  A visit
    carries the word's slot, level and last step.  The successor table of
    that step (``_successors``) gives each next step's level increment and
    the slot offset it moves by, so extending a word is one addition and
    one floor test, level >= lowest.  The words of the last two lengths are
    tallied in their parent's loop instead of in a call each.  There is no
    memo and no two words share a visit: each tally write is one word.
    The table is built whole from the tally, in the layout ``dp_table``
    builds: per length n, one tuple column of packed ints per class over
    the levels ``CountTable.levels(n)``.
    """
    _check_length("max_length", max_length)
    spec = family_spec(family)
    lowest = _lowest(spec, max_length)
    # slot = ((n * levels + level - lowest) * (max_length + 1) + k) * n_cls + class, with
    # levels = max_length + 1 - lowest and a class the position of its step in spec.steps
    n_cls = len(spec.classes)
    level_stride = n_cls * (max_length + 1)
    n_stride = level_stride * (max_length + 1 - lowest)
    succ = [
        tuple(
            (s, d, n_stride + d * level_stride + (spec.steps[s] == spec.colored) * n_cls + s - prev)
            for s, d in after
        )
        for prev, after in enumerate(_successors(spec))
    ]
    tally = [0] * (n_stride * (max_length + 1))

    def walk(slot, level, prev, left):
        """Tally the word at ``slot`` and each of its extensions by 1..left steps."""
        tally[slot] += 1
        if left > 2:
            for s, d, move in succ[prev]:
                if level + d >= lowest:
                    walk(slot + move, level + d, s, left - 1)
        elif left:
            for s, d, move in succ[prev]:
                level1 = level + d
                if level1 >= lowest:
                    slot1 = slot + move
                    tally[slot1] += 1
                    if left == 2:
                        for _, d2, move2 in succ[s]:
                            if level1 + d2 >= lowest:
                                tally[slot1 + move2] += 1

    # the empty word: level 0, after step 0 and in its class, ``spec.empty_class``
    walk(-lowest * level_stride, 0, 0, max_length)

    bits = _digit_bits(max_length)  # every count is below 3^N < 2^bits, so it packs as a digit
    entries = []
    for n in range(max_length + 1):
        starts = (n * n_stride + (j - lowest) * level_stride for j in _levels(spec.floor, n))
        blocks = [tally[b:b + level_stride] for b in starts]
        entries.append(tuple(
            tuple([sum(c << k * bits for k, c in enumerate(block[i::n_cls])) for block in blocks])
            for i in range(n_cls)
        ))
    return CountTable(family, max_length, tuple(entries))


_GLYPHS = {"U": "/", "D": "\\", "R": "r", "u": "/", "B": "b", "d": "\\"}


def render_ascii(word):
    """Deterministic grid rendering, the axis line at level 0 (edges below
    it are drawn under it); colored steps get their own glyph."""
    spec = _word_spec(word)
    levels = [0]
    for s in word.steps:
        levels.append(levels[-1] + spec.incr[s])
    lo, hi = min(levels), max(levels)
    if not word.steps:
        return "-"
    height = hi - lo
    grid = [[" "] * len(word.steps) for _ in range(max(height, 1))]
    for i, s in enumerate(word.steps):
        row_level = max(levels[i], levels[i + 1])  # the cell the edge occupies
        row = hi - row_level
        grid[row][i] = _GLYPHS[s]
    lines = ["".join(r).rstrip() for r in grid]
    lines.insert(hi, "-" * len(word.steps))
    return "\n".join(lines)


def reverse_dual(word):
    """Reversal duality: a bounded primal word ending at level 0 maps to a
    dual word by reversing and swapping step roles (U<->d, D<->u, R->B)."""
    if _word_spec(word).name != BOUNDED:
        raise ValueError("reverse_dual expects a bounded primal word")
    swap = {"U": "d", "D": "u", "R": "B"}
    return PathWord(tuple(swap[s] for s in reversed(word.steps)), DUAL)
