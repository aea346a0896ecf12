"""Tests for the brute-force path enumeration oracle."""

import re
from collections import Counter
from itertools import product

import pytest

from conftest import colored_count, last_class
from skewdyck import formulas, genfunc
from skewdyck.dp import check_recursions, dp_table
from skewdyck.paths import (
    BOUNDED,
    DUAL,
    UNBOUNDED,
    CountTable,
    PathWord,
    count_table,
    enumerate_paths,
    family_spec,
    is_valid,
    render_ascii,
    reverse_dual,
)
from skewdyck.series import WPoly


def test_ten_paths_of_length_six():
    assert len(enumerate_paths(BOUNDED, 6, end_level=0)) == 10
    assert len(enumerate_paths(DUAL, 6, end_level=0)) == 10


def test_parity_empty():
    assert enumerate_paths(BOUNDED, 1, end_level=0) == []
    assert len(enumerate_paths(BOUNDED, 0, end_level=0)) == 1


def test_forbidden_adjacency():
    assert not is_valid(PathWord(("U", "R"), BOUNDED))
    assert not is_valid(PathWord(("U", "U", "R", "U"), UNBOUNDED))
    assert is_valid(PathWord(("U", "D", "R"), UNBOUNDED))
    assert not is_valid(PathWord(("d",), DUAL))  # floor
    assert not is_valid(PathWord(("u", "d", "B"), DUAL))
    assert is_valid(PathWord(("B", "u", "d", "d"), DUAL))


def test_initial_red_is_forbidden():
    # the empty path sits in the up-step class, so a word may not open
    # with a red step even when levels are unrestricted
    assert not is_valid(PathWord(("R",), UNBOUNDED))
    assert not is_valid(PathWord(("R", "D"), UNBOUNDED))
    assert is_valid(PathWord(("D", "R"), UNBOUNDED))


def test_unbounded_words_are_those_that_do_not_start_with_r():
    # every word over U, D and R with only UR and RU forbidden, tallied by
    # (length, end level, last-step class, red steps) without the family's
    # rule table: those that do not start with R are the unbounded family
    classes = {"U": "f", "D": "g", "R": "h"}
    tally, rest = Counter({(0, 0, "f", 0): 1}), Counter()
    words = [(None, None, 0, 0)]  # (first step, last step, level, red steps)
    for n in range(1, 13):
        words = [
            (first or s, s, level + (1 if s == "U" else -1), k + (s == "R"))
            for first, last, level, k in words
            for s in "UDR"
            if (last, s) not in {("U", "R"), ("R", "U")}
        ]
        for first, last, level, k in words:
            (rest if first == "R" else tally)[n, level, classes[last], k] += 1
    assert tally == count_table(UNBOUNDED, 12).counts()
    axis = [sum(c for (n, j, _, _), c in tally.items() if (n, j) == (2 * m, 0)) for m in range(5)]
    assert axis == [1, 2, 7, 29, 127]
    assert rest[1, -1, "h", 1] == 1  # the word R, which the family leaves out


def test_unknown_step_rejected():
    with pytest.raises(ValueError):
        PathWord(("x",), BOUNDED)


def test_path_word_record():
    w = PathWord(("U", "D"), BOUNDED)
    assert w == PathWord(steps=("U", "D"), family=BOUNDED)
    assert w != PathWord(("U", "D"), UNBOUNDED)
    assert w != PathWord(("U", "R"), BOUNDED)
    assert hash(w) == hash(PathWord(("U", "D"), BOUNDED))
    assert len(set(enumerate_paths(BOUNDED, 4) * 2)) == len(enumerate_paths(BOUNDED, 4))
    assert repr(w) == "PathWord(steps=('U', 'D'), family='bounded')"
    with pytest.raises(AttributeError):
        w.steps = ("U",)
    with pytest.raises(ValueError, match="step 'u' not in family bounded"):
        PathWord(("U", "u"), BOUNDED)


def test_family_spec_record():
    spec = family_spec(BOUNDED)
    assert spec.name == BOUNDED and spec.steps == ("U", "D", "R") and spec.floor
    unbounded = family_spec(UNBOUNDED)
    fields = ("steps", "incr", "forbidden", "classes", "empty_class", "colored")
    assert all(getattr(spec, f) == getattr(unbounded, f) for f in fields)
    assert spec != unbounded  # name and floor differ
    assert spec == type(spec)(BOUNDED, *(getattr(spec, f) for f in fields), floor=True)
    with pytest.raises(TypeError):  # incr is a dict
        hash(spec)
    assert repr(spec).startswith("FamilySpec(name='bounded', steps=('U', 'D', 'R'), incr={")
    with pytest.raises(AttributeError):
        spec.floor = False


def test_negative_lengths_rejected():
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        enumerate_paths(BOUNDED, -1)
    with pytest.raises(ValueError, match="max_length must be >= 0, got -1"):
        count_table(UNBOUNDED, -1)
    with pytest.raises(ValueError, match="max_length must be >= 0, got -1"):
        CountTable(DUAL, -1, ())


def test_non_int_lengths_rejected():
    with pytest.raises(ValueError, match="n must be an int, got 2.0"):
        enumerate_paths(BOUNDED, 2.0)
    with pytest.raises(ValueError, match="max_length must be an int, got 2.5"):
        count_table(BOUNDED, 2.5)
    with pytest.raises(ValueError, match="max_length must be an int, got 2.5"):
        CountTable(BOUNDED, 2.5, ())


def test_bool_lengths_rejected():
    # a bool is an int, but True is no length
    with pytest.raises(ValueError, match="^n must be an int, got True$"):
        enumerate_paths(BOUNDED, True)
    with pytest.raises(ValueError, match="^max_length must be an int, got False$"):
        count_table(BOUNDED, False)
    with pytest.raises(ValueError, match="^max_length must be an int, got True$"):
        CountTable(DUAL, True, ())
    with pytest.raises(ValueError, match="^max_length must be an int, got True$"):
        dp_table(UNBOUNDED, True)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: dp_table(BOUNDED, True), "max_length"),
        (lambda: enumerate_paths(BOUNDED, 4, end_level=True), "end_level"),
        (lambda: genfunc.kernel_bundle(True), "order"),
        (lambda: genfunc.primal_levels(0, True), "hi"),
        (lambda: formulas.primal_coeff_explicit(True, 1), "j"),
        (lambda: formulas.trinomial(True, 3, 0), "n"),
        (lambda: formulas.red_coeff_explicit(True), "n"),
        (lambda: dp_table(BOUNDED, 4).count(True, 0), "n"),
        (lambda: dp_table(BOUNDED, 4).wpoly(2, True), "j"),
        (lambda: dp_table(BOUNDED, 4).count(2, 0, k=True), "k"),
    ],
)
def test_a_bool_is_no_int(call, name):
    # one guard, series.check_int, for every entry point: True is no 1
    with pytest.raises(ValueError, match=f"^{name} must be an int, got True$"):
        call()


@pytest.mark.parametrize(
    "call",
    [genfunc.even_to_x, genfunc.substitution_identity_check, check_recursions],
    ids=lambda call: call.__name__,
)
@pytest.mark.parametrize("value", ["x", None, 3])
def test_readers_refuse_a_wrong_type(call, value):
    # a ValueError that names what was expected, not an AttributeError
    with pytest.raises(ValueError, match=r"^expected a (Series|CountTable), got "):
        call(value)


def test_count_table_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown family 'nonsense'"):
        CountTable("nonsense", 3, ())


def test_count_table_rejects_a_wrong_number_of_entries():
    # one entry per length 0..max_length, checked before any lookup
    with pytest.raises(ValueError, match="^max_length 2 needs 3 entries, got 0$"):
        CountTable(BOUNDED, 2, ())
    entries = count_table(DUAL, 2).entries
    with pytest.raises(ValueError, match="^max_length 1 needs 2 entries, got 3$"):
        CountTable(DUAL, 1, entries)
    assert CountTable(DUAL, 2, entries) == count_table(DUAL, 2)


@pytest.mark.parametrize(
    "entries, message",
    [
        # no column at either length
        (((), ()), "entries[0] needs 3 columns of 1 counts"),
        # one column where three classes need one each
        ((((1,),), ((1,),)), "entries[0] needs 3 columns"),
        # the right columns at length 0, but two counts where length 1 has one level
        ((((1,),) * 3, ((0, 0),) * 3), "entries[1] needs 3 columns of 1 counts"),
    ],
    ids=["no-columns", "one-column", "wide-columns"],
)
def test_count_table_rejects_entries_of_the_wrong_shape(entries, message):
    # one column per class and one count per level of levels(n), checked
    # before any lookup (the second table once raised IndexError on a count)
    with pytest.raises(ValueError, match=re.escape(message)):
        CountTable(BOUNDED, 1, entries)


@pytest.mark.parametrize("call", [is_valid, render_ascii, reverse_dual])
@pytest.mark.parametrize("word", ["UD", ("U", "D"), None])
def test_word_readers_reject_what_is_no_word(call, word):
    with pytest.raises(ValueError, match="^expected a PathWord, got "):
        call(word)


def test_count_table_rejects_unknown_classes():
    table = count_table(BOUNDED, 4)
    unknown = r"unknown class '%s'; expected one of \('f', 'g', 'h'\)"
    for n, j in ((2, 0), (3, 0), (9, 9)):  # a row, an absent row of the table, a row past it
        for cls in ("a", "zz"):
            with pytest.raises(ValueError, match=unknown % cls):
                table.count(n, j, cls=cls)
            with pytest.raises(ValueError, match=unknown % cls):
                table.count(n, j, cls=cls, k=0)
            with pytest.raises(ValueError, match=unknown % cls):
                table.wpoly(n, j, cls=cls)
        with pytest.raises(ValueError, match=unknown % "a"):
            table.coefficients(j, cls="a")
    for cls in table.classes + (None,):  # absent rows and digits past the top read 0
        assert table.count(4, 6, cls=cls) == table.count(3, 0, cls=cls, k=0) == 0
        with pytest.raises(ValueError, match="^n must be an int in 0..4, got 9$"):
            table.count(9, 9, cls=cls)  # a row past the table is no row of it
        assert table.count(2, 0, cls=cls, k=5) == 0
        assert table.wpoly(3, 0, cls=cls) == WPoly()


def test_word_properties():
    w = PathWord(("U", "U", "D", "R"), BOUNDED)
    assert w.end_level == 0
    assert last_class(w) == "h"
    assert colored_count(w) == 1
    assert w.word() == "UUDR"
    assert last_class(PathWord((), BOUNDED)) == "f"


def test_words_from_a_list_and_a_tuple_are_equal():
    listed, tupled = PathWord(["U", "D"], BOUNDED), PathWord(("U", "D"), BOUNDED)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert listed.steps == ("U", "D")


def test_brute_force_cap():
    with pytest.raises(ValueError):
        enumerate_paths(BOUNDED, 17)
    with pytest.raises(ValueError):
        count_table(BOUNDED, 17)


def _word_tally(family, max_length):
    """Every word of length <= max_length from ``enumerate_paths``, counted
    one by one at its (n, j, cls, k)."""
    return Counter(
        (len(w), w.end_level, last_class(w), colored_count(w))
        for n in range(max_length + 1)
        for w in enumerate_paths(family, n)
    )


def test_count_table_matches_enumeration():
    # at 0, 1 and 2 the walk starts inside its unrolled last two lengths
    for family in (BOUNDED, DUAL, UNBOUNDED):
        for max_length in (0, 1, 2, 3, 10):
            got = count_table(family, max_length).counts()
            assert got == _word_tally(family, max_length), (family, max_length)


@pytest.mark.parametrize("family", [BOUNDED, DUAL, UNBOUNDED])
def test_count_table_matches_dp_at_long_lengths(family, brute_tables):
    for n in (12, 13):
        assert count_table(family, n).entries == dp_table(family, n).entries, n
    assert brute_tables[family].entries == dp_table(family, 14).entries


@pytest.mark.parametrize("family", [BOUNDED, DUAL, UNBOUNDED])
def test_enumeration_is_the_literal_rules_in_order(family):
    # the walk's rule table against is_valid's word-by-word reading, over
    # every word of the alphabet in lexicographic step order
    steps = family_spec(family).steps
    for n in range(8):
        words = [PathWord(w, family) for w in product(steps, repeat=n)]
        assert enumerate_paths(family, n) == [w for w in words if is_valid(w)]
        for j in (-2, 0, 1):
            assert enumerate_paths(family, n, end_level=j) == [
                w for w in words if is_valid(w) and w.end_level == j
            ]


def test_count_table_wpoly_refinement():
    table = count_table(BOUNDED, 6)
    poly = table.wpoly(6, 0)
    # 10 paths of length 6 ending at level 0, split by red count: 5 + 4w + w^2
    assert poly.coeffs == (5, 4, 1)
    assert poly.eval(1) == 10


def _cell_table(n, j, digits):
    """A bounded table of length n whose one nonzero cell (n, j) holds
    ``digits``, {(cls, k): count}, built directly: no route builds it."""
    shape = dp_table(BOUNDED, n)  # for its levels, classes and digit width
    zeros = [tuple((0,) * len(shape.levels(m)) for _ in shape.classes) for m in range(n + 1)]
    top = [list(column) for column in zeros[n]]
    for (cls, k), c in digits.items():
        top[shape.classes.index(cls)][shape.levels(n).index(j)] += c << (k * shape.bits)
    return CountTable(BOUNDED, n, tuple(zeros[:n]) + (tuple(map(tuple, top)),))


def test_largest_digit_unpacks_without_carry():
    # a cell's total over classes and colour counts may reach 3^n, and no more
    for n in (1, 5, 14, 96):
        top, third = 3**n, 3 ** (n - 1)
        j = n % 2  # the lowest level a length-n path reaches
        table = _cell_table(n, j, {("h", 2): top})  # the whole total in one digit
        assert table.count(n, j) == table.count(n, j, "h") == table.count(n, j, k=2) == top
        assert [table.count(n, j, "h", k) for k in range(4)] == [0, 0, top, 0]
        assert table.wpoly(n, j).coeffs == table.wpoly(n, j, "h").coeffs == (0, 0, top)
        assert table.counts() == {(n, j, "h", 2): top}
        # the total spread over three digits of two classes
        table = _cell_table(n, j, {("f", 0): third, ("f", 2): third, ("g", 1): third})
        assert table.count(n, j) == top
        assert table.count(n, j, "f") == 2 * third
        assert [table.count(n, j, k=k) for k in range(4)] == [third, third, third, 0]
        assert [table.count(n, j, "f", k) for k in range(4)] == [third, 0, third, 0]
        assert table.wpoly(n, j).coeffs == (third, third, third)
        assert table.wpoly(n, j, "f").coeffs == (third, 0, third)
        assert table.wpoly(n, j, "g").coeffs == (0, third)
        assert table.counts() == {(n, j, "f", 0): third, (n, j, "f", 2): third, (n, j, "g", 1): third}


def _assert_totals(table, lengths):
    """count(n, j, cls), read with one modulo, against the sum over colour
    counts and against the w-polynomial at w = 1, at every cell and class."""
    for n in lengths:
        for j in table.levels(n):
            for cls in (None, *table.classes):
                total = table.count(n, j, cls)
                by_k = sum(table.count(n, j, cls, k=k) for k in range(n + 1))
                assert total == by_k == table.wpoly(n, j, cls).eval(1), (n, j, cls)


@pytest.mark.parametrize("family", [BOUNDED, DUAL, UNBOUNDED])
def test_totals_read_with_one_modulo(family, brute_tables):
    for marker in (True, False):
        table = dp_table(family, 40, marker)
        _assert_totals(table, range(41))
        for n in range(40):  # the top length of each shorter table has the tightest digits
            _assert_totals(dp_table(family, n, marker), [n])
    _assert_totals(brute_tables[family], range(15))
    for n in range(11):
        _assert_totals(count_table(family, n), [n])


@pytest.mark.parametrize(
    "lookup, name",
    [
        (lambda t: t.count(10, 0), "n"),  # past max_length: 137 paths, not 0
        (lambda t: t.wpoly(8, 0), "n"),
        (lambda t: t.count(-2, 0), "n"),
        (lambda t: t.count(5, 1, "f"), "n"),
        (lambda t: t.count(2.0, 0), "n"),
        (lambda t: t.count(2, 0.0), "j"),
        (lambda t: t.wpoly(2, "0"), "j"),
        (lambda t: t.coefficients(1.5), "j"),
        (lambda t: t.count(2, 0, k=0.5), "k"),
        (lambda t: t.coefficients(0, k="1"), "k"),
    ],
)
def test_lookups_outside_the_table_rejected(lookup, name):
    with pytest.raises(ValueError, match=rf"^{name} must be an int"):
        lookup(dp_table(BOUNDED, 4))
    assert dp_table(BOUNDED, 10).count(10, 0) == 137


def test_lookups_at_levels_no_path_reaches_count_zero():
    table = dp_table(BOUNDED, 4)
    assert (table.count(0, 0), table.count(4, 0)) == (1, 3)  # both ends of 0..max_length
    for n, j in ((3, 0), (4, 6), (4, -2), (0, 1)):  # wrong parity, above n, below the floor
        assert table.count(n, j) == 0 and table.count(n, j, "g", k=1) == 0
        assert table.wpoly(n, j) == WPoly()


@pytest.mark.parametrize("end_level", ["a", 2.5, 2.0])
def test_enumerate_paths_rejects_non_int_end_level(end_level):
    with pytest.raises(ValueError, match=r"^end_level must be an int"):
        enumerate_paths(BOUNDED, 4, end_level=end_level)


def test_render_ascii_deterministic():
    w = PathWord(("U", "U", "D", "R"), BOUNDED)
    assert render_ascii(w) == " /\\\n/  r\n----"
    assert render_ascii(PathWord((), BOUNDED)) == "-"
    # the axis line is level 0, with the edges below it drawn under it
    assert render_ascii(PathWord(tuple("UDDD"), UNBOUNDED)) == "/\\\n----\n  \\\n   \\"
    assert render_ascii(PathWord(tuple("DD"), UNBOUNDED)) == "--\n\\\n \\"
    assert render_ascii(PathWord(tuple("DUUD"), UNBOUNDED)) == "  /\\\n----\n\\/"


def test_reverse_dual_is_bijection():
    for n in range(0, 11):
        primal = enumerate_paths(BOUNDED, n, end_level=0)
        images = set()
        for word in primal:
            dual_word = reverse_dual(word)
            assert is_valid(dual_word)
            assert dual_word.end_level == 0
            assert colored_count(dual_word) == colored_count(word)
            images.add(dual_word.steps)
        assert images == {w.steps for w in enumerate_paths(DUAL, n, end_level=0)}


def test_reverse_dual_rejects_other_families():
    with pytest.raises(ValueError):
        reverse_dual(PathWord(("u",), DUAL))
