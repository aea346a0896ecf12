"""Command-line surface for the skewdyck package.

Subcommands
-----------
table      emit level-series coefficient tables (tsv or record format)
verify     run the cross-validation matrix; exit 0 on pass, 1 on failure
paths      list (and optionally render) enumerated path words
stats-red  per-semilength red-edge statistics
oeis       compare a recomputed series against an embedded reference prefix

Exit codes: 0 success/pass, 1 verification mismatch, 2 usage or any other
error (one ``error:`` line on stderr).
All output is deterministic: identical inputs yield byte-identical output.
"""

import argparse
import sys

from . import dp, formulas, genfunc, paths, refs, series

# CLI family -> (paths family, name of its level-range constructor in
# genfunc); "primal" is the floored primal family.  Names, not functions, so
# that a patched or traced ``genfunc`` attribute is what gets called, and
# literals, not ``paths.BOUNDED`` and the like, so that importing this module
# executes no library module (see the package docstring).
_CLI_FAMILIES = {
    "primal": ("bounded", "primal_levels"),
    "dual": ("dual", "dual_levels"),
    "unbounded": ("unbounded", "negative_levels"),
}


def _parse_levels(text):
    """Parse a level range 'a..b' (inclusive); either end may be negative."""
    try:
        a, b = text.split("..")
        lo, hi = int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid level range {text!r}; expected a..b")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty level range {text!r}")
    return lo, hi


def _nonnegative_int(text, cap=None):
    """argparse type: an int >= 0, and <= cap when a cap is given."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0 or (cap is not None and value > cap):
        bound = "an int >= 0" if cap is None else f"an int in 0..{cap}"
        raise argparse.ArgumentTypeError(f"{value} is out of range; expected {bound}")
    return value


def _brute_length(text):
    """argparse type: a path length brute force can enumerate."""
    return _nonnegative_int(text, paths.BRUTE_FORCE_CAP)


def _levels(cli_family, lo, hi, order):
    """Levels lo..hi of a family at one order, as a {level: series} dict."""
    made = getattr(genfunc, _CLI_FAMILIES[cli_family][1])(lo, hi, order=order)
    return dict(zip(range(lo, hi + 1), made))


def cmd_table(args, out):
    levels = _levels(args.family, *args.levels, args.order)
    rows = [(j, [s.coeff(n) for n in range(args.order + 1)]) for j, s in levels.items()]
    if args.format == "tsv":
        header = ["j"] + [str(n) for n in range(args.order + 1)]
        out.write("\t".join(header) + "\n")
        for j, coeffs in rows:
            out.write("\t".join([str(j)] + [str(c) for c in coeffs]) + "\n")
    else:  # record: one line per (family, j, n)
        for j, coeffs in rows:
            for n, c in enumerate(coeffs):
                out.write(f"family={args.family}\tj={j}\tn={n}\tvalue={c}\n")
    return 0


# --- verify -------------------------------------------------------------------

# CLI family -> (explicit formula in formulas, its summation range)
_EXPLICIT = {
    "primal": ("primal_coeff_explicit", "2m+j"),
    "dual": ("dual_coeff_explicit", "j+2N"),
}


def _check_brute_dp(cli_family, table):
    """Brute force against the DP ``table``, at the table's length: equal
    tables pass, and only unequal ones are walked, cell by cell, to name
    the first mismatch."""
    brute = paths.count_table(table.family, table.max_length)

    def cells():
        want, got = brute.counts(), table.counts()
        for key in sorted(want.keys() | got.keys()):
            yield "(n={}, j={}, cls={}, k={})".format(*key), want.get(key, 0), got.get(key, 0)

    return series.compare(
        f"brute-dp:{cli_family}",
        () if brute == table else cells(),
        f"(lengths <= {table.max_length})",
        "first mismatch at %s: brute %s != dp %s",
    )


def _check_recursions(cli_family, table):
    """The paper's level-coupled recursions on the DP ``table``."""
    checks = dp.check_recursions(table)
    bad = next((c for c in checks if not c.ok), None)
    name = f"recursions:{cli_family}"
    if bad:
        return series.Check(name, False, f"{bad.name}: {bad.detail}")
    return series.Check(name, True, f"({len(checks)} identities, lengths <= {table.max_length})")


def _check_dp_closed(cli_family, order, levels, fault=False):
    table = dp.dp_table(_CLI_FAMILIES[cli_family][0], order, with_color_marker=False)

    def coefficients():
        for j, s in levels.items():
            for n in range(order + 1):
                want = table.count(n, j)
                got = s.coeff(n)
                if fault and cli_family == "primal" and j == 0 and n == 4:
                    got += 1  # test mode: deliberately corrupted coefficient
                yield f"j={j} z^{n}", got, want

    return series.compare(
        f"dp-closed:{cli_family}",
        coefficients(),
        f"(|j| in {min(levels)}..{max(levels)}, order {order})",
        "first mismatch at %s: closed %s != dp %s",
    )


def _check_closed_explicit(cli_family, order, levels):
    formula, span = _EXPLICIT[cli_family]
    explicit = getattr(formulas, formula)

    def coefficients():  # levels above order - 2 have no coefficient to check
        for j, s in levels.items():
            for m in range(1, (order - j) // 2 + 1):
                yield f"j={j} z^{2 * m + j}", explicit(j, m), s.coeff(2 * m + j)

    return series.compare(
        f"closed-explicit:{cli_family}",
        coefficients(),
        f"(j <= 8, {span} <= {order})",
        "first mismatch at %s: explicit %s != closed %s",
    )


def _check_closed_explicit_red(max_n, sx):
    return series.compare(
        "closed-explicit:red",
        ((f"x^{n}", formulas.red_coeff_explicit(n), sx.coeff(n)) for n in range(1, max_n + 1)),
        f"(n <= {max_n})",
        "first mismatch at %s: explicit %s != closed %s",
    )


def _check_closed_derivative_red(max_n, sx):
    closed = genfunc.average_red_series(order=max_n)
    deriv = series.specialize_w(series.w_derivative(sx), 1)
    return series.compare(
        "closed-derivative:red",
        ((f"x^{n}", closed.coeff(n), deriv.coeff(n)) for n in range(max_n + 1)),
        f"(n <= {max_n})",
        "first mismatch at %s: closed %s != derivative %s",
    )


def _squares_to(s, poly):
    """Whether s^2 = D to z^N, N = s.order, for the polynomial D = ``poly``
    ({power: coefficient}, D(0) = 1), in O(N) products of ring elements by
    D's few coefficients: the square itself takes O(N^2) products.

    With s(0) = 1, s^2 = D to z^N exactly when 2 D s' = D' s to z^(N-1).
    Differentiating s^2 = D and multiplying by s gives the second;
    conversely its z^(n-1) coefficient, sum_p D_p (2n - 3p) s_(n-p) = 0,
    fixes s_n from s_0..s_(n-1) with the factor 2n, so sqrt(D) is its only
    solution with s(0) = 1, and both forms fail first at the same s_n.
    :func:`~skewdyck.series.quadratic_power` builds the kernel roots from
    the same equation, so this reads D's coefficients with code of its own,
    and the caller keeps a full square at low order.
    """
    c = s.coeffs
    return c[0] == 1 and not any(
        sum(d * (2 * n - 3 * p) * c[n - p] for p, d in poly.items() if p <= n)
        for n in range(1, len(c))
    )


def _check_kernel_identities(order, G, sx):
    b = genfunc.kernel_bundle(G.order)
    n = b.order
    probs = []
    if b.W * b.W != series.Series.from_dict({0: 1, 2: -6, 4: 5}, n):
        probs.append("W^2 != 1-6z^2+5z^4")
    if b.P * b.Q != series.Series.from_dict({2: 2, 4: -1}, n):
        probs.append("P*Q != z^2(2-z^2)")
    # W_w = 1 - wz^2 - 2z^2 G, from the G the red checks read: squared in
    # full to z^40, and to z^n, n = G.order >= 40, by the linear identity
    w = series.W_VAR
    dw = {0: 1, 2: -4 - 2 * w, 4: w * (4 + w)}
    g2 = series.shift_up(G, 2)
    Ww = series.Series.from_dict({0: 1, 2: -w}, n, series.WPOLY) - g2 - g2
    low = Ww.truncate(40)
    if low * low != series.Series.from_dict(dw, low.order, series.WPOLY) or not _squares_to(Ww, dw):
        probs.append("Ww^2 != (1-z^2 w)(1-(4+w)z^2)")
    for chk in genfunc.substitution_identity_check(sx.truncate(min(order, 20))):
        if not chk.ok:
            probs.append(f"substitution({chk.name})")
    return series.Check(
        "kernel-identities",
        not probs,
        "; ".join(probs) if probs else "(W^2, P*Q, Ww^2, substitution)",
    )


def _check_reference(seq_id):
    expected = refs.get_sequence(seq_id)
    return series.compare(
        f"reference:{seq_id}",
        zip(range(len(expected)), _compute_reference(seq_id), expected),
        f"({len(expected)} terms)",
        "first mismatch at term %s: computed %s != expected %s",
    )


def _compute_reference(seq_id):
    expected = refs.get_sequence(seq_id)
    n_terms = len(expected)
    if seq_id == "A002212":
        s = genfunc.primal_level_series(0, order=2 * (n_terms - 1))
    else:
        s = genfunc.negative_axis_series("sum", order=2 * (n_terms - 1))
    return [s.coeff(2 * n) for n in range(n_terms)]


def _check_reversal_duality(max_length):
    limit = min(max_length, 10)
    for n in range(limit + 1):
        primal_words = paths.enumerate_paths(paths.BOUNDED, n, end_level=0)
        images = [paths.reverse_dual(word) for word in primal_words]
        bad = series.first_mismatch(
            (word.word() or "(empty)", paths.is_valid(image) and image.end_level == 0, True)
            for word, image in zip(primal_words, images)
        )
        if bad:
            return series.Check("reversal-duality", False, f"image of {bad[0]} invalid at length {n}")
        dual_words = paths.enumerate_paths(paths.DUAL, n, end_level=0)
        if {image.steps for image in images} != {w.steps for w in dual_words}:
            return series.Check("reversal-duality", False, f"not a bijection at length {n}")
    return series.Check("reversal-duality", True, f"(lengths <= {limit})")


def _verify_checks(args):
    """The verify matrix as a generator of :class:`~skewdyck.series.Check`
    records, each run only when the generator reaches it."""
    families = [fam for fam in _CLI_FAMILIES if fam in (args.family or _CLI_FAMILIES)]
    for fam in families:  # one DP table per family for brute-dp and recursions
        table = dp.dp_table(_CLI_FAMILIES[fam][0], args.max_brute_length)
        yield _check_brute_dp(fam, table)
        yield _check_recursions(fam, table)
    levels = {}  # each family's levels, built once for dp-closed and closed-explicit
    for fam in families:
        # levels beyond the truncation order contribute nothing at this order
        top = min(6, args.order) if fam == "unbounded" else min(8, args.order)
        levels[fam] = _levels(fam, -top if fam == "unbounded" else 0, top, args.order)
        yield _check_dp_closed(fam, args.order, levels[fam], fault=args.inject_fault)
    # one w-marked axis G to z^max(order, 40): kernel-identities reads W_w from it,
    # and sx, G in x = z^2, the red checks (to x^max_n) and the substitution (x^20 at most)
    max_n = max(args.order // 2, 1)
    G = genfunc.dual_blue_g0(max(args.order, 40))
    sx = genfunc.even_to_x(G)
    if "primal" in families:
        yield _check_closed_explicit("primal", args.order, levels["primal"])
        yield _check_closed_explicit_red(max_n, sx)
        yield _check_closed_derivative_red(max_n, sx)
    if "dual" in families:
        yield _check_closed_explicit("dual", args.order, levels["dual"])
    yield _check_kernel_identities(args.order, G, sx)
    if "primal" in families or "unbounded" in families:
        yield _check_reference("A002212")
    if "unbounded" in families:
        yield _check_reference("A033321")
    if "primal" in families:
        yield _check_reversal_duality(args.max_brute_length)


def cmd_verify(args, out):
    checks = []
    for check in _verify_checks(args):
        suffix = f" {check.detail}" if check.detail else ""
        out.write(f"{'PASS' if check.ok else 'FAIL'} {check.name}{suffix}\n")
        checks.append(check)
    ok = all(check.ok for check in checks)
    out.write("OVERALL PASS\n" if ok else "OVERALL FAIL\n")
    return 0 if ok else 1


# --- paths --------------------------------------------------------------------


def cmd_paths(args, out):
    family = _CLI_FAMILIES[args.family][0]
    words = paths.enumerate_paths(family, args.length, end_level=args.end_level)
    for word in words:
        text = word.word() or "(empty)"
        out.write(text + "\n")
        if args.render:
            out.write(paths.render_ascii(word) + "\n\n")
    return 0


# --- stats-red ----------------------------------------------------------------


def cmd_stats_red(args, out):
    from fractions import Fraction  # imported here: no other command needs it

    n_max = args.order
    reds = genfunc.average_red_series(order=n_max)
    axis = genfunc.primal_level_series(0, order=2 * n_max)
    out.write("n\tpaths\tred_edges\taverage\tratio_to_n_over_5\n")
    for n in range(n_max + 1):
        total, red = axis.coeff(2 * n), reds.coeff(n)
        avg = Fraction(red, total)
        ratio = "-" if n == 0 else str(Fraction(5) * avg / n)
        out.write(f"{n}\t{total}\t{red}\t{avg}\t{ratio}\n")
    return 0


# --- oeis ---------------------------------------------------------------------


def cmd_oeis(args, out):
    expected = refs.get_sequence(args.sequence)
    computed = _compute_reference(args.sequence)
    out.write(f"{args.sequence} expected: " + " ".join(str(v) for v in expected) + "\n")
    out.write(f"{args.sequence} computed: " + " ".join(str(v) for v in computed) + "\n")
    if tuple(computed) == tuple(expected):
        out.write("MATCH\n")
        return 0
    out.write("MISMATCH\n")
    return 1


# --- parser -------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="skewdyck",
        description="Exact skew Dyck path counting: tables, verification, enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="emit level-series coefficient tables")
    p.add_argument("--family", choices=sorted(_CLI_FAMILIES), default="primal")
    p.add_argument("--levels", type=_parse_levels, default=(0, 3), metavar="A..B")
    p.add_argument("--order", type=_nonnegative_int, default=14)
    p.add_argument(
        "--format",
        choices=("tsv", "record"),
        default="tsv",
        help="tsv: one row per level; record: one 'family=.. j=.. n=.. value=..' line per coefficient",
    )
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run the cross-validation matrix")
    p.add_argument("--max-brute-length", type=_brute_length, default=14)
    p.add_argument("--order", type=_nonnegative_int, default=32)
    p.add_argument(
        "--family",
        choices=sorted(_CLI_FAMILIES),
        action="append",
        help="restrict to a family (repeatable; default: all)",
    )
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="test mode: corrupt one coefficient to exercise failure reporting",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("paths", help="list enumerated path words")
    p.add_argument("--family", choices=sorted(_CLI_FAMILIES), default="primal")
    p.add_argument("--length", type=_brute_length, required=True)
    p.add_argument("--end-level", type=int, default=None)
    p.add_argument("--render", action="store_true", help="include ASCII renderings")
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("stats-red", help="red-edge statistics per semilength")
    p.add_argument("--order", type=_nonnegative_int, default=30, help="largest semilength n")
    p.set_defaults(func=cmd_stats_red)

    p = sub.add_parser("oeis", help="compare against an embedded reference prefix")
    p.add_argument("sequence", choices=sorted(refs.SEQUENCES))
    p.set_defaults(func=cmd_oeis)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "table" and args.family != "unbounded" and args.levels[0] < 0:
        parser.error(f"{args.family} levels must be nonnegative")
    # coefficients may pass the int-to-str digit limit: lift it for the command
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args, sys.stdout)
    except Exception as exc:  # exit 1 means a mismatch; any error exits 2
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
