"""Command-line surface for the skewdyck package.

Subcommands
-----------
table      emit level-series coefficient tables (tsv or record format)
verify     run the cross-validation matrix; exit 0 on pass, 1 on failure
paths      list (and optionally render) enumerated path words
stats-red  per-semilength red-edge statistics
oeis       compare a recomputed series against an embedded reference prefix

Exit codes: 0 success/pass, 1 verification mismatch, 2 usage error.
All output is deterministic: identical inputs yield byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import dp, formulas, genfunc, paths, refs

# CLI family names; "primal" is the floored primal family
_CLI_FAMILIES = {
    "primal": paths.BOUNDED,
    "dual": paths.DUAL,
    "unbounded": paths.UNBOUNDED,
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


def _level_series(cli_family, j, order):
    if cli_family == "primal":
        if j < 0:
            raise argparse.ArgumentTypeError("primal levels must be nonnegative")
        return genfunc.primal_level_series(j, order=order)
    if cli_family == "dual":
        if j < 0:
            raise argparse.ArgumentTypeError("dual levels must be nonnegative")
        return genfunc.dual_level_series(j, order=order)
    return genfunc.negative_level_series(j, order=order)


def _int_coeff(s, n):
    c = s.coeff(n)
    if c.denominator != 1:
        raise AssertionError(f"non-integer coefficient {c} at z^{n}")
    return c.numerator


def cmd_table(args, out):
    lo, hi = args.levels
    rows = []
    # the series constructors need a few terms of headroom; columns are
    # still truncated to the requested order
    internal_order = max(args.order, 8)
    for j in range(lo, hi + 1):
        s = _level_series(args.family, j, internal_order)
        rows.append((j, [_int_coeff(s, n) for n in range(args.order + 1)]))
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


class _Report:
    def __init__(self, out):
        self.out = out
        self.failed = False

    def record(self, check_id, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        suffix = f" {detail}" if detail else ""
        self.out.write(f"{status} {check_id}{suffix}\n")
        if not ok:
            self.failed = True


def _check_brute_dp(report, cli_family, max_length):
    family = _CLI_FAMILIES[cli_family]
    brute = paths.count_table(family, max_length)
    table = dp.dp_table(family, max_length)
    keys = set(brute.entries) | set(table.entries)
    for key in sorted(keys):
        if brute.entries.get(key, 0) != table.entries.get(key, 0):
            n, j, cls, k = key
            report.record(
                f"brute-dp:{cli_family}",
                False,
                f"first mismatch at (n={n}, j={j}, cls={cls}, k={k}): "
                f"brute {brute.entries.get(key, 0)} != dp {table.entries.get(key, 0)}",
            )
            return
    report.record(f"brute-dp:{cli_family}", True, f"(lengths <= {max_length})")


def _check_dp_closed(report, cli_family, order, fault=False):
    family = _CLI_FAMILIES[cli_family]
    table = dp.dp_table(family, order, with_color_marker=False)
    # levels beyond the truncation order contribute nothing at this order
    jmax = min(8, order)
    if cli_family == "primal":
        levels = range(0, jmax + 1)
        series_of = lambda j: genfunc.primal_level_series(j, order=order)
    elif cli_family == "dual":
        levels = range(0, jmax + 1)
        series_of = lambda j: genfunc.dual_level_series(j, order=order)
    else:
        jneg = min(6, order)
        levels = range(-jneg, jneg + 1)
        series_of = lambda j: genfunc.negative_level_series(j, order=order)
    for j in levels:
        s = series_of(j)
        for n in range(order + 1):
            want = table.count(n, j)
            got = _int_coeff(s, n)
            if fault and cli_family == "primal" and j == 0 and n == 4:
                got += 1  # test mode: deliberately corrupted coefficient
            if got != want:
                report.record(
                    f"dp-closed:{cli_family}",
                    False,
                    f"first mismatch at j={j} z^{n}: closed {got} != dp {want}",
                )
                return
    report.record(f"dp-closed:{cli_family}", True, f"(|j| in {levels.start}..{levels.stop - 1}, order {order})")


def _check_closed_explicit(report, cli_family, order):
    if cli_family == "primal":
        for j in range(0, 9):
            if 2 + j > order:
                break
            s = genfunc.primal_level_series(j, order=order)
            m = 1
            while 2 * m + j <= order:
                got = formulas.primal_coeff_explicit(j, m)
                want = _int_coeff(s, 2 * m + j)
                if got != want:
                    report.record(
                        "closed-explicit:primal",
                        False,
                        f"first mismatch at j={j} z^{2 * m + j}: explicit {got} != closed {want}",
                    )
                    return
                m += 1
        report.record("closed-explicit:primal", True, f"(j <= 8, 2m+j <= {order})")
    else:
        for j in range(0, 9):
            if j + 2 > order:
                break
            s = genfunc.dual_level_series(j, order=order)
            N = 1
            while j + 2 * N <= order:
                got = formulas.dual_coeff_explicit(j, N)
                want = _int_coeff(s, j + 2 * N)
                if got != want:
                    report.record(
                        "closed-explicit:dual",
                        False,
                        f"first mismatch at j={j} z^{j + 2 * N}: explicit {got} != closed {want}",
                    )
                    return
                N += 1
        report.record("closed-explicit:dual", True, f"(j <= 8, j+2N <= {order})")


def _check_closed_explicit_red(report, order):
    max_n = max(order // 2, 1)
    sx = genfunc.even_to_x(genfunc.red_level_series(0, order=2 * max_n + 4))
    for n in range(1, max_n + 1):
        got = formulas.red_coeff_explicit(n)
        want = sx.coeff(n)
        if got != want:
            report.record(
                "closed-explicit:red",
                False,
                f"first mismatch at x^{n}: explicit {got} != closed {want}",
            )
            return
    report.record("closed-explicit:red", True, f"(n <= {max_n})")


def _check_kernel_identities(report, order):
    b = genfunc.kernel_bundle(max(order, 8))
    probs = []
    if b.W * b.W != _poly123(b, (1, 0, -6, 0, 5)):
        probs.append("W^2 != 1-6z^2+5z^4")
    if b.P * b.Q != _poly123(b, (0, 0, 2, 0, -1)):
        probs.append("P*Q != z^2(2-z^2)")
    from .series import W_VAR, Series

    ww2 = b.Ww * b.Ww
    one = Series.one(b.order, ww2.ring)
    z = Series.z(b.order, ww2.ring)
    w = W_VAR
    lhs = (one - z * z * w) * (one - (z * z) * (w + 4))
    if ww2 != lhs:
        probs.append("Ww^2 != (1-z^2 w)(1-(4+w)z^2)")
    for chk in genfunc.substitution_identity_check(order=min(order, 20)):
        if not chk.ok:
            probs.append(f"substitution({chk.name})")
    report.record(
        "kernel-identities",
        not probs,
        "; ".join(probs) if probs else "(W^2, P*Q, Ww^2, substitution)",
    )


def _poly123(bundle, coeffs):
    from .series import RATIONAL, Series

    z = Series.z(bundle.order, RATIONAL)
    out = Series.zero(bundle.order, RATIONAL)
    power = Series.one(bundle.order, RATIONAL)
    for c in coeffs:
        out = out + power * Fraction(c)
        power = power * z
    return out


def _check_reference(report, seq_id):
    expected = refs.get_sequence(seq_id)
    computed = _compute_reference(seq_id)
    ok = tuple(computed) == tuple(expected)
    detail = f"({len(expected)} terms)" if ok else f"expected {expected}, computed {tuple(computed)}"
    report.record(f"reference:{seq_id}", ok, detail)


def _compute_reference(seq_id):
    expected = refs.get_sequence(seq_id)
    n_terms = len(expected)
    if seq_id == "A002212":
        s = genfunc.primal_level_series(0, order=2 * (n_terms - 1))
    else:
        s = genfunc.negative_axis_series("sum", order=2 * (n_terms - 1))
    return [_int_coeff(s, 2 * n) for n in range(n_terms)]


def _check_reversal_duality(report, max_length):
    limit = min(max_length, 10)
    for n in range(limit + 1):
        primal_words = paths.enumerate_paths(paths.BOUNDED, n, end_level=0)
        images = set()
        for word in primal_words:
            dual_word = paths.reverse_dual(word)
            if not paths.is_valid(dual_word) or dual_word.end_level != 0:
                report.record(
                    "reversal-duality",
                    False,
                    f"image of {word.word() or '(empty)'} invalid at length {n}",
                )
                return
            images.add(dual_word.steps)
        dual_words = paths.enumerate_paths(paths.DUAL, n, end_level=0)
        if images != {w.steps for w in dual_words}:
            report.record("reversal-duality", False, f"not a bijection at length {n}")
            return
    report.record("reversal-duality", True, f"(lengths <= {limit})")


def cmd_verify(args, out):
    report = _Report(out)
    families = args.family or ["primal", "dual", "unbounded"]
    for fam in ("primal", "dual", "unbounded"):
        if fam in families:
            _check_brute_dp(report, fam, args.max_brute_length)
    for fam in ("primal", "dual", "unbounded"):
        if fam in families:
            order = min(args.order, genfunc.DEFAULT_NEGATIVE_ORDER) if fam == "unbounded" else args.order
            _check_dp_closed(report, fam, order, fault=args.inject_fault)
    if "primal" in families:
        _check_closed_explicit(report, "primal", args.order)
        _check_closed_explicit_red(report, args.order)
    if "dual" in families:
        _check_closed_explicit(report, "dual", args.order)
    _check_kernel_identities(report, args.order)
    if "primal" in families or "unbounded" in families:
        _check_reference(report, "A002212")
    if "unbounded" in families:
        _check_reference(report, "A033321")
    if "primal" in families:
        _check_reversal_duality(report, args.max_brute_length)
    out.write("OVERALL FAIL\n" if report.failed else "OVERALL PASS\n")
    return 1 if report.failed else 0


# --- paths --------------------------------------------------------------------


def cmd_paths(args, out):
    family = _CLI_FAMILIES[args.family]
    words = paths.enumerate_paths(family, args.length, end_level=args.end_level)
    for word in words:
        text = word.word() or "(empty)"
        out.write(text + "\n")
        if args.render:
            out.write(paths.render_ascii(word) + "\n\n")
    return 0


# --- stats-red ----------------------------------------------------------------


def cmd_stats_red(args, out):
    n_max = args.order
    reds = genfunc.average_red_series(order=n_max)
    axis = genfunc.primal_level_series(0, order=2 * n_max)
    out.write("n\tpaths\tred_edges\taverage\tratio_to_n_over_5\n")
    for n in range(n_max + 1):
        total = _int_coeff(axis, 2 * n)
        red = reds.coeff(n)
        if red.denominator != 1:
            raise AssertionError(f"non-integer red-edge total {red} at n={n}")
        avg = Fraction(red, total)
        ratio = "-" if n == 0 else str(Fraction(5) * avg / n)
        out.write(f"{n}\t{total}\t{red.numerator}\t{avg}\t{ratio}\n")
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
    try:
        return args.func(args, sys.stdout)
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
