"""End-to-end tests of the command-line interface."""

import contextlib
import hashlib
import inspect
import io
import os
import re
import subprocess
import sys

import pytest
from conftest import bumped, red_root
from hypothesis import given, settings
from hypothesis import strategies as st

import skewdyck
from skewdyck import cli, dp, formulas, genfunc, paths, refs
from skewdyck.dp import dp_table
from skewdyck.paths import DUAL, PathWord
from skewdyck.series import WPOLY, W_VAR, ExactnessError, Series, WPoly

CLI = [sys.executable, "-m", "skewdyck.cli"]
# child interpreters import the skewdyck these tests import
_SRC = os.path.dirname(os.path.dirname(skewdyck.__file__))
ENV = dict(os.environ)
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def run_cli(*args):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=300, env=ENV
    )


def test_table_primal_golden():
    res = run_cli("table", "--family", "primal", "--levels", "0..3", "--order", "14")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0].split("\t")[0] == "j"
    rows = {int(line.split("\t")[0]): [int(v) for v in line.split("\t")[1:]] for line in lines[1:]}
    assert rows[0] == [1, 0, 1, 0, 3, 0, 10, 0, 36, 0, 137, 0, 543, 0, 2219]
    assert rows[1] == [0, 1, 0, 2, 0, 6, 0, 21, 0, 79, 0, 311, 0, 1265, 0]
    assert rows[2] == [0, 0, 1, 0, 3, 0, 10, 0, 37, 0, 145, 0, 589, 0, 2455]
    assert rows[3] == [0, 0, 0, 1, 0, 4, 0, 15, 0, 59, 0, 241, 0, 1010, 0]


def test_table_dual_golden():
    res = run_cli("table", "--family", "dual", "--levels", "0..3", "--order", "17")
    assert res.returncode == 0
    rows = {
        int(line.split("\t")[0]): [int(v) for v in line.split("\t")[1:]]
        for line in res.stdout.splitlines()[1:]
    }
    assert rows[2][2::2] == [4, 8, 29, 111, 442, 1813, 7609, 32521]
    assert rows[3][3::2] == [8, 20, 78, 315, 1306, 5527, 23779, 103699]


def test_table_unbounded_negative_levels():
    res = run_cli("table", "--family", "unbounded", "--levels=-1..0", "--order", "8")
    assert res.returncode == 0
    rows = {
        int(line.split("\t")[0]): [int(v) for v in line.split("\t")[1:]]
        for line in res.stdout.splitlines()[1:]
    }
    assert rows[0] == [1, 0, 2, 0, 7, 0, 29, 0, 127]
    assert rows[-1] == [0, 1, 0, 4, 0, 17, 0, 75, 0]


def test_table_record_format():
    res = run_cli("table", "--levels", "0..0", "--order", "4", "--format", "record")
    assert res.returncode == 0
    assert res.stdout.splitlines() == [
        "family=primal\tj=0\tn=0\tvalue=1",
        "family=primal\tj=0\tn=1\tvalue=0",
        "family=primal\tj=0\tn=2\tvalue=1",
        "family=primal\tj=0\tn=3\tvalue=0",
        "family=primal\tj=0\tn=4\tvalue=3",
    ]


def test_table_order_zero():
    res = run_cli("table", "--levels", "0..2", "--order", "0")
    assert res.returncode == 0
    rows = {int(l.split("\t")[0]): l.split("\t")[1:] for l in res.stdout.splitlines()[1:]}
    assert rows[0] == ["1"] and rows[1] == ["0"] and rows[2] == ["0"]


def test_paths_counts():
    assert len(run_cli("paths", "--length", "6", "--end-level", "0").stdout.splitlines()) == 10
    assert (
        len(
            run_cli(
                "paths", "--family", "dual", "--length", "6", "--end-level", "0"
            ).stdout.splitlines()
        )
        == 10
    )
    assert run_cli("paths", "--length", "1", "--end-level", "0").stdout == ""


def test_paths_render():
    res = run_cli("paths", "--length", "2", "--end-level", "0", "--render")
    assert res.returncode == 0
    assert "UD" in res.stdout
    assert "/\\" in res.stdout


def test_paths_length_cap_usage_error():
    res = run_cli("paths", "--length", "99")
    assert res.returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ("table", "--order", "-1"),
        ("table", "--order", "x"),
        ("stats-red", "--order", "-1"),
        ("verify", "--order", "-1"),
        ("verify", "--max-brute-length", "-1"),
        ("verify", "--max-brute-length", "17"),
    ],
)
def test_out_of_range_ints_usage_error(args):
    res = run_cli(*args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("family", ["primal", "dual"])
def test_table_negative_floored_levels_usage_error(family):
    res = run_cli("table", "--family", family, "--levels=-1..2")
    assert res.returncode == 2
    assert res.stdout == ""
    assert f"{family} levels must be nonnegative" in res.stderr
    assert "Traceback" not in res.stderr


def test_table_dual_levels_above_order():
    res = run_cli("table", "--family", "dual", "--levels", "0..15", "--order", "14")
    assert res.returncode == 0
    rows = {
        int(line.split("\t")[0]): [int(v) for v in line.split("\t")[1:]]
        for line in res.stdout.splitlines()[1:]
    }
    table = dp_table(DUAL, 14, with_color_marker=False)
    assert rows == {j: [table.count(n, j) for n in range(15)] for j in range(16)}


def test_verify_order_zero():
    res = run_cli("verify", "--order", "0")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert sum(1 for l in lines if l.startswith("PASS ")) == 17
    assert lines[:6] == [
        "PASS brute-dp:primal (lengths <= 14)",
        "PASS recursions:primal (43 identities, lengths <= 14)",
        "PASS brute-dp:dual (lengths <= 14)",
        "PASS recursions:dual (44 identities, lengths <= 14)",
        "PASS brute-dp:unbounded (lengths <= 14)",
        "PASS recursions:unbounded (84 identities, lengths <= 14)",
    ]
    assert lines[-1] == "OVERALL PASS"


def test_stats_red_order_zero():
    res = run_cli("stats-red", "--order", "0")
    assert res.returncode == 0
    assert res.stdout.splitlines()[1:] == ["0\t1\t0\t0\t-"]


def test_stats_red():
    res = run_cli("stats-red", "--order", "4")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "n\tpaths\tred_edges\taverage\tratio_to_n_over_5"
    assert lines[1] == "0\t1\t0\t0\t-"
    assert lines[4] == "3\t10\t6\t3/5\t1"


def test_stats_red_prints_exact_averages():
    res = run_cli("stats-red", "--order", "6")
    assert res.returncode == 0
    assert res.stdout.splitlines()[5:] == [
        "4\t36\t30\t5/6\t25/24",
        "5\t137\t144\t144/137\t144/137",
        "6\t543\t685\t685/543\t3425/3258",
    ]


def _fresh_modules(code):
    """The modules a fresh interpreter has loaded after running ``code``."""
    res = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(*sys.modules, sep='\\n')"],
        capture_output=True, text=True, timeout=60, check=True, env=ENV,
    )
    return set(res.stdout.split())


def test_cli_import_path_stays_light():
    # every CLI job is a fresh process: dataclasses (with inspect) and
    # fractions (with decimal) would cost it several milliseconds of import
    bare = _fresh_modules("pass")
    loaded = _fresh_modules("import skewdyck, skewdyck.cli")
    added = loaded - bare
    assert not {"dataclasses", "inspect", "fractions", "decimal"} & added
    # the benchmark tracer wraps only what this import loads
    submodules = {"cli", "series", "paths", "dp", "genfunc", "formulas"}
    assert {f"skewdyck.{m}" for m in submodules} <= loaded


_LIBRARY = ("series", "paths", "dp", "genfunc", "formulas", "refs")


def _executed(code):
    """After ``code`` in a fresh interpreter: each library module in
    ``sys.modules``, mapped to whether it has executed.  A lazy module
    becomes a plain module when it executes, and reading its type leaves
    it lazy."""
    probe = (
        "\nimport sys, types"
        f"\nfor m in {_LIBRARY!r}:"
        "\n    if 'skewdyck.' + m in sys.modules:"
        "\n        print(m, type(sys.modules['skewdyck.' + m]) is types.ModuleType)"
    )
    res = subprocess.run(
        [sys.executable, "-c", code + probe],
        capture_output=True, text=True, timeout=60, check=True, env=ENV,
    )
    return {m: done == "True" for m, done in map(str.split, res.stdout.splitlines())}


def test_cli_import_executes_no_library_module():
    # every CLI job is a fresh interpreter: what it imports, it compiles
    assert _executed("import skewdyck, skewdyck.cli") == dict.fromkeys(_LIBRARY, False)


@pytest.mark.parametrize(
    "argv, idle",
    [
        (["table", "--levels=0..2", "--order", "6"], {"paths", "dp", "formulas"}),
        (["paths", "--length", "4", "--render"], {"genfunc", "dp", "formulas"}),
        (["verify", "--order", "6", "--max-brute-length", "4"], set()),
    ],
    ids=["table", "paths", "verify"],
)
def test_command_executes_only_the_modules_it_runs(argv, idle):
    code = (
        "import contextlib, io\nfrom skewdyck import cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    rc = cli.main({argv!r})\n"
        "assert rc == 0, rc"
    )
    executed = _executed(code)
    assert set(executed) == set(_LIBRARY)
    assert {m for m, done in executed.items() if not done} == idle


def test_cli_family_literals_name_the_paths_families():
    # cli spells them out, so that importing it reads no attribute of paths
    assert [fam for fam, _ in cli._CLI_FAMILIES.values()] == list(paths.FAMILIES)


def test_run_as_module_warns_nothing():
    # runpy warns when the module it runs is in sys.modules before it runs
    res = subprocess.run(
        [sys.executable, "-W", "error", "-m", "skewdyck.cli", "table", "--levels=0..1", "--order", "4"],
        capture_output=True, text=True, timeout=60, env=ENV,
    )
    assert (res.returncode, res.stderr) == (0, "")


def test_oeis():
    res = run_cli("oeis", "A002212")
    assert res.returncode == 0
    assert res.stdout.endswith("MATCH\n")
    assert "14878455" in res.stdout
    res = run_cli("oeis", "A033321")
    assert res.returncode == 0
    assert "5275" in res.stdout


def test_oeis_unknown_id_usage_error():
    assert run_cli("oeis", "A000001").returncode == 2


@pytest.mark.parametrize(
    "seq_id", ["A000001", [], {"A002212": 1}, None], ids=["unknown", "list", "dict", "none"]
)
def test_unknown_sequence_id_is_a_value_error(seq_id):
    # an unhashable id, too, is an unknown one, as a family is for paths.family_spec
    with pytest.raises(ValueError, match=f"^unknown sequence id {re.escape(repr(seq_id))}; known: "):
        refs.get_sequence(seq_id)


def test_verify_small_pass():
    res = run_cli(
        "verify", "--max-brute-length", "6", "--order", "8", "--family", "primal"
    )
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[-1] == "OVERALL PASS"
    assert sum(1 for l in lines if l.startswith("PASS ")) >= 6


def test_verify_fault_injection():
    res = run_cli(
        "verify",
        "--max-brute-length",
        "6",
        "--order",
        "8",
        "--family",
        "primal",
        "--inject-fault",
    )
    assert res.returncode == 1
    assert "FAIL dp-closed:primal" in res.stdout
    assert "j=0 z^4" in res.stdout
    assert res.stdout.splitlines()[-1] == "OVERALL FAIL"


def test_verify_all_families():
    res = run_cli("verify", "--max-brute-length", "6", "--order", "10")
    assert res.returncode == 0
    out = res.stdout
    for check in (
        "brute-dp:primal",
        "brute-dp:dual",
        "brute-dp:unbounded",
        "recursions:primal",
        "recursions:dual",
        "recursions:unbounded",
        "dp-closed:unbounded",
        "closed-explicit:dual",
        "kernel-identities",
        "reference:A002212",
        "reference:A033321",
        "reversal-duality",
    ):
        assert f"PASS {check}" in out


def test_determinism():
    args = ("table", "--levels", "0..2", "--order", "10")
    assert run_cli(*args).stdout == run_cli(*args).stdout
    args = ("verify", "--max-brute-length", "4", "--order", "6", "--family", "dual")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_usage_error_no_command():
    assert run_cli().returncode == 2


def _bump_series(fn, hit, power):
    """Wrap a series constructor: add 1 at z^power when hit(args)."""

    def faulty(*args, **kwargs):
        s = fn(*args, **kwargs)
        if hit(*args, **kwargs):
            s = s + Series.from_dict({power: 1}, s.order, s.ring)
        return s

    return faulty


def _bump_level(fn, level, power):
    """Wrap a level-range constructor: add 1 at z^power of the given level."""

    def faulty(lo, hi, *args, **kwargs):
        levels = fn(lo, hi, *args, **kwargs)
        if lo <= level <= hi:
            s = levels[level - lo]
            levels[level - lo] = s + Series.from_dict({power: 1}, s.order, s.ring)
        return levels

    return faulty


def _bump_value(fn, at):
    """Wrap an explicit-formula function: add 1 to its value at args == at."""
    return lambda *args: fn(*args) + (1 if args == at else 0)


def _bump_table(fn, key):
    """Wrap ``count_table``: add 1 to one entry of the brute-force table."""
    return lambda *args: bumped(fn(*args), *key)


def _break_image(fn, word, image):
    """Wrap ``reverse_dual``: map the given primal word to ``image`` steps."""
    return lambda w: PathWord(image, DUAL) if w.word() == word else fn(w)


_FAULTS = {
    "closed-explicit:primal": (
        formulas, "primal_coeff_explicit", lambda fn: _bump_value(fn, (2, 3)), ["primal"],
        "FAIL closed-explicit:primal first mismatch at j=2 z^8: explicit 38 != closed 37",
    ),
    "closed-explicit:dual": (
        formulas, "dual_coeff_explicit", lambda fn: _bump_value(fn, (1, 2)), ["dual"],
        "FAIL closed-explicit:dual first mismatch at j=1 z^5: explicit 11 != closed 10",
    ),
    "closed-explicit:red": (
        formulas, "red_coeff_explicit", lambda fn: _bump_value(fn, (3,)), ["primal"],
        "FAIL closed-explicit:red first mismatch at x^3: "
        "explicit 6 + 4*w + w^2 != closed 5 + 4*w + w^2",
    ),
    "brute-dp:dual": (
        paths, "count_table", lambda fn: _bump_table(fn, (4, 2, "a", 0)), ["dual"],
        "FAIL brute-dp:dual first mismatch at (n=4, j=2, cls=a, k=0): brute 3 != dp 2",
    ),
    "dp-closed:dual": (
        genfunc, "dual_levels", lambda fn: _bump_level(fn, 2, 5), ["dual"],
        "FAIL dp-closed:dual first mismatch at j=2 z^5: closed 1 != dp 0",
    ),
    "dp-closed:unbounded": (
        genfunc, "negative_levels", lambda fn: _bump_level(fn, -1, 3), ["unbounded"],
        "FAIL dp-closed:unbounded first mismatch at j=-1 z^3: closed 5 != dp 4",
    ),
    "reference:A002212": (
        genfunc, "primal_level_series",
        lambda fn: _bump_series(fn, lambda j, **kw: j == 0, 4), ["unbounded"],
        "FAIL reference:A002212 first mismatch at term 2: computed 4 != expected 3",
    ),
    "reference:A033321": (
        genfunc, "negative_axis_series",
        lambda fn: _bump_series(fn, lambda cls, **kw: cls == "sum", 6), ["unbounded"],
        "FAIL reference:A033321 first mismatch at term 3: computed 22 != expected 21",
    ),
    "reversal-duality:image": (
        paths, "reverse_dual", lambda fn: _break_image(fn, "UUDD", ("u",)), ["primal"],
        "FAIL reversal-duality image of UUDD invalid at length 4",
    ),
    "reversal-duality:bijection": (
        paths, "reverse_dual", lambda fn: _break_image(fn, "UUDD", tuple("udud")), ["primal"],
        "FAIL reversal-duality not a bijection at length 4",
    ),
    "closed-derivative:red": (
        genfunc, "average_red_series", lambda fn: _bump_series(fn, lambda **kw: True, 3), ["primal"],
        "FAIL closed-derivative:red first mismatch at x^3: closed 7 != derivative 6",
    ),
    "kernel-identities": (
        genfunc, "even_to_x",
        lambda fn: _bump_series(fn, lambda s: True, 2), ["dual"],
        "FAIL kernel-identities substitution(substitution weight 2+w); "
        "substitution(substitution weight 3)",
    ),
}


@pytest.mark.parametrize("check", sorted(_FAULTS))
def test_verify_fail_lines(check, monkeypatch, capsys):
    module, attr, wrap, families, line = _FAULTS[check]
    monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
    argv = ["verify", "--order", "8", "--max-brute-length", "6"]
    for family in families:
        argv += ["--family", family]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [l for l in lines if l.startswith("FAIL ")] == [line]
    assert lines[-1] == "OVERALL FAIL"


def _bump_bad_root(monkeypatch):
    """Add 1 at z^6 of the z^2/P, z times the bad root z/P, that
    ``_negative_numerators`` reads for the levels below the axis."""
    real = genfunc._negative_numerators

    def faulty(order, boundary, zs):
        if zs is not None:
            zs = zs + Series.from_dict({6: 1}, zs.order, zs.ring)
        return real(order, boundary, zs)

    monkeypatch.setattr(genfunc, "_negative_numerators", faulty)


def _bump_bundle_p(monkeypatch):
    """Add 1 at z^6 of the P of every ``kernel_bundle``, the den0 of every
    unmarked ladder."""
    real = genfunc.kernel_bundle

    def faulty(order=genfunc.DEFAULT_ORDER):
        b = real(order)
        return genfunc.KernelBundle(b.order, b.W, b.P + Series.from_dict({6: 1}, b.order), b.Q)

    monkeypatch.setattr(genfunc, "kernel_bundle", faulty)


@pytest.mark.parametrize(
    "inject, lines",
    [
        pytest.param(
            _bump_bad_root,
            ["FAIL dp-closed:unbounded first mismatch at j=-6 z^12: closed 6296 != dp 6360"],
            id="bad-root",
        ),
        pytest.param(
            _bump_bundle_p,
            [
                "FAIL dp-closed:primal first mismatch at j=0 z^6: closed 8 != dp 10",
                "FAIL dp-closed:dual first mismatch at j=0 z^8: closed 35 != dp 36",
                "FAIL dp-closed:unbounded first mismatch at j=-6 z^12: closed 6104 != dp 6360",
                "FAIL closed-explicit:primal first mismatch at j=0 z^6: explicit 10 != closed 8",
                "FAIL closed-explicit:dual first mismatch at j=0 z^8: explicit 36 != closed 35",
                "FAIL kernel-identities P*Q != z^2(2-z^2)",
                "FAIL reference:A002212 first mismatch at term 3: computed 8 != expected 10",
            ],
            id="bundle-p",
        ),
        pytest.param(
            lambda monkeypatch: monkeypatch.setattr(genfunc, "_DUAL_U", {1: -2, 3: 2}),
            [
                "FAIL dp-closed:dual first mismatch at j=1 z^3: closed 2 != dp 3",
                "FAIL dp-closed:unbounded first mismatch at j=-6 z^8: closed 96 != dp 208",
                "FAIL closed-explicit:dual first mismatch at j=1 z^3: explicit 3 != closed 2",
            ],
            id="dual-den1",
        ),
    ],
)
def test_verify_sees_a_fault_in_a_shared_form(inject, lines, monkeypatch, capsys):
    # the bad root below the axis, or a kernel's den0 or den1, is shared by
    # the ladders that read it: a fault in one reaches every check that reads
    # it, through one of those ladders or (for the bundle's P) directly, and
    # no other
    inject(monkeypatch)
    assert cli.main(["verify", "--order", "12", "--max-brute-length", "6"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [l for l in out if l.startswith("FAIL ")] == lines


def _bump_red_root(fn):
    """Wrap ``dual_blue_g0``: add 1 to the top w-coefficient of its last z^n
    but two, which moves the top w-coefficient of W_w = 1 - wz^2 - 2z^2 G
    at the series' own order."""

    def faulty(order):
        s = fn(order)
        top = len(s.coeffs[order - 2].coeffs) - 1
        return s + Series.from_dict({order - 2: WPoly([0] * top + [1])}, order, WPOLY)

    return faulty


_RED_ROOT_FAIL = "FAIL kernel-identities Ww^2 != (1-z^2 w)(1-(4+w)z^2)"
_SUBSTITUTION_FAIL = "; substitution(substitution weight 2+w); substitution(substitution weight 3)"


@pytest.mark.parametrize(
    "order, line",
    [
        # G is built to z^40 at any lower order: the full square sees the bump
        # at z^38, which the substitution identity, read to x^8, does not
        (8, _RED_ROOT_FAIL),
        # read to x^20, the red axis from the same series sees it at x^19
        (32, _RED_ROOT_FAIL + _SUBSTITUTION_FAIL),
        # past z^40 only the linear identity reads W_w, and the substitution
        # identity reads the red axis to x^20 only
        (44, _RED_ROOT_FAIL),
    ],
)
def test_verify_fails_on_a_bumped_red_root(order, line, monkeypatch, capsys):
    monkeypatch.setattr(genfunc, "dual_blue_g0", _bump_red_root(genfunc.dual_blue_g0))
    argv = ["verify", "--order", str(order), "--max-brute-length", "6", "--family", "dual"]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [l for l in lines if l.startswith("FAIL ")] == [line]


def test_verify_squares_the_red_root_to_z40(monkeypatch, capsys):
    # with the linear identity switched off, the full square alone still
    # sees a bumped W_w at z^40
    monkeypatch.setattr(cli, "_squares_to", lambda s, poly: True)
    monkeypatch.setattr(genfunc, "dual_blue_g0", _bump_red_root(genfunc.dual_blue_g0))
    argv = ["verify", "--order", "40", "--max-brute-length", "6", "--family", "dual"]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [l for l in lines if l.startswith("FAIL ")] == [_RED_ROOT_FAIL + _SUBSTITUTION_FAIL]


@pytest.mark.parametrize("n", range(13))
def test_linear_square_identity_fails_where_the_square_does(n):
    # W and W_w with z^n moved: at every truncation the linear identity
    # holds exactly when the square does
    for root, poly in (
        (genfunc.kernel_bundle(12).W, {0: 1, 2: -6, 4: 5}),
        (red_root(12), {0: 1, 2: -4 - 2 * W_VAR, 4: W_VAR * (4 + W_VAR)}),
    ):
        bad = root + Series.from_dict({n: 1}, 12, root.ring)
        for m in range(13):
            s = bad.truncate(m)
            square = s * s == Series.from_dict(poly, m, root.ring)
            assert cli._squares_to(s, poly) == square == (m < n), (m, root.ring)
        assert cli._squares_to(root, poly)


# sha256 of the whole standard output, with the exit code, of CLI runs that
# every change of the kernel route and the checks must leave byte-identical;
# a digest changes only with a deliberate change of that output
_DIGESTS = {
    "table --family primal --levels 0..20 --order 200":
        (0, "3d74286591f4d51f482c3de24bf0be3d3aa8b17c46c6f93e8efd5a0f95d3ab09"),
    "table --family primal --levels 0..20 --order 200 --format record":
        (0, "431c2a4bd5757f571c61ebc1cecd5556b7909d2dc65dcd345431c0340f10e6e6"),
    "table --family dual --levels 0..20 --order 200":
        (0, "4a7bb5e9cba4d202881cff631836d3d773537a9399f8271e2ef7f86fe69f73c0"),
    "table --family dual --levels 0..20 --order 200 --format record":
        (0, "2157d574ddd2fab24fc5671bee71d60ff61a9d3a9c018e0cba73f6c448a3655c"),
    "table --family unbounded --levels=-12..12 --order 120":
        (0, "89ca6ee2b1a0c1e7787f2a4f546acf72d55476583d60aff4f481f62aa2fe1be3"),
    "table --family unbounded --levels=-12..12 --order 120 --format record":
        (0, "759607c44991e9bc717b41947665ca4d083eadfa3a77aeaa50d06504865082be"),
    "verify --order 96 --max-brute-length 8":
        (0, "f1016b89907f651b5a8b9a066cd2cde10fa9c0cd3eccddb970bc7076ad5d0b91"),
    "verify --max-brute-length 10 --inject-fault":
        (1, "66228b519e71d08f0541949c43d29519ddf8ac16a8d87b5b0384c068339eb866"),
    "stats-red --order 90":
        (0, "d6b516cf294037991fa3996999714b029cf125be16b528a725c1222d99f980a5"),
    "oeis A002212": (0, "d864839ab076649f36111f7741f8c0ba10a3802690325444edfb9bd81cd49936"),
    "oeis A033321": (0, "1181455ca7d63d8a807aff93e73871b70c38a6843ec9d94c5547e7d2f0bc9fc5"),
}


@pytest.mark.parametrize("command", sorted(_DIGESTS))
def test_output_digest(command, capsys):
    code = cli.main(command.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == _DIGESTS[command]


def test_verify_recursions_fail_line(monkeypatch, capsys):
    # a DP table with one bumped count fails brute-dp and the recursions;
    # dp-closed builds its table without the colour marker, untouched
    real = dp.dp_table

    def faulty(family, max_length, with_color_marker=True):
        table = real(family, max_length, with_color_marker)
        return bumped(table, 4, 0, "g", 0) if with_color_marker else table

    monkeypatch.setattr(dp, "dp_table", faulty)
    argv = ["verify", "--order", "8", "--max-brute-length", "6", "--family", "primal"]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [l for l in lines if l.startswith("FAIL ")] == [
        "FAIL brute-dp:primal first mismatch at (n=4, j=0, cls=g, k=0): brute 2 != dp 3",
        "FAIL recursions:primal f_1 = z f_0 + z g_0: first mismatch at z^5: 2 != 3",
    ]
    assert lines[-1] == "OVERALL FAIL"


def test_verify_builds_each_family_once(monkeypatch, capsys):
    calls = []
    for name in ("primal_levels", "dual_levels", "negative_levels"):
        real = getattr(genfunc, name)

        def counting(*args, real=real, name=name, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((name, bound.arguments["order"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(genfunc, name, counting)
    assert cli.main(["verify", "--order", "8", "--max-brute-length", "6"]) == 0
    assert {name for name, _ in calls} == {"primal_levels", "dual_levels", "negative_levels"}
    assert len(calls) == len(set(calls)), calls


def test_verify_builds_the_red_axis_once(monkeypatch, capsys):
    # one G = dual_blue_g0 for the red checks and kernel-identities alike
    calls = []
    real = genfunc.dual_blue_g0
    monkeypatch.setattr(genfunc, "dual_blue_g0", lambda *a: calls.append(a) or real(*a))
    assert cli.main(["verify"]) == 0
    assert calls == [(40,)], calls


@pytest.mark.parametrize(
    "argv", [["table", "--levels", "0..2"], ["verify", "--order", "8", "--max-brute-length", "4"]]
)
def test_engine_error_exits_2(argv, monkeypatch, capsys):
    # exit 1 is reserved for a reported mismatch; any error exits 2
    def inexact(*args, **kwargs):
        raise ExactnessError("3 is not divisible by 2")

    monkeypatch.setattr(genfunc, "primal_levels", inexact)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.splitlines() == ["error: 3 is not divisible by 2"]


def test_error_without_text_names_its_type(monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(genfunc, "primal_levels", out_of_memory)
    assert cli.main(["table", "--levels", "0..2"]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_output_passes_the_digit_limit_of_the_caller(capsys):
    # the coefficients of z^1900 have over 640 digits; the command lifts
    # the limit for itself and restores the caller's
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert cli.main(["table", "--levels", "0..0", "--order", "1900"]) == 0
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(before)
    assert max(len(field) for field in capsys.readouterr().out.split()) > 640


def test_verify_inject_fault_line(capsys):
    argv = ["verify", "--order", "8", "--max-brute-length", "6", "--family", "primal"]
    assert cli.main(argv + ["--inject-fault"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [l for l in lines if l.startswith("FAIL ")] == [
        "FAIL dp-closed:primal first mismatch at j=0 z^4: closed 4 != dp 3"
    ]


_ORDERS = st.integers(0, 10)
_FAMILIES = st.sampled_from(sorted(cli._CLI_FAMILIES))


@st.composite
def _argv(draw):
    """A small argument vector, and whether verify must report a mismatch."""
    command = draw(st.sampled_from(["table", "verify", "paths", "stats-red"]))
    if command == "table":
        lo, hi = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
        argv = ["table", "--family", draw(_FAMILIES), f"--levels={lo}..{hi}"]
        argv += ["--order", str(draw(_ORDERS))]
        return argv + ["--format", draw(st.sampled_from(["tsv", "record"]))], False
    if command == "verify":
        families, order = draw(st.lists(_FAMILIES, max_size=2)), draw(_ORDERS)
        argv = ["verify", "--order", str(order)]
        argv += ["--max-brute-length", str(draw(st.integers(0, 8)))]
        for family in families:
            argv += ["--family", family]
        fault = draw(st.booleans())
        primal = not families or "primal" in families
        return argv + ["--inject-fault"] * fault, fault and primal and order >= 4
    if command == "paths":
        argv = ["paths", "--family", draw(_FAMILIES), "--length", str(draw(st.integers(0, 8)))]
        end_level = draw(st.none() | st.integers(-4, 4))
        if end_level is not None:
            argv.append(f"--end-level={end_level}")
        return argv + ["--render"] * draw(st.booleans()), False
    return ["stats-red", "--order", str(draw(_ORDERS))], False


@settings(max_examples=40, deadline=None)
@given(_argv())
def test_cli_fuzz_exit_codes(case):
    argv, mismatch = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert (code == 1) == mismatch, (argv, out.getvalue(), err.getvalue())
