"""End-to-end tests of the command-line interface."""

import contextlib
import inspect
import io
import os
import subprocess
import sys

import pytest
from conftest import bumped
from hypothesis import given, settings
from hypothesis import strategies as st

import skewdyck
from skewdyck import cli, dp, formulas, genfunc, paths, refs
from skewdyck.dp import dp_table
from skewdyck.paths import DUAL, PathWord
from skewdyck.series import ExactnessError, Series

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
        "FAIL reference:A002212 expected " + str(refs.A002212)
        + ", computed " + str((1, 1, 4) + refs.A002212[3:]),
    ),
    "reference:A033321": (
        genfunc, "negative_axis_series",
        lambda fn: _bump_series(fn, lambda cls, **kw: cls == "sum", 6), ["unbounded"],
        "FAIL reference:A033321 expected " + str(refs.A033321_PREFIX)
        + ", computed " + str((1, 2, 6, 22) + refs.A033321_PREFIX[4:]),
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
        genfunc, "red_axis_x",
        lambda fn: _bump_series(fn, lambda **kw: True, 2), ["dual"],
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
    calls = []
    real = genfunc.red_axis_x
    monkeypatch.setattr(genfunc, "red_axis_x", lambda **kw: calls.append(kw) or real(**kw))
    assert cli.main(["verify"]) == 0
    assert len(calls) == 1, calls


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
