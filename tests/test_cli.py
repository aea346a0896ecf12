"""End-to-end tests of the command-line interface."""

import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "skewdyck.cli"]


def run_cli(*args):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=300
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


def test_stats_red():
    res = run_cli("stats-red", "--order", "4")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "n\tpaths\tred_edges\taverage\tratio_to_n_over_5"
    assert lines[1] == "0\t1\t0\t0\t-"
    assert lines[4] == "3\t10\t6\t3/5\t1"


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
