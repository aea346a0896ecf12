"""Smoke test of the benchmark at tiny job sizes.

Run with ``python -m pytest bench/tests`` from the root of the repository
(the Tier-1 suite collects only ``tests/``).  Nothing here asserts a timing.
"""

import json
import shutil
import subprocess
import sys
from fnmatch import fnmatch
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert any(line.startswith("fail_frac = ") for line in lines)
    environment = json.loads(next(line for line in lines if line.startswith("# environment ")).split(" ", 2)[2])
    assert {"python", "cpu", "nproc", "git_sha", "seed"} <= set(environment)
    if workload == "cli-verify":  # every deck holds fault canaries
        assert any(line.startswith("fault canaries run: ") for line in lines)


def test_layer_map_covers_every_per_layer_metric():
    layers = json.loads((BENCH / "layers.json").read_text())["layers"]
    patterns = [p for layer in layers for p in layer["metrics"]]
    for metric in SPEC["per_layer"]:
        assert any(fnmatch(metric["name"], p) for p in patterns), metric["name"]


def cli(*argv):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "cli_entry.py"), *argv],
        env=run.child_env(), cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_injected_fault_is_detected():
    workload = run.CliVerify(run.SIZES["tiny"], run.child_env())
    argv = ["verify", "--order", "8", "--max-brute-length", "4", "--family", "primal"]
    clean, faulty = cli(*argv), cli(*argv, "--inject-fault")
    job = {"families": ("primal",), "fault": False}
    canary = {"families": ("primal",), "fault": True}
    assert workload.check(job, clean) is None
    assert workload.check(canary, faulty) is None
    assert workload.check(job, faulty) is not None  # a fault where none was injected
    assert workload.check(canary, clean) is not None  # a verify that stopped checking


def test_wrong_table_row_is_detected():
    workload = run.CliTables(run.SIZES["tiny"], run.child_env())
    job = {"family": "primal", "levels": (0, 1), "order": 6, "format": "tsv"}
    out = cli("table", "--family", "primal", "--levels=0..1", "--order", "6")
    assert workload.check(job, out) is None
    code, stdout, stderr = out
    header, row0, row1 = stdout.splitlines()
    assert row0 == "0\t1\t0\t1\t0\t3\t0\t10"
    wrong = "\n".join([header, "0\t1\t0\t1\t0\t4\t0\t10", row1]) + "\n"
    assert workload.check(job, (code, wrong, stderr)) is not None


def test_wrong_library_answer_is_detected():
    workload = run.LibQueries(run.SIZES["tiny"], run.child_env())
    job = {"family": "bounded", "length": 6,
           "lookups": [["count", 6, 0, None, None], ["wpoly", 6, 0]], "formulas": [["primal", 0, 3]]}
    assert workload.check(job, {"lookups": [10, [5, 4, 1]], "formulas": [10]}) is None
    assert workload.check(job, {"lookups": [10, [5, 4, 1]], "formulas": [11]}) is not None
    assert workload.check(job, {"lookups": [10, [5, 4]], "formulas": [10]}) is not None
    assert workload.check(job, {"error": "ValueError: boom"}) is not None


def test_missing_program_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
