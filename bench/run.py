"""skewdyck benchmark: closed-loop workloads with every output checked.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (one client, closed loop: a job starts when the previous one ends):

* ``cli-tables``  - ``skewdyck table`` jobs, each in a fresh interpreter;
* ``cli-verify``  - ``skewdyck verify`` jobs, each in a fresh interpreter,
  a seeded share of them with ``--inject-fault`` as a canary;
* ``lib-queries`` - one long-lived library process answering ``dp_table``
  builds, ``CountTable`` lookups and explicit-formula queries.

Jobs come in seeded decks.  A deck covers the parameter ranges of its
workload with a fixed design of job sizes (``SIZES`` and each ``deck``
method); the seed draws the contents of the jobs and their order.  A run
holds a fixed number of whole decks: ``--seconds`` divided by the workload's
``DECK_SECONDS`` (the time one deck takes on a 2-vCPU Intel Xeon with
CPython 3.11), rounded, and at least one.  So every seed and every run sees
the same spread of job sizes and the same job count, on which the tail
percentile depends.  The program
under test is ``src/skewdyck`` of the checkout; the benchmark imports it
from there and exits with code 2, printing no result, when it is missing.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first runs the
decks of half of ``--seconds`` untraced, then runs the same jobs again under
the outside-in tracer (``bench/tracer.py``) and prints the per-layer metrics
and the tracing overhead.  Every job's output is checked against a second
route outside the timed span.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--tiny`` shrinks every job for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 24
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs beyond it

sys.path.insert(0, str(SRC))

from lib_worker import encode  # noqa: E402
from tracer import SPAN_NAMES  # noqa: E402

# Every job of a workload costs about the same, so that the median and the
# tail percentile of a run rest on many like jobs and not on where the seed
# puts a few big ones.  The seed draws what does not change the cost: table
# formats, brute-force lengths, canaries, lookups, formula arguments and the
# order of the jobs.  Costs were fitted on a 2-vCPU Intel Xeon with CPython
# 3.11.
SIZES = {
    "full": {
        # family -> {table width: order}; a table of more levels gets a lower
        # order, so each job takes about 0.35 s including interpreter start
        "table_orders": {
            "primal": {0: 64, 1: 52, 2: 46, 3: 43, 4: 41, 5: 38, 6: 36, 7: 34, 8: 32},
            "dual": {0: 64, 1: 51, 2: 44, 3: 40, 4: 36, 5: 33, 6: 31, 7: 29, 8: 27},
            "unbounded": {1: 32, 2: 25, 3: 21, 4: 17, 5: 15, 6: 14},
        },
        # a single-family verify at the plateau order takes about 1 s, the
        # pair and the triple about 2.5 s and 4 s; the brute-force length
        # barely moves the cost
        "verify_plateau_order": 16, "verify_pair_order": (20, 24), "verify_triple_order": (28, 32),
        "verify_brute": (8, 14),
        # family -> dp_table length; each session takes about 0.3 s
        "lib_length": {"bounded": 96, "dual": 66, "unbounded": 60},
        "lib_sessions": 4,
        "lib_levels": {"bounded": (0, 6), "dual": (0, 6), "unbounded": (-3, 3)},
        "formula_level": (0, 8), "red_n": (1, 40),
    },
    "tiny": {
        "table_orders": {"primal": {0: 10, 1: 6}, "dual": {0: 10, 1: 6}, "unbounded": {1: 6}},
        "verify_plateau_order": 8, "verify_pair_order": (8, 9), "verify_triple_order": (9, 10),
        "verify_brute": (4, 6),
        "lib_length": {"bounded": 13, "dual": 10, "unbounded": 9},
        "lib_sessions": 2,
        "lib_levels": {"bounded": (0, 2), "dual": (0, 2), "unbounded": (-1, 1)},
        "formula_level": (0, 2), "red_n": (1, 6),
    },
}


class BenchError(Exception):
    """The benchmark cannot run here (for example, the program is missing)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # the dict layouts of string-keyed tables, and with them the speed of a
    # long-lived process, otherwise change from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


# --- workloads ---------------------------------------------------------------


class CliWorkload:
    """Each job is one CLI command in a fresh interpreter (``cli_entry.py``)."""

    def __init__(self, sizes, env):
        self.sizes = sizes
        self.env = env
        self.dead = False

    def start(self, run_dir, trace):
        self.run_dir = run_dir
        self.trace = trace
        self.rss_mib = []
        self.dumps = []

    def run(self, job_id, job):
        argv = [sys.executable, str(BENCH / "cli_entry.py")]
        if self.trace:
            dump = self.run_dir / f"trace-{job_id}.json"
            self.dumps.append(dump)
            argv += ["--trace-out", str(dump), "--job", str(job_id)]
        out_path, err_path = self.run_dir / "stdout", self.run_dir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv + job["argv"], stdout=out, stderr=err, env=self.env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mib.append(usage.ru_maxrss / 1024)
        return proc.returncode, out_path.read_text(), err_path.read_text()

    def stop(self):
        pass

    @staticmethod
    def check_process(out):
        code, _, stderr = out
        if "Traceback" in stderr:
            return f"traceback on stderr (exit {code}): {stderr.strip().splitlines()[-1]}"
        return None


# CLI family name -> dp family name
CLI_FAMILIES = {"primal": "bounded", "dual": "dual", "unbounded": "unbounded"}


class CliTables(CliWorkload):
    """``skewdyck table`` jobs; each row is checked against DP counts."""

    DECK_SECONDS = 9

    def __init__(self, sizes, env):
        super().__init__(sizes, env)
        self._dp = {}
        self._rows = {}

    def deck(self, rng):
        # one job per (family, table width) of the size table
        jobs = []
        for fam, orders in self.sizes["table_orders"].items():
            for width, order in orders.items():
                lo, hi = (-width, width) if fam == "unbounded" else (0, width)
                fmt = rng.choice(("tsv", "record"))
                argv = ["table", "--family", fam, f"--levels={lo}..{hi}", "--order", str(order), "--format", fmt]
                jobs.append({"argv": argv, "family": fam, "levels": (lo, hi), "order": order, "format": fmt})
        rng.shuffle(jobs)
        return jobs

    def _reference_row(self, fam, j):
        """DP counts [count(0, j), ..., count(N, j)] at the largest order of the mix."""
        if (fam, j) not in self._rows:
            if fam not in self._dp:
                from skewdyck import dp_table

                top = max(self.sizes["table_orders"][fam].values())
                self._dp[fam] = dp_table(CLI_FAMILIES[fam], top, with_color_marker=False)
            self._rows[fam, j] = self._dp[fam].coefficients(j)
        return self._rows[fam, j]

    def check(self, job, out):
        problem = self.check_process(out)
        if problem:
            return problem
        code, stdout, _ = out
        if code != 0:
            return f"exit {code}"
        order, (lo, hi) = job["order"], job["levels"]
        try:
            got = _parse_table(stdout, job["format"], job["family"], order)
        except (ValueError, KeyError) as exc:
            return f"unparsable table output: {exc!r}"
        for j in range(lo, hi + 1):
            want = self._reference_row(job["family"], j)[: order + 1]
            if got.get(j) != want:
                return f"level {j}: table {got.get(j)} != dp {want}"
        if set(got) != set(range(lo, hi + 1)):
            return f"levels {sorted(got)} != {lo}..{hi}"
        return None


def _parse_table(text, fmt, family, order):
    rows = {}
    lines = text.splitlines()
    if fmt == "tsv":
        if not lines or lines[0].split("\t") != ["j"] + [str(n) for n in range(order + 1)]:
            raise ValueError("bad header")
        for line in lines[1:]:
            j, *values = line.split("\t")
            rows[int(j)] = [int(v) for v in values]
        return rows
    for line in lines:
        fields = dict(part.split("=", 1) for part in line.split("\t"))
        if fields.get("family") != family:
            raise ValueError(f"bad record {line!r}")
        j, n = int(fields["j"]), int(fields["n"])
        row = rows.setdefault(j, [])
        if n != len(row):
            raise ValueError(f"record out of order: {line!r}")
        row.append(int(fields["value"]))
    return rows


VERIFY_SUBSETS = [
    fams
    for r in (1, 2, 3)
    for fams in itertools.combinations(("primal", "dual", "unbounded"), r)
]


def expected_checks(families):
    """Check ids ``skewdyck verify`` reports for a family subset."""
    ids = [f"brute-dp:{f}" for f in families] + [f"dp-closed:{f}" for f in families]
    if "primal" in families:
        ids += ["closed-explicit:primal", "closed-explicit:red", "reversal-duality"]
    if "dual" in families:
        ids.append("closed-explicit:dual")
    ids.append("kernel-identities")
    if "primal" in families or "unbounded" in families:
        ids.append("reference:A002212")
    if "unbounded" in families:
        ids.append("reference:A033321")
    return ids


class CliVerify(CliWorkload):
    """``skewdyck verify`` jobs; exit code and PASS/FAIL lines are checked.

    ``FAULTS`` jobs per deck carry ``--inject-fault``: each must exit 1
    with ``dp-closed:primal`` as its only FAIL line.
    """

    FAULTS = 2
    # single-family jobs at the plateau order, per deck
    PLATEAU = ("primal",) * 4 + ("dual",) * 3 + ("unbounded",) * 3
    DECK_SECONDS = 16

    def deck(self, rng):
        # The verify time grows with the order and the number of families,
        # so the jobs cannot all cost the same.  A deck is ten single-family
        # jobs at the plateau order, which hold the median and the tail
        # percentile of a run, one pair of families higher up and all three
        # families at the top of the order range, close to the default
        # verify.  The seed picks the pair, the orders of the pair and the
        # triple, every brute-force length, the canaries (among the primal
        # plateau jobs) and the order of the jobs.
        sizes = self.sizes
        shapes = [((fam,), sizes["verify_plateau_order"]) for fam in self.PLATEAU]
        shapes.append((rng.choice(VERIFY_SUBSETS[3:6]), rng.randint(*sizes["verify_pair_order"])))
        shapes.append((VERIFY_SUBSETS[6], rng.randint(*sizes["verify_triple_order"])))
        faults = set(rng.sample(range(self.PLATEAU.count("primal")), self.FAULTS))
        jobs = []
        for i, (fams, order) in enumerate(shapes):
            argv = ["verify", "--order", str(order), "--max-brute-length", str(rng.randint(*sizes["verify_brute"]))]
            if len(fams) < 3:  # all three families is the default
                argv += [arg for f in fams for arg in ("--family", f)]
            if i in faults:
                argv.append("--inject-fault")
            jobs.append({"argv": argv, "families": fams, "fault": i in faults})
        rng.shuffle(jobs)
        return jobs

    def check(self, job, out):
        problem = self.check_process(out)
        if problem:
            return problem
        code, stdout, _ = out
        status = {}
        for line in stdout.splitlines():
            word, _, rest = line.partition(" ")
            if word in ("PASS", "FAIL"):
                status[rest.split(" ", 1)[0]] = word
        missing = [c for c in expected_checks(job["families"]) if c not in status]
        if missing:
            return f"missing checks {missing}"
        fails = sorted(c for c, word in status.items() if word == "FAIL")
        want_fails = ["dp-closed:primal"] if job["fault"] else []
        if fails != want_fails:
            return f"FAIL lines {fails} != {want_fails}"
        overall = "OVERALL FAIL" if job["fault"] else "OVERALL PASS"
        if stdout.splitlines()[-1:] != [overall]:
            return f"last line is not {overall!r}"
        if code != (1 if job["fault"] else 0):
            return f"exit {code}"
        return None


class LibQueries:
    """One ``lib_worker.py`` process answering sessions.

    A session builds a ``dp_table``, reads it with lookups and asks
    explicit-formula queries; the formula caches stay warm across sessions.
    """

    LOOKUPS = 16
    DECK_SECONDS = 4
    CLASSES = {"bounded": ("f", "g", "h"), "dual": ("a", "b", "c"), "unbounded": ("f", "g", "h")}

    def __init__(self, sizes, env):
        self.sizes = sizes
        self.env = env
        self.oracle = LibOracle(sizes)

    # -- jobs -----------------------------------------------------------

    def deck(self, rng):
        # the table lengths of the families are sized so that every session
        # takes about the same time (dual and unbounded tables grow about
        # three times faster with the length than bounded ones)
        jobs = []
        for fam, length in self.sizes["lib_length"].items():
            for _ in range(self.sizes["lib_sessions"]):
                jobs.append({
                    "family": fam,
                    "length": length,
                    "lookups": [self._lookup(rng, fam, length) for _ in range(self.LOOKUPS)],
                    "formulas": self._formulas(rng),
                })
        rng.shuffle(jobs)
        return jobs

    def _lookup(self, rng, fam, length):
        roll = rng.random()
        if fam != "unbounded" and roll < 0.3:  # colour-marked axis lookups
            n = 2 * rng.randint(0, length // 2)
            if roll < 0.15:
                return ["wpoly", n, 0]
            return ["count", n, 0, None, rng.randint(0, n // 2)]
        j = rng.randint(*self.sizes["lib_levels"][fam])
        n = abs(j) + 2 * rng.randint(0, (length - abs(j)) // 2)
        cls = rng.choice(self.CLASSES[fam]) if rng.random() < 0.3 else None
        return ["count", n, j, cls, None]

    def _formulas(self, rng):
        top = max(self.sizes["lib_length"].values())
        queries = []
        for name in ("primal", "dual"):
            for _ in range(2):
                j = rng.randint(*self.sizes["formula_level"])
                queries.append([name, j, rng.randint(1, (top - j) // 2)])
        queries += [["red", rng.randint(*self.sizes["red_n"])] for _ in range(2)]
        return queries

    # -- process --------------------------------------------------------

    def start(self, run_dir, trace):
        argv = [sys.executable, str(BENCH / "lib_worker.py")]
        self.dumps = []
        if trace:
            dump = run_dir / "trace-worker.json"
            self.dumps.append(dump)
            argv += ["--trace-out", str(dump)]
        self.err = open(run_dir / "worker.stderr", "w+")
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err,
            env=self.env, cwd=ROOT, text=True,
        )
        self.dead = False
        self.rss_mib = []

    def run(self, job_id, job):
        try:
            self.proc.stdin.write(json.dumps({"id": job_id, **job}) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass
        line = self.proc.stdout.readline()
        if not line:
            self.dead = True
            return {"error": "worker exited"}
        return json.loads(line)

    def stop(self):
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        self.proc.stdout.read()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.rss_mib.append(usage.ru_maxrss / 1024)
        self.err.seek(0)
        self.stderr = self.err.read()
        self.err.close()

    # -- checks ---------------------------------------------------------

    def check(self, job, reply):
        if "error" in reply:
            return f"{job['family']} session: {reply['error']}"
        expected = {
            "lookups": [self.oracle.lookup(job["family"], q) for q in job["lookups"]],
            "formulas": [self.oracle.formula(q) for q in job["formulas"]],
        }
        for kind, want in expected.items():
            got = reply.get(kind, [])
            if len(got) != len(want):
                return f"{len(got)} {kind} answers for {len(want)} queries"
            for query, answer, value in zip(job[kind], got, want):
                if answer != value:
                    return f"{job['family']} {query}: library {answer} != oracle {value}"
        return None


class LibOracle:
    """Second routes for library answers, computed in the benchmark process.

    ``dp_table`` lookups are checked against the kernel-method series
    (``genfunc``) and, for colour-marked axis counts, against
    ``red_coeff_explicit`` (by the reversal duality the blue-marked dual
    axis has the same counts).  Explicit-formula answers are checked
    against the level series, and ``red_coeff_explicit`` against a DP table.
    """

    def __init__(self, sizes):
        self.sizes = sizes
        self._bundle = None
        self._series = {}
        self._red = {}
        self._red_dp = None

    def _level_series(self, fam, j, cls):
        key = (fam, j, cls)
        if key not in self._series:
            from skewdyck import genfunc

            top = max(self.sizes["lib_length"].values())
            if self._bundle is None:
                self._bundle = genfunc.kernel_bundle(top + self.sizes["formula_level"][1] + 4)
            if fam == "unbounded" and cls == "total":  # the sum of the class series
                f, g, h = (self._level_series(fam, j, c) for c in ("f", "g", "h"))
                self._series[key] = f + g + h
            else:
                make = {
                    "bounded": genfunc.primal_level_series,
                    "dual": genfunc.dual_level_series,
                    "unbounded": genfunc.negative_level_series,
                }[fam]
                self._series[key] = make(j, cls, order=top, bundle=self._bundle)
        return self._series[key]

    def _red_axis(self, n):
        """The colour-marked axis counts at length n, as a WPoly."""
        if n not in self._red:
            from skewdyck import WPoly, red_coeff_explicit

            if n % 2:
                self._red[n] = WPoly()
            else:
                self._red[n] = red_coeff_explicit(n // 2) if n else WPoly((1,))
        return self._red[n]

    def lookup(self, fam, query):
        kind, n, j, *rest = query
        if kind == "wpoly":
            return encode(self._red_axis(n))
        cls, k = rest
        if k is not None:
            return encode(self._red_axis(n).coeff(k))
        return encode(self._level_series(fam, j, cls or "total").coeff(n))

    def formula(self, query):
        name, *args = query
        if name == "primal":
            j, m = args
            return encode(self._level_series("bounded", j, "total").coeff(2 * m + j))
        if name == "dual":
            j, big_n = args
            return encode(self._level_series("dual", j, "total").coeff(j + 2 * big_n))
        (n,) = args
        if self._red_dp is None:
            from skewdyck import dp_table

            self._red_dp = dp_table("bounded", 2 * self.sizes["red_n"][1])
        return encode(self._red_dp.wpoly(2 * n, 0))


WORKLOADS = {"cli-tables": CliTables, "cli-verify": CliVerify, "lib-queries": LibQueries}


# --- runs --------------------------------------------------------------------


class Pass:
    """One closed-loop pass over a list of jobs: (job, output, seconds) per
    job, wall time, peak RSS, trace dumps and failed checks.

    With ``setup_env`` about SETUP_REPEATS set-up times (``setup_once``) are
    taken between jobs, spread evenly over the pass so that they see the
    same machine as the jobs; they are left out of the pass's wall time.
    """

    def __init__(self, workload, jobs, trace, run_dir, setup_env=None):
        self.records = []
        self.setup_times = []
        every = max(1, -(-len(jobs) // SETUP_REPEATS))
        workload.start(run_dir, trace)
        start = perf_counter()
        probing = 0.0
        try:
            for i, job in enumerate(jobs):
                if setup_env is not None and i % every == 0:
                    t0 = perf_counter()
                    self.setup_times.append(setup_once(setup_env))
                    probing += perf_counter() - t0
                t0 = perf_counter()
                out = workload.run(len(self.records) + 1, job)
                self.records.append((job, out, perf_counter() - t0))
                if workload.dead:
                    break
        finally:
            self.wall = perf_counter() - start - probing
            workload.stop()
        self.peak_rss_mib = max(workload.rss_mib)
        self.dumps = [json.loads(p.read_text()) for p in workload.dumps if p.exists()]
        self.failures = []
        for job, out, _ in self.records:
            problem = workload.check(job, out)
            if problem:
                self.failures.append(problem)
        if getattr(workload, "stderr", "") and "Traceback" in workload.stderr:
            self.failures.append("traceback on worker stderr")

    @property
    def jobs(self):
        return [job for job, _, _ in self.records]


def tail(times):
    """(value, percentile): the highest percentile with TAIL_BEYOND jobs beyond it.

    With TAIL_BEYOND jobs or fewer no percentile qualifies; the maximum is
    returned, as percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def setup_once(env):
    """Wall time of a fresh interpreter importing skewdyck and its CLI."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import skewdyck, skewdyck.cli"],
        env=env, cwd=ROOT, capture_output=True, text=True,
    )
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"cannot import skewdyck from {SRC}: {proc.stderr.strip()}")
    return elapsed


def end_to_end(run):
    times = [dt for _, _, dt in run.records]
    tail_s, pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(run.setup_times), "s"),
        "jobs_per_s": (len(times) / run.wall, "1/s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (tail_s, "s"),
        "peak_rss_mb": (run.peak_rss_mib, "MiB"),
    }
    notes = [f"job_s_tail is p{pct:.1f} of {len(times)} jobs; setup_s is the median of {len(run.setup_times)}"]
    return metrics, notes


def per_layer(traced, untraced):
    spans = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
    distinct_orders = scanned = hits = misses = rows = 0
    dp_entries, missing = [], set()
    for dump in traced.dumps:
        for _sid, _parent, _job, name, start, end, self_s, outermost in dump["spans"]:
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += (end - start) if outermost else 0.0
            acc[2] += self_s
        distinct_orders += sum(len(orders) for orders in dump["kernel_orders"].values())
        scanned += dump["scanned"]
        dp_entries += dump["dp_entries"]
        missing.update(dump["missing"])
        cache = dump["trinomial_cache"]
        if cache:
            hits, misses, rows = hits + cache["hits"], misses + cache["misses"], max(rows, cache["rows"])
    metrics = {}
    for name in SPAN_NAMES:
        calls, total, self_s = spans[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.total_s"] = (total, "s")
        metrics[f"{name}.self_s"] = (self_s, "s")
    bundles = spans["genfunc.kernel_bundle"][0]
    lookups = spans["paths.CountTable.count"][0] + spans["paths.CountTable.wpoly"][0]
    metrics.update({
        "genfunc.kernel_bundle.distinct_orders": (distinct_orders, "count"),
        "genfunc.kernel_bundle.useful_ratio": (distinct_orders / bundles if bundles else 0.0, "ratio"),
        "paths.CountTable.scan_per_lookup": (scanned / lookups if lookups else 0.0, "entries"),
        "dp.dp_table.entries": (statistics.mean(dp_entries) if dp_entries else 0.0, "count"),
        "formulas.trinomial_row.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "formulas.trinomial_row.rows": (rows, "count"),
        "trace.overhead_frac": (traced.wall / untraced.wall - 1.0, "ratio"),
    })
    notes = [f"traced pass: {len(traced.records)} jobs in {traced.wall:.3f} s; "
             f"untraced pass: {untraced.wall:.3f} s"]
    if missing:
        notes.append(f"not wrapped (absent from the program): {sorted(missing)}")
    return metrics, notes


def environment(args):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(args):
    env = child_env()
    if not (SRC / "skewdyck" / "__init__.py").is_file():
        raise BenchError(f"the program is missing: no package at {SRC / 'skewdyck'}")
    workload = WORKLOADS[args.workload](SIZES["tiny" if args.tiny else "full"], env)
    rng = random.Random(f"{args.workload}:{args.seed}")

    def decks(seconds):
        count = max(1, round(seconds / workload.DECK_SECONDS))
        return [job for _ in range(count) for job in workload.deck(rng)]

    run_dir = ROOT / ".bench_run" / str(os.getpid())
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace == 0:
            passes = [Pass(workload, decks(args.seconds), False, run_dir, setup_env=env)]
            metrics, notes = end_to_end(passes[0])
        else:
            untraced = Pass(workload, decks(args.seconds / 2), False, run_dir)
            traced = Pass(workload, untraced.jobs, True, run_dir)
            passes = [untraced, traced]
            metrics, notes = per_layer(traced, untraced)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass
    attempted = sum(len(p.records) for p in passes)
    failures = [f for p in passes for f in p.failures]
    canaries = sum(1 for p in passes for job in p.jobs if job.get("fault"))
    print(f"# environment {json.dumps(environment(args))}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(f"fail_frac = {len(failures) / attempted} ({len(failures)} of {attempted} jobs)")
    if canaries:
        print(f"fault canaries run: {canaries} (each must exit 1 with only dp-closed:primal failing)")
    for note in notes:
        print(f"# {note}")
    for problem in failures[:20]:
        print(f"# FAILED {problem}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny job sizes (smoke test)")
    args = parser.parse_args(argv)
    try:
        run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
