"""princlab benchmark runner: certified-report throughput, one CLI call at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload {poly-chains,comax-quad,cli-mix}
                             --seed N --seconds S --trace {0,1}

Each operation is one `python -m princlab.cli --recheck ...` call in a fresh
interpreter, because every CLI user pays interpreter start and import on
every call, and a fresh process keeps a cross-call cache from showing a gain
users never get.  The load is a closed loop with one client: the next child
starts only after the previous one has exited.  Children get only the
generated argv; the runner sets no princlab setting in their environment.

A run repeats the seed's pass (see workloads.py) and stops at the pass
boundary nearest to --seconds; it always runs at least one pass.
Every report is checked against the outcome pinned in expected.json.

--trace 0 prints the end-to-end metrics; --trace 1 runs every child under
traced.py and prints the per-layer metrics.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  A result file
with the environment, the op list, every operation and the sample count
behind each metric is written to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import traced
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
EXPECTED = HERE / "expected.json"

SETUP_REPS = 7
OP_TIMEOUT_S = 60.0
# Set-up and passes together stop starting operations after this long, so a
# run exits within 180 s even when the program is much slower or hangs.
RUN_BUDGET_S = 150.0

# One semantic field per command, checked besides exit code, verdict and
# `"recheck": "passed"`.  `limitring eval` and `sphere reduce` pin the whole
# result, because their verifier checks nothing.
FIELDS = {
    "idem check": lambda r: r["pair"] and r["pair"]["orientation"],
    "idem matrix": lambda r: r.get("matrix"),
    "idem from-ideal": lambda r: r.get("bezout"),
    "ideal frompair": lambda r: r["norm"],
    "ideal mul": lambda r: r["norms"]["product"],
    "ideal invertible": lambda r: r["invertible"],
    "ideal principal": lambda r: r["generator"],
    "ideal factor": lambda r: len(r["factors"]),
    "comax factor": lambda r: [len(x["factorization"]["factors"]) for x in r.get("batch", [r])],
    "comax unique": lambda r: r["count"],
    "comax hunt": lambda r: r["witness"],
    "pullback reduce": lambda r: r["case"],
    "pullback nonufd": lambda r: len(r["chain"]),
    "mring split": lambda r: r["remainder"],
    "mring chain": lambda r: len(r["factors"]),
    "mring juett": lambda r: r["f2"],
    "limitring chain": lambda r: len(r["factors"]),
    "limitring eval": lambda r: r,
    "polyext witness": lambda r: r["witness"],
    "polyext counterexample": lambda r: r["witness"],
    "sphere projector": lambda r: r["checks"],
    "sphere reduce": lambda r: r,
}


class BenchError(Exception):
    pass


@dataclass
class Child:
    op: list
    code: int
    wall_s: float
    cpu_s: float
    rss_kb: int
    stdout: bytes
    stderr: bytes
    timed_out: bool
    spawn: float


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PRINC_LAB_SUPPORT_CAP", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Spawner:
    """Runs children through spawner.py, a small interpreter of its own, so a
    child's ru_maxrss does not start at the runner's resident size.  Use as a
    context manager; leaving it stops the spawner and any running child."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        )
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        if exc[0] is not None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            self.proc.wait()
        self.proc.stdout.close()

    def run_child(self, op, span_file=None, timeout=OP_TIMEOUT_S, op_id=0) -> Child:
        """One certified report in a fresh interpreter, reaped with wait4, so
        wall time, CPU time and peak RSS belong to this child alone."""
        if span_file is None:
            argv = [sys.executable, "-m", "princlab.cli", "--recheck", *op]
        else:
            argv = [sys.executable, str(HERE / "traced.py"), str(span_file), str(op_id), "--recheck", *op]
        out, err = OUT / f"stdout-{os.getpid()}", OUT / f"stderr-{os.getpid()}"
        request = {"argv": argv, "stdout": str(out), "stderr": str(err), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"the spawner exited with code {self.proc.wait()}")
        res = json.loads(line)
        child = Child(op, res["code"], res["wall_s"], res["cpu_s"], res["rss_kb"],
                      out.read_bytes(), err.read_bytes(), res["timed_out"], res["spawn"])
        out.unlink()
        err.unlink()
        return child


def outcome(child: Child) -> dict:
    """The checked part of a report: exit code, verdict, recheck, field."""
    try:
        report = json.loads(child.stdout)
        field = FIELDS[report["command"]](report["result"])
    except (ValueError, KeyError, TypeError) as exc:
        return {"exit": child.code, "error": f"unreadable report: {exc!r}"}
    return {"exit": child.code, "verdict": report["verdict"], "recheck": report.get("recheck"), "field": field}


def check(child: Child, expected: dict) -> str | None:
    """None if the child matches its pinned outcome, else the reason."""
    if child.timed_out:
        return "timeout"
    want = expected.get(workloads.op_key(child.op))
    if want is None:
        return "no pinned outcome"
    got = outcome(child)
    if got != want:
        return f"expected {want}, got {got}; stderr {child.stderr[-300:]!r}"
    if want["recheck"] != "passed" or want["exit"] not in (0, 1):
        return f"pinned outcome is not a certified report: {want}"
    return None


def load_expected() -> dict:
    if not EXPECTED.is_file():
        raise BenchError(f"missing {EXPECTED}")
    data = json.loads(EXPECTED.read_text())
    return {key: value for table in data.values() for key, value in table.items()}


def prepare():
    if not (SRC / "princlab" / "cli.py").is_file():
        raise BenchError(f"no princlab sources under {SRC}")
    OUT.mkdir(parents=True, exist_ok=True)
    # Byte-compile once, so no child pays for writing .pyc files.
    if not compileall.compile_dir(str(SRC / "princlab"), quiet=1):
        raise BenchError("princlab sources do not compile")


# ------------------------------------------------------------------ loops


@dataclass
class Op:
    child: Child
    error: str | None
    trace: dict | None = None  # summarize() of the child's span document


def checked(child: Child, expected: dict, trace=None) -> Op:
    """Check a child against its pinned outcome, then drop its output."""
    op = Op(child, check(child, expected), trace)
    child.stdout = child.stderr = b""
    return op


def summarize(doc) -> dict:
    """Per-op digest of a span document, so the runner holds no spans."""
    # spans[0] is cli.main, the outermost wrapper.
    return {"layers": layer_totals([doc]), "counters": doc["counters"], "main_start": doc["spans"][0][1]}


def run_passes(spawner, ops, seconds, expected, trace=False, deadline=math.inf):
    """Closed loop, one client.  Returns (records, passes, elapsed)."""
    records = []
    start = time.perf_counter()
    passes = 0
    while True:
        for op in ops:
            left = deadline - time.perf_counter()
            if left <= 0:
                return records, passes, time.perf_counter() - start
            op_id = len(records)
            span_file = OUT / f"spans-{os.getpid()}-{op_id}.json" if trace else None
            child = spawner.run_child(op, span_file, min(OP_TIMEOUT_S, left), op_id)
            summary = None
            if trace:
                if span_file.exists():
                    summary = summarize(json.loads(span_file.read_text()))
                span_file.unlink(missing_ok=True)
            records.append(checked(child, expected, summary))
        passes += 1
        elapsed = time.perf_counter() - start
        # Stop at the pass boundary nearest to --seconds.
        if elapsed + elapsed / passes / 2 > seconds:
            return records, passes, elapsed


def measure_setup(spawner, expected, deadline):
    out = []
    for _ in range(SETUP_REPS):
        left = deadline - time.perf_counter()
        if left <= 0:
            raise BenchError("set-up alone used up the run budget")
        child = spawner.run_child(workloads.SETUP_OP, timeout=min(OP_TIMEOUT_S, left))
        out.append(checked(child, expected))
    return out


# ---------------------------------------------------------------- metrics


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(records, elapsed, setup):
    ok = [r.child for r in records if r.error is None]
    if not ok:
        raise BenchError("no operation succeeded")
    walls = [c.wall_s for c in ok]
    setup_walls = [r.child.wall_s for r in setup]
    return {
        "reports_per_s": metric(len(ok) / elapsed, "1/s", len(records)),
        "report_s.p50": metric(statistics.median(walls), "s", len(walls)),
        "cpu_s.p50": metric(statistics.median(c.cpu_s for c in ok), "s", len(ok)),
        "peak_rss_mb": metric(max(c.rss_kb for c in ok) / 1024, "MB", len(ok)),
        "setup_s": metric(statistics.median(setup_walls), "s", len(setup_walls)),
    }


def layer_totals(docs):
    """Sum calls, total, self time and raised per span name over the span
    documents of many children.  Self time is a span's duration minus the
    durations of its direct children (one thread, so they never overlap)."""
    totals = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0} for name in traced.SPAN_NAMES}
    for doc in docs:
        spans = doc["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _, raised), covered in zip(spans, child_time):
            t = totals[name]
            t["calls"] += 1
            t["total_s"] += end - start
            t["self_s"] += end - start - covered
            t["raised"] += raised
    return totals


def per_layer(records, passes):
    passes = max(passes, 1)  # a run cut by RUN_BUDGET_S inside its first pass
    ok = [r for r in records if r.error is None and r.trace is not None]
    if not ok:
        raise BenchError("no traced operation succeeded")
    summaries = [r.trace for r in ok]
    out = {}
    units = {"calls": "count", "total_s": "s", "self_s": "s", "raised": "count"}
    totals = {name: {key: sum(s["layers"][name][key] for s in summaries) for key in units}
              for name in traced.SPAN_NAMES}
    for name, t in totals.items():
        for key, unit in units.items():
            out[f"{name}.{key}"] = metric(t[key] / passes, unit, passes)

    def counter(key):
        return [s["counters"][key] for s in summaries]

    calls = totals["quadring.ideal_is_principal"]["calls"]
    main_s = totals["cli.main"]["total_s"]
    verify_s = totals["recheck.verify_report"]["total_s"]
    # perf_counter is the system-wide monotonic clock, so the child's start
    # of cli.main compares with the runner's spawn time.
    startup = [r.trace["main_start"] - r.child.spawn for r in ok]
    walls = [r.child.wall_s for r in ok]
    out.update({
        "core.Poly.mul.max_degree": metric(max(counter("core.Poly.mul.max_degree")), "count", len(ok)),
        "limitring.lr_lift.levels": metric(sum(counter("limitring.lr_lift.levels")) / passes, "count", passes),
        "quadring.ideal_is_principal.distinct_frac": metric(
            sum(counter("quadring.ideal_is_principal.distinct")) / calls if calls else 0.0, "ratio", len(ok)),
        "quadring.ideal_is_principal.principal_frac": metric(
            sum(counter("quadring.ideal_is_principal.principal")) / calls if calls else 0.0, "ratio", len(ok)),
        "quadring.ideal_is_principal.norm_candidates": metric(
            sum(counter("quadring.ideal_is_principal.norm_candidates")) / passes, "count", passes),
        "report.bytes": metric(sum(counter("report.bytes")) / passes, "B", passes),
        "recheck.share": metric(verify_s / main_s, "ratio", len(ok)),
        "cli.startup_s": metric(sum(startup) / passes, "s", passes),
        "trace.wall_s": metric(sum(walls) / passes, "s", passes),
        "trace.report_s.p50": metric(statistics.median(walls), "s", len(walls)),
    })
    return out


# -------------------------------------------------------------- reporting


def environment(args):
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            commit = res.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    # Identifies the code under test also in a checkout without .git.
    digest = hashlib.sha256()
    for path in sorted((SRC / "princlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "sympy": sympy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def op_record(r: Op):
    c = r.child
    return {"op": c.op, "exit": c.code, "wall_s": c.wall_s, "cpu_s": c.cpu_s, "rss_kb": c.rss_kb, "error": r.error}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        prepare()
        expected = load_expected()
        ops = workloads.generate(args.workload, args.seed)
        deadline = time.perf_counter() + RUN_BUDGET_S
        with Spawner() as spawner:
            setup = [] if args.trace else measure_setup(spawner, expected, deadline)
            records, passes, elapsed = run_passes(spawner, ops, args.seconds, expected, bool(args.trace), deadline)
        metrics = per_layer(records, passes) if args.trace else end_to_end(records, elapsed, setup)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    all_ops = setup + records
    failures = [r for r in all_ops if r.error is not None]
    for r in failures:
        print(f"perfbench: FAILED {workloads.op_key(r.child.op)}: {r.error}", file=sys.stderr)
    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({
        "environment": environment(args),
        "op_list": ops,
        "passes": passes,
        "elapsed_s": elapsed,
        "failed_frac": len(failures) / len(all_ops),
        "metrics": metrics,
        "setup": [op_record(r) for r in setup],
        "operations": [op_record(r) for r in records],
    }, indent=1))
    print(f"perfbench: {len(records)} ops in {passes} passes, {elapsed:.1f} s; result file {result_file}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(all_ops),
        "failed": len(failures),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
