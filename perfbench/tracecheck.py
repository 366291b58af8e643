"""Check one workload's traced run and report the tracing overhead.

Usage (from the repository root):

    python3 perfbench/tracecheck.py --workload cli-mix [--seed 1]

Runs the seed's pass once untraced and twice traced.  Fails (exit 1) unless
every count (calls, raised, max degree, lift levels, principality ratios,
norm candidates, report bytes) is identical in the two traced passes and
every report matches its pinned outcome.  Prints the tracing overhead (traced
report_s.p50 minus untraced) and where each pass spent its time: self time
of the five busiest layers as a share of cli.main, and cli.startup_s plus
cli.handler.self_s as a share of the children's wall time.
"""

from __future__ import annotations

import argparse
import statistics
import sys

import run
import workloads

def is_count(name, m):
    return m["unit"] != "s" and name != "recheck.share"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    run.prepare()
    expected = run.load_expected()
    ops = workloads.generate(args.workload, args.seed)
    # --seconds 0 stops each loop after its first pass.
    with run.Spawner() as spawner:
        plain, _, _ = run.run_passes(spawner, ops, 0, expected)
        first, _, _ = run.run_passes(spawner, ops, 0, expected, trace=True)
        second, _, _ = run.run_passes(spawner, ops, 0, expected, trace=True)
    failures = [r for r in plain + first + second if r.error is not None]
    for r in failures:
        print(f"FAILED {workloads.op_key(r.child.op)}: {r.error}")
    a, b = run.per_layer(first, 1), run.per_layer(second, 1)
    differ = [k for k, m in a.items() if is_count(k, m) and m["value"] != b[k]["value"]]
    for k in differ:
        print(f"count differs between traced passes: {k}: {a[k]['value']} vs {b[k]['value']}")

    untraced = statistics.median(r.child.wall_s for r in plain)
    traced = a["trace.report_s.p50"]["value"]
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops per pass")
    print(f"report_s.p50 untraced {untraced:.4f} s, traced {traced:.4f} s, overhead {traced - untraced:+.4f} s")
    main_s = a["cli.main.total_s"]["value"]
    selfs = sorted(((m["value"], k[: -len(".self_s")]) for k, m in a.items() if k.endswith(".self_s")), reverse=True)
    for value, name in selfs[:5]:
        print(f"  {name:45s} self {value:8.3f} s = {value / main_s:6.1%} of cli.main ({main_s:.3f} s)")
    startup = a["cli.startup_s"]["value"] + a["cli.handler.self_s"]["value"]
    wall = a["trace.wall_s"]["value"]
    print(f"  cli.startup_s + cli.handler.self_s {startup:.3f} s = {startup / wall:.1%} of child wall ({wall:.3f} s)")
    print(f"  core.Poly.mul.calls {a['core.Poly.mul.calls']['value']:g}, recheck.share {a['recheck.share']['value']:.3f}")
    print(f"counts identical in both traced passes: {'yes' if not differ else 'NO'}")
    return 1 if failures or differ else 0


if __name__ == "__main__":
    sys.exit(main())
