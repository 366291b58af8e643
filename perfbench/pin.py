"""Pin the outcome of every op the generator can emit, for every workload,
plus the set-up op, into expected.json.

Usage (from the repository root): python3 perfbench/pin.py

Run it only at a commit whose reports are trusted: the benchmark counts any
later difference in exit code, verdict, recheck status or semantic field as
a failed operation.  Refuses to pin an op that does not give a certified
report (exit 0 or 1 with "recheck": "passed").
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    run.prepare()
    tables = {"setup": [workloads.SETUP_OP]}
    tables.update({w: workloads.pool(w) for w in workloads.WORKLOADS})
    pinned, bad = {}, []
    with run.Spawner() as spawner:
        for table, ops in tables.items():
            pinned[table] = {}
            for op in ops:
                child = spawner.run_child(op)
                got = run.outcome(child)
                print(f"{child.wall_s:7.3f}s {got.get('verdict')} :: {workloads.op_key(op)}", flush=True)
                if child.timed_out or got.get("recheck") != "passed" or got["exit"] not in (0, 1):
                    bad.append((op, got, child.stderr[-300:]))
                pinned[table][workloads.op_key(op)] = got
    if bad:
        for op, got, err in bad:
            print(f"not a certified report: {workloads.op_key(op)}: {got} {err!r}", file=sys.stderr)
        return 1
    run.EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
