"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# sha256 of json.dumps(generate(workload, 7)); changing the generator changes
# the benchmark, so these move only together with a re-baseline.
GENERATED_SHA256 = {
    "poly-chains": "806a20d01c912b683fb1d1bdd25b9afdef70678c1ebcf81161a0759053907e15",
    "comax-quad": "7a9e40a2648c5cf92de97050e02871d5f0974e92906d9f596a523c49a0a6647e",
    "cli-mix": "d04cec6e71e4305b3e0fef0a863eafc314e58a2b1417e4ebcb4305d58b3d31b7",
}


@pytest.fixture(scope="module")
def spawner():
    run.prepare()
    with run.Spawner() as sp:
        yield sp


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_stable_for_a_seed(workload):
    ops = workloads.generate(workload, 7)
    assert ops == workloads.generate(workload, 7)
    assert ops != workloads.generate(workload, 8)
    assert hashlib.sha256(json.dumps(ops).encode()).hexdigest() == GENERATED_SHA256[workload]
    assert len(ops) == len(workloads.strata(workload))


def test_every_op_any_seed_can_emit_has_a_certified_pinned_outcome():
    expected = run.load_expected()
    ops = [workloads.SETUP_OP] + [op for w in workloads.WORKLOADS for op in workloads.pool(w)]
    for op in ops:
        want = expected[workloads.op_key(op)]
        assert want["recheck"] == "passed" and want["exit"] in (0, 1), op
        assert run.FIELDS[f"{op[0]} {op[1]}"]


def test_comax_support_size_is_known_from_the_chosen_primes():
    sys.path.insert(0, str(run.SRC))
    from princlab.exprparse import parse_element
    from princlab.quadring import QuadOrder, factor_principal

    for stratum, (d, k) in zip(workloads.strata("comax-quad"),
                               [(d, k) for d in workloads.QUAD_RINGS for k in workloads.SUPPORT_SIZES]):
        for op in stratum:
            b = parse_element(op[-1], QuadOrder(d))
            assert len(factor_principal(b)) == k, op
            assert b.norm() <= workloads.NORM_CAP


def test_cli_mix_covers_every_subcommand():
    commands = {f"{op[0]} {op[1]}" for op in workloads.pool("cli-mix")}
    assert commands == set(run.FIELDS)


def test_self_time_subtracts_direct_children():
    spans = [
        ("cli.main", 0.0, 10.0, -1, False),
        ("cli.handler", 1.0, 9.0, 0, False),
        ("core.Poly.mul", 2.0, 3.0, 1, False),
        ("core.Poly.mul", 4.0, 6.0, 1, True),
    ]
    totals = run.layer_totals([{"spans": spans}])
    assert totals["cli.main"] == {"calls": 1, "total_s": 10.0, "self_s": 2.0, "raised": 0}
    assert totals["cli.handler"]["self_s"] == 5.0
    assert totals["core.Poly.mul"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0, "raised": 1}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_child_prints_the_same_bytes(workload, tmp_path, spawner):
    op = min(workloads.pool(workload), key=lambda op: len(" ".join(op)))
    plain = spawner.run_child(op)
    spans = tmp_path / "spans.json"
    with_trace = spawner.run_child(op, spans, op_id=5)
    assert plain.code == with_trace.code
    assert plain.stdout == with_trace.stdout
    doc = json.loads(spans.read_text())
    assert doc["op"] == 5
    assert {s[0] for s in doc["spans"]} >= {"cli.main", "cli.handler", "recheck.verify_report"}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_in_benchmark_json_is_emitted(trace, section):
    res = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "cli-mix", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert res.returncode == 0, res.stderr
    last = json.loads(res.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in last["metrics"].items()} == want
