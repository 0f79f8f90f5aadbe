"""Tests of the benchmark itself: seeded inputs, output checks, metric
names, and the default seed's work counters pinned exactly, so that a
change doing more work shows without a clock.

    python3 -m pytest -q bench/tests
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_always_generates_identical_inputs(workload):
    first = workloads.make_inputs(workload, run.DEFAULT_SEED)
    assert first == workloads.make_inputs(workload, run.DEFAULT_SEED)
    assert first != workloads.make_inputs(workload, run.HELD_OUT_SEED)


def test_field_residual_vanishes_only_at_the_center():
    # Equilateral: the center is the centroid, known without the library.
    verts = np.array([[[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]])
    center = verts.mean(axis=1)
    assert workloads.field_residual(verts, center)[0] < 1e-14
    assert workloads.field_residual(verts, center + [[0.01, 0.0]])[0] > 1e-3
    assert workloads.strictly_inside(verts, center)[0]
    assert not workloads.strictly_inside(verts, np.array([[2.0, 0.0]]))[0]


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == [BENCH.name]
    tracer = tracing.Tracer()
    log = run.Log()
    log.latencies.append(1.0)
    emitted = run.per_layer(tracer, log, log)
    assert [m["name"] for m in spec["per_layer"]] == list(emitted)
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in emitted.values()]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb"
    }


def test_failure_counts_do_not_depend_on_run_length(monkeypatch):
    # A small pool, so that the untimed finish of the first pass is quick.
    monkeypatch.setattr(workloads, "CENTERS_POOL", 3000)
    bench = run.Run("centers", run.DEFAULT_SEED)
    short, long = bench.measure(seconds=0.05), bench.measure(seconds=0.5)
    assert short.ops < long.ops
    assert (short.results, short.failed) == (long.results, long.failed)
    assert short.results == 3000


def traced_counters(workload: str, ops: int) -> dict:
    bench = run.Run(workload, run.DEFAULT_SEED)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    log = bench.measure(count=ops, tracer=tracer)
    calls, _ = tracer.layer_times()
    counts = {name: calls[name] for name in sorted(calls) if name != tracing.OP_SPAN}
    counts.update(tracer.counters)
    counts.update(log.counters)
    counts["results"] = log.results
    counts["failed"] = log.failed
    assert not bench.problems
    return counts


# Work counters of the default seed, pinned exactly.
PINNED = {
    ("centers", 200): {
        "center.solve_lambda": 400,
        "center.solve_lambda.evals": 7210,
        "center.solve_lambda.evals_max": 30,
        "failed": 0,
    },
    ("field_map", 3): {
        "potential.potential_closed": 73728,
        "potential.field_closed": 18438,
        "potential.potential_quadrature": 47,  # boundary rows sent to quadrature
        "quadrature.integrate_adaptive.nfev": 16335,
        "cli.grid.nan_rows": 0,
        "failed": 0,
    },
    ("riesz_arc", 1): {
        "riesz.rp_center": 81,
        "riesz.rp_center.newton_iters": 329,
        "quadrature.integrate_adaptive": 7926,
        "quadrature.integrate_adaptive.nfev": 1432950,
        "riesz.potential_arc.unconverged": 0,
        "failed": 0,
    },
}


@pytest.mark.parametrize("workload,ops", list(PINNED))
def test_default_seed_work_counters_are_pinned(workload, ops):
    counts = traced_counters(workload, ops)
    pinned = PINNED[(workload, ops)]
    assert {k: counts.get(k, 0) for k in pinned} == pinned
