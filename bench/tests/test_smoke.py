"""Smoke test of the benchmark harness on a tiny count per workload.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import masbound.geometry  # noqa: E402

TINY = 2  # systems per workload


def _tiny(workload):
    """The TINY cheapest panel systems of a workload, with their golden entries."""
    golden = run.load_golden(workload)
    inputs = workloads.panel(workload)
    assert set(golden) == set(inputs), "golden file does not match the panel"
    ids = sorted(inputs, key=lambda p: (golden[p]["stratum"], p))[:TINY]
    return golden, {p: inputs[p] for p in ids}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_metrics_and_gate(workload):
    golden, inputs = _tiny(workload)
    order = workloads.visiting_order(inputs, seed=7)
    assert order == workloads.visiting_order(inputs, seed=7)
    results, elapsed, passes = run.measure(workload, order, inputs, seconds=0.0, ref=reference.Reference())
    assert passes == 1 and len(results) == TINY
    assert all(r.wall_s > 0 and r.speed > 0 for r in results)
    assert [e for r in results for e in run.check(workload, r, golden)] == []
    metrics = run.end_to_end(results, golden, len(order), setup_s=0.5)
    assert set(metrics) == set(run.UNITS)
    assert all(math.isfinite(v) for v in metrics.values())
    assert run.failures(results) == (len(results) * len(results[0].values), 0)


def test_gate_catches_wrong_index():
    golden, inputs = _tiny("study")
    pid = next(iter(inputs))
    result = run.run_item("study", pid, inputs[pid])
    result.values["t_star"] += 1
    errors = run.check("study", result, golden)
    assert any("t_star=" in e for e in errors)
    assert not any("study row" in e for e in errors)  # the row object was not touched
    result.values["m1"] = result.values["t_star"] - 2
    assert any("m1=" in e for e in run.check("study", result, golden))


def test_scaling_and_reference_kernel():
    assert run.speed(0.03, 0.03) == pytest.approx(reference.NOMINAL_S / 0.03)
    assert run.speed(0.02, 0.04) == pytest.approx(reference.NOMINAL_S / 0.03)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert reference.Reference().chunk() > 0
    finally:
        tracer.uninstall()
    assert tracer.spans == []  # the kernel never calls the package


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_layers_and_restore(workload):
    golden, inputs = _tiny(workload)
    original = masbound.geometry.linprog
    tracer = tracing.Tracer()
    tracer.install()
    results = []
    try:
        assert masbound.geometry.linprog is not original
        for pid, pair in inputs.items():
            tracer.item = pid
            results.append(run.run_item(workload, pid, pair))
    finally:
        tracer.uninstall()
    assert masbound.geometry.linprog is original
    metrics = tracing.layer_metrics(tracer.spans, len(results), len(results))
    assert set(metrics) | {k for k in tracing.UNITS if k.startswith("trace.")} == set(tracing.UNITS)
    assert metrics["powerseries.calls"] == 2
    assert metrics["lyapunov.s"] > 0
    if workload == "bounds":
        assert metrics["exact.iterate_lps"] == 0
    else:
        assert metrics["exact.iterate_lps"] > 0


def test_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "mimo", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.mark.parametrize("trace", (0, 1))
def test_result_line_matches_benchmark_json(trace, monkeypatch, capsys):
    golden, inputs = _tiny("mimo")
    monkeypatch.setattr(workloads, "panel", lambda workload: dict(inputs))
    monkeypatch.setattr(run, "load_golden", lambda workload: {p: golden[p] for p in inputs})
    monkeypatch.setattr(run, "time_setup", lambda workload, seed, ref: 0.5)
    argv = ["--workload", "mimo", "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
