"""The benchmark's own tests: metric names, output checks, tracing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "kernel", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_match_benchmark_json(trace, section):
    result = _run(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == declared


def test_per_layer_names_are_traced_entry_points():
    """Every `<entry>.calls` / `<entry>.s` metric names an entry point the
    tracer wraps, so that a misspelt name cannot read 0 unnoticed."""
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    special = {"weights.interval_quantity.calls", "experiments.csv_identical", "trace.overhead_frac"}
    for metric in SPEC["per_layer"]:
        head, _, tail = metric["name"].rpartition(".")
        if metric["name"] in special or head in LAYERS:
            continue
        assert tail in ("calls", "s") and head in tracer.keys, metric["name"]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.fixture
def tiny(monkeypatch):
    """A one-scenario workload that runs in about a second."""
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", (("counterexample",), ()))
    return "tiny"


def _flip(runner, check_name):
    def flipped(cfg):
        verdict = runner(cfg)
        verdict.checks = [
            dataclasses.replace(c, passed=not c.passed) if c.name == check_name else c
            for c in verdict.checks
        ]
        return verdict

    return flipped


@pytest.mark.parametrize("check_name", ["log-slope anchor lam=1", "strict per-decade gate lam=1"])
def test_flipped_verdict_raises_fail_frac(tiny, tmp_path, monkeypatch, check_name):
    from besselweights.experiments import SCENARIOS

    clean = workloads.run_unit(tiny, 0, str(tmp_path))
    assert clean.failed == [] and len(clean.ops) == 13

    runner, desc = SCENARIOS["counterexample"]
    monkeypatch.setitem(SCENARIOS, "counterexample", (_flip(runner, check_name), desc))
    flipped = workloads.run_unit(tiny, 0, str(tmp_path))
    assert flipped.failed == [f"counterexample: {check_name}"]
    assert len(flipped.failed) / len(flipped.ops) > 0.0


def test_artifact_tolerance():
    ref = "# seed=7 lam=1\nt,mass\n1.00000000000e-02,2.50000000000e-01\n"
    assert workloads.artifact_matches(ref, ref)
    assert workloads.artifact_matches(ref.replace("2.50000000000e-01", "2.50000000001e-01"), ref)
    assert not workloads.artifact_matches(ref.replace("2.50000000000e-01", "2.50000100000e-01"), ref)
    assert not workloads.artifact_matches(ref.replace("mass", "mess"), ref)
    assert not workloads.artifact_matches(ref + "1,2\n", ref)


def test_tracing_leaves_outputs_unchanged(tmp_path):
    import besselweights.measure as measure
    import besselweights.riesz as riesz
    from besselweights.experiments import sparse_scaling

    originals = (
        measure.FuncExpr.__dict__["__add__"],
        measure.FuncExpr.__dict__["power"],
        riesz.median,
        sparse_scaling.run_sparse_scaling.__defaults__,
    )
    plain = workloads.run_unit("kernel", 4, str(tmp_path))
    tracer = Tracer()
    traced = workloads.run_unit("kernel", 4, str(tmp_path), tracer=tracer)

    assert plain.failed == [] and traced.failed == []
    assert traced.verdict_lines == plain.verdict_lines
    assert traced.artifacts == plain.artifacts
    assert tracer.calls["riesz.kernel"] > 0 and tracer.calls["measure.arith"] > 0
    assert tracer.calls["bmo.median"] > 0  # reached through riesz's imported alias
    assert {span[2] for span in tracer.spans} == set(range(1, 5))  # one trace per call
    assert not tracer.installed
    assert originals == (
        measure.FuncExpr.__dict__["__add__"],
        measure.FuncExpr.__dict__["power"],
        riesz.median,
        sparse_scaling.run_sparse_scaling.__defaults__,
    )


def test_tracer_reaches_default_argument_aliases(tmp_path):
    """sparse_apply is bound as a default argument of run_sparse_scaling."""
    from besselweights.experiments import load_default_config, sparse_scaling

    tracer = Tracer()
    tracer.install()
    try:
        cfg = load_default_config("sparse-scaling", str(tmp_path))
        cfg.params["deltas"] = "0.4 0.2"
        cfg.params["ps"] = "2"
        with tracer.root("experiments", "experiments.sparse-scaling"):
            sparse_scaling.run_sparse_scaling(cfg)
    finally:
        tracer.uninstall()
    assert tracer.calls["operators.sparse_apply"] > 0
    assert tracer.calls["dyadic.contains_point"] > 0
