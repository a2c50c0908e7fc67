"""The benchmark's own tests: a tiny-size run of every workload, untraced and
traced, plus the span bookkeeping and the refusal to run without sources."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = result_of(run_bench(workload, 0))
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_accounts_for_wall_time(workload):
    result = result_of(run_bench(workload, 1))
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    value = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert all(math.isfinite(v) for v in value.values())
    # One traced campaign at tiny size: the self times of all layers add up
    # to that campaign's wall time, and its span covers the traced phase.
    self_s = sum(value[f"{layer}.self_ms_per_campaign"] for layer in tracing.LAYERS) / 1e3
    assert self_s == pytest.approx(value["trace.campaign_s"], rel=1e-3)
    assert 0.9 < value["trace.self_coverage"] <= 1.0
    assert value["simulator.spectra"] > 0 and value["fitter.fit_ms_p50"] > 0
    assert value["lineshape.voigt_ns_per_eval"] > 0
    if workload == "campaign-cli":
        for stage in ("simulate", "fit", "series", "kb"):
            assert value[f"cli.{stage}_s"] > 0
        assert value["fileio.read_spectrum_ms"] > 0 and value["fileio.bytes_per_campaign"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_direct_children_only():
    # campaign [0, 10] > fit [1, 7] > jacobian [2, 5]; fit [8, 9]
    spans = [
        ["bench.campaign", 0.0, 10.0, -1, None],
        ["fitter.fit_spectrum", 1.0, 7.0, 0, {"n_iter": 4, "converged": True}],
        ["fitter.jacobian", 2.0, 5.0, 1, None],
        ["fitter.fit_spectrum", 8.0, 9.0, 0, {"n_iter": 6, "converged": False}],
    ]
    m = tracing.layer_metrics(spans, n_campaigns=1, wall_s=10.0)
    assert m["bench.self_ms_per_campaign"] == pytest.approx(3e3)
    assert m["fitter.self_ms_per_campaign"] == pytest.approx(7e3)
    assert m["fitter.jacobian_calls_per_fit"] == 0.5
    assert m["fitter.converged_ratio"] == 0.5
    assert m["fitter.iterations_mean"] == 5.0
    assert m["trace.self_coverage"] == pytest.approx(1.0)


def test_tracer_adopts_child_spans_under_the_stage_span():
    tracer = tracing.Tracer()
    stage = tracer.begin("cli.fit")
    tracer.end(stage)
    tracer.adopt([["cli.import", 0.0, 1.0, -1, None], ["cli.main", 1.0, 2.0, -1, None],
                  ["fileio.read_spectrum", 1.1, 1.2, 1, None]], stage)
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 2]
