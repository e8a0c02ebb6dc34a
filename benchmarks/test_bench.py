"""The benchmark's own tests: its output check bites and its counts repeat.

Run from the repository root (about a minute):

    python3 -m pytest -q benchmarks/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402

workloads, _ = bench.import_program()

from ridecomfort import cli, pipeline, sickness  # noqa: E402
from ridecomfort.timeseries import TimeSeries  # noqa: E402

COUNTS = ("body.steps", "perception.sv_samples", "timeseries.bytes_written",
          "timeseries.rows_written", "timeseries.bytes_read", "spectral.frf_calls",
          "comfort.design_weighting_calls")


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["paths"] == [HERE.name]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS


def test_deviation_rule():
    ref = {"a": 1.0, "zero": 0.0, "peaks": {"head_acc_y": [[1.5, 2.0]]}}
    assert workloads.deviations(ref, ref) == []
    assert workloads.deviations(ref, {**ref, "a": 1.0 + 5e-13}) == []
    assert workloads.deviations(ref, {**ref, "a": 1.0 + 5e-12})
    assert workloads.deviations(ref, {**ref, "zero": 1e-25}) == []
    assert workloads.deviations(ref, {**ref, "zero": 1e-15})
    assert workloads.deviations(ref, {**ref, "a": float("nan")})
    assert workloads.deviations(ref, {**ref, "peaks": {}})
    assert workloads.deviations(ref, {**ref, "peaks": {"head_acc_y": []}})


def _perturbed_summarize(original):
    def summarize(trace, threshold_percent=None):
        summary = original(trace, threshold_percent)
        return replace(summary, final_percent=summary.final_percent * (1 + 1e-9) + 1e-9)
    return summarize


@pytest.mark.parametrize("name", ["sweep_compute", "pipeline_curved"])
def test_perturbed_summary_is_a_failed_op(name, tmp_path, monkeypatch):
    perturbed = _perturbed_summarize(sickness.summarize)
    monkeypatch.setattr(sickness, "summarize", perturbed)
    monkeypatch.setattr(pipeline, "summarize", perturbed)
    result = bench.run(name, 3, 0, 0, out_root=tmp_path, probes=0)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert not result["correct"]
    assert all("final_msi_percent" in r["problems"][0] for r in result["ops"])


def test_perturbed_resumed_stage_is_a_failed_op(tmp_path, monkeypatch):
    original = cli.load_timeseries

    def load_scaled(path, schema=None):
        ts = original(path, schema)
        return TimeSeries(ts.start_time, ts.dt, ts.channels, ts.samples * (1 + 1e-9))

    monkeypatch.setattr(cli, "load_timeseries", load_scaled)
    result = bench.run("resume_stages", 3, 0, 0, out_root=tmp_path, probes=0)
    assert result["fixture_problems"] == []
    assert result["failed"] == result["attempted"] == 1
    assert any("conflict.csv" in p for p in result["ops"][0]["problems"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly_and_self_times_add_up(name, tmp_path):
    first, second = (bench.run(name, 5, 0, 1, out_root=tmp_path / str(k),
                               probes=int(name == "sweep_compute"))
                     for k in range(2))
    for result in (first, second):
        assert result["correct"], result["ops"]
        layer = result["per_layer"]
        assert set(layer) == set(bench.PER_LAYER_UNITS)
        # one traced op: its layer self times and the unattributed rest are its wall
        assert layer["trace.layer_self_sum_s"] + layer["trace.unattributed_s"] == \
            pytest.approx(layer["trace.op_wall_s"], rel=1e-9)
    assert {k: first["per_layer"][k] for k in COUNTS} == \
        {k: second["per_layer"][k] for k in COUNTS}
    counts = first["per_layer"]
    if name == "resume_stages":
        assert counts["body.steps"] == 0 and counts["timeseries.bytes_read"] > 40e6
    else:
        assert counts["body.steps"] > 0 and counts["spectral.frf_calls"] == 6
    if name == "sweep_compute":
        assert counts["timeseries.bytes_written"] == 0
        assert first["end_to_end"]["setup_s"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/bench.py", "--workload", "sweep_compute",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
