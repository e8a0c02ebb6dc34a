"""Scenario configs, staged execution and run artifacts."""

import dataclasses
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ridecomfort
from ridecomfort import timeseries
from ridecomfort.body import BodyParams, PostureConfig, build_model
from ridecomfort.body.params import COORDINATE_NAMES, JOINT_NAMES
from ridecomfort.body import integrate
from ridecomfort.cli import main
from ridecomfort.comfort import MetricsOptions
from ridecomfort.errors import ConfigError, NonFiniteSample, NonFiniteState, StageError
from ridecomfort.excitation import ExcitationSpec
from ridecomfort.perception import VestibularParams, VisionParams, perceive
from ridecomfort.pipeline import (
    _RESONANCE_CHANNELS, _STAGE_FILES, _TWINNED, STAGES, build_config, parse_config,
    run_pipeline, stage_input, validate_config)
from ridecomfort.sickness import AccumulatorParams
from ridecomfort.spectral import WelchParams
from ridecomfort.stht import RESPONSE_CHANNELS, STHTOptions, run_stht
from ridecomfort.timeseries import count_samples, load_timeseries, twin_path
from conftest import counted_pools, make_scenario

SHIPPED = Path(__file__).resolve().parents[1] / "src" / "ridecomfort" / "data" / "examples"


def _with_twins(names):
    """``names`` and the twin of each trace among them that a stage reads."""
    return [*names, *(twin_path(name).name for name in names if name in _TWINNED)]


def _write(tmp_path, raw, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def test_shipped_examples_validate():
    for name in ("scenario_default.json", "scenario_curved.json"):
        assert validate_config(SHIPPED / name) == []


def test_parse_config_returns_scenario(tiny_config):
    config = parse_config(tiny_config)
    assert config.input_kind == "excitation"
    assert config.excitation.axis == "z"
    assert config.excitation.seed == 42
    assert config.metrics.settle_s == 0.5


def test_validate_reports_all_errors_without_running(tmp_path):
    raw = make_scenario()
    raw["input"]["kind"] = "csv"
    raw["input"]["path"] = "missing.csv"
    raw["model"]["overrides"] = {"head_mass_kg": -2.0, "bogus_key": 1.0}
    raw["perception"]["anticipation"] = True
    raw["mystery"] = 1
    raw["output_dir"] = str(tmp_path / "should_not_exist")
    path = _write(tmp_path, raw)

    errors = validate_config(path)
    fields = [f for f, _ in errors]
    assert "input.path" in fields
    assert "model.overrides.head_mass_kg" in fields
    assert "model.overrides.bogus_key" in fields
    assert "perception.anticipation" in fields
    assert "mystery" in fields
    assert not (tmp_path / "should_not_exist").exists()


def test_schema_version_enforced(tmp_path):
    raw = make_scenario(schema_version=99)
    errors = validate_config(_write(tmp_path, raw))
    assert any(f == "schema_version" for f, _ in errors)


def test_excitation_requires_seed(tmp_path):
    raw = make_scenario()
    del raw["seed"]
    errors = validate_config(_write(tmp_path, raw))
    assert errors and any("seed" in f for f, _ in errors)


def test_parse_config_raises_with_error_list(tmp_path):
    raw = make_scenario(model={"preset": "nonexistent"})
    with pytest.raises(ConfigError) as exc:
        parse_config(_write(tmp_path, raw))
    assert any("model.preset" in f for f, _ in exc.value.errors)


def test_cli_overrides_seed_axis_vision(tiny_config):
    base = parse_config(tiny_config)
    tweaked = parse_config(tiny_config, seed=99, axis="y", vision="on")
    assert base.excitation.seed == 42 and tweaked.excitation.seed == 99
    assert tweaked.excitation.axis == "y"
    assert tweaked.perception.vision.enabled is True
    assert base.perception.vision.enabled is False


def test_run_pipeline_writes_all_artifacts(tiny_config, tmp_path):
    out = tmp_path / "run"
    report = run_pipeline(parse_config(tiny_config), out)
    for fname in ("seat_motion.csv", "body_response.csv", "resonances.json",
                  "perceived.csv", "conflict.csv", "sickness.csv",
                  "sickness_summary.json", "comfort.json", "report.json",
                  "timing.json"):
        assert (out / fname).exists(), fname

    summary = report.summary
    assert summary["duration_s"] == pytest.approx(6.0)
    assert summary["head_rms_m_s2"]["z"] > 0.1
    assert 0.0 <= summary["final_msi_percent"] <= 100.0
    assert summary["comfort"]["msdv_m_s15"] >= 0.0

    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk["summary"] == json.loads(json.dumps(summary))
    timing = json.loads((out / "timing.json").read_text())
    assert timing["body_realtime_factor"] > 1.0
    assert set(timing["stage_wall_s"]) == {
        "input", "body", "perception", "sickness", "metrics"}
    assert set(timing["stage_write_s"]) == set(timing["stage_wall_s"])
    for stage, write_s in timing["stage_write_s"].items():
        assert 0.0 < write_s <= timing["stage_wall_s"][stage], stage
    # 0 for the children where no worker process has finished yet
    assert timing["write_wait_s"] >= 0.0
    assert timing["peak_rss_mb"] > 0.0
    assert timing["children_peak_rss_mb"] >= 0.0
    # each trace and twin file's size and sample rows, as they are on disk
    traces = sorted(p.name for p in out.glob("*.csv"))
    files = sorted(_with_twins(traces))
    assert sorted(timing["artifact_bytes"]) == files
    assert sorted(timing["artifact_rows"]) == files
    for name in files:
        assert timing["artifact_bytes"][name] == (out / name).stat().st_size
    for name in traces:
        assert timing["artifact_rows"][name] == count_samples(out / name) \
            == 3001, name


def test_run_pipeline_deterministic_bytes(tiny_config, tmp_path):
    config = parse_config(tiny_config)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run_pipeline(config, out1)
    run_pipeline(config, out2)
    for p1 in sorted(out1.iterdir()):
        if p1.name == "timing.json":
            continue
        assert p1.read_bytes() == (out2 / p1.name).read_bytes(), p1.name


def test_run_pipeline_needs_output_dir(tiny_config):
    with pytest.raises(ConfigError):
        run_pipeline(parse_config(tiny_config))


def test_csv_input_round_trip(write_scenario, tmp_path):
    # generate a seat record with one run, feed it to a csv-input scenario;
    # the stage outputs must match the excitation run byte for byte
    first = write_scenario("gen.json")
    out1 = tmp_path / "gen_run"
    run_pipeline(parse_config(first), out1)

    raw = make_scenario()
    raw["input"] = {"kind": "csv", "path": str(out1 / "seat_motion.csv")}
    second = _write(tmp_path, raw, "csv.json")
    out2 = tmp_path / "csv_run"
    run_pipeline(parse_config(second), out2)
    assert (out1 / "body_response.csv").read_bytes() == \
        (out2 / "body_response.csv").read_bytes()
    assert (out1 / "comfort.json").read_bytes() == \
        (out2 / "comfort.json").read_bytes()


def test_quiet_input_reports_no_resonances(tmp_path):
    zero = np.zeros((1501, 3))
    header = "time_s,seat_acc_x[m/s^2],seat_acc_y[m/s^2],seat_acc_z[m/s^2]"
    lines = [header] + [
        f"{i * 0.002:.17g},0,0,0" for i in range(zero.shape[0])]
    csv_path = tmp_path / "quiet.csv"
    csv_path.write_text("\n".join(lines) + "\n")

    raw = make_scenario()
    raw["input"] = {"kind": "csv", "path": str(csv_path)}
    out = tmp_path / "quiet_run"
    report = run_pipeline(parse_config(_write(tmp_path, raw)), out)
    assert report.summary["resonances"]["peaks"] == {}
    assert report.summary["final_msi_percent"] == 0.0
    assert report.summary["head_rms_m_s2"] == {"x": 0.0, "y": 0.0, "z": 0.0}
    rms = report.summary["comfort"]["weighted_rms_m_s2"]
    assert all(v == 0.0 for v in rms.values())


def test_pipeline_resonances_equal_run_stht(tmp_path):
    """One peak rule: the run's resonance table is run_stht's for the same
    axis, channels, band and Welch settings, channels without peaks left out."""
    raw = make_scenario(stht={"band_hz": [0.5, 20.0], "min_prominence": 0.05,
                              "welch": {"segment_length": 512}})
    config = parse_config(_write(tmp_path, raw))
    report = run_pipeline(config, tmp_path / "run")
    table = json.loads((tmp_path / "run" / "resonances.json").read_text())
    assert table == report.summary["resonances"]
    assert table["axis_used"] == config.excitation.axis == "z"
    result = run_stht(build_model(config.body, config.posture), config.excitation,
                      welch=config.stht.welch, band_hz=config.stht.band_hz,
                      min_prominence=config.stht.min_prominence,
                      channels=_RESONANCE_CHANNELS)
    assert table["peaks"] == {name: [list(p) for p in peaks]
                              for name, peaks in result.resonances.items() if peaks}
    assert table["peaks"] and len(table["peaks"]) < len(_RESONANCE_CHANNELS)


def _csv_scenario(tmp_path, n_rows, welch=None):
    """A csv-input scenario over an all-zero seat record of ``n_rows``."""
    header = "time_s,seat_acc_x[m/s^2],seat_acc_y[m/s^2],seat_acc_z[m/s^2]"
    lines = [header] + [f"{i * 0.002:.17g},0,0,0" for i in range(n_rows)]
    (tmp_path / "seat.csv").write_text("\n".join(lines) + "\n")
    raw = make_scenario()
    raw["input"] = {"kind": "csv", "path": "seat.csv"}
    if welch is not None:
        raw["stht"] = {"welch": welch}
    return raw


def test_csv_input_welch_segmentation_checked_by_validate(tmp_path, capsys):
    raw = _csv_scenario(tmp_path, 3001, {"segment_length": 100000})
    config, errors = build_config(raw, tmp_path)
    assert config is None
    assert errors == [("stht.welch.segment_length", "100000 leaves fewer than 2 "
                       "Welch segments in the 3001-sample input record")]
    assert main(["validate", "--config", str(_write(tmp_path, raw))]) == 1
    assert "  stht.welch.segment_length: " in capsys.readouterr().out

    # 3001 samples hold exactly 2 half-overlapping segments of 2000
    config, errors = build_config(
        _csv_scenario(tmp_path, 3001, {"segment_length": 2000}), tmp_path)
    assert errors == [] and config.input_kind == "csv"
    _, errors = build_config(
        _csv_scenario(tmp_path, 2999, {"segment_length": 2000}), tmp_path)
    assert [f for f, _ in errors] == ["stht.welch.segment_length"]


def test_csv_input_over_the_sample_budget_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr("ridecomfort.pipeline.MAX_INPUT_SAMPLES", 100)
    _, errors = build_config(_csv_scenario(tmp_path, 100), tmp_path)
    assert errors == []
    _, errors = build_config(_csv_scenario(tmp_path, 101), tmp_path)
    assert errors == [("input.path",
                       "101 samples exceed the budget of 100 samples")]


@pytest.mark.parametrize("cell, message", [
    # the header is line 1, so data row 2999 is on line 3001
    ("nan", "non-finite sample in channel 'seat_acc_z' at row 2999 in "
     "{tmp_path}/seat.csv line 3001"),
    ("abc", "seat.csv line 3001, column seat_acc_z[m/s^2]: 'abc' is not a number"),
], ids=["nan", "abc"])
def test_validate_reads_a_csv_input_as_the_input_stage_does(tmp_path, capsys, cell,
                                                            message):
    raw = _csv_scenario(tmp_path, 3001)
    seat = tmp_path / "seat.csv"
    message = message.format(tmp_path=tmp_path.resolve())
    lines = seat.read_text().split("\n")
    lines[3000] = lines[3000].rsplit(",", 1)[0] + f",{cell}"
    seat.write_text("\n".join(lines))
    config = _write(tmp_path, raw)
    assert build_config(raw, tmp_path)[1] == []  # the row count alone passes
    errors = validate_config(config)
    assert [field for field, _ in errors] == ["input.path"]
    assert errors[0][1].endswith(message)
    assert main(["validate", "--config", str(config)]) == 1
    assert capsys.readouterr().out.endswith(f"{message}\n")
    # the message the run stops with
    assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.endswith(f"{message}\n")


@pytest.mark.parametrize("settle_s, problems", [
    (6.0, []),  # 3001 rows at 2 ms: one row is left to weight
    (7.0, [("metrics.settle_s", "settling interval consumes the whole record")]),
])
def test_validate_checks_settle_s_against_a_csv_record(tmp_path, settle_s, problems):
    raw = _csv_scenario(tmp_path, 3001)
    raw["metrics"] = {"settle_s": settle_s}
    assert validate_config(_write(tmp_path, raw)) == problems
    # with no metric selected, nothing is weighted and nothing refused
    raw["metrics"] = {"settle_s": settle_s, "weighted_rms": False, "msdv": False}
    assert validate_config(_write(tmp_path, raw)) == []


def test_oversized_excitation_with_welch_is_a_config_error():
    # duration_s / dt_s overflows a float, so the Welch check must not
    # turn the record length into an integer
    raw = make_scenario(input={"duration_s": 1e300, "dt_s": 1e-10},
                        stht={"welch": {"segment_length": 256}})
    _, errors = build_config(raw)
    assert [f for f, _ in errors] == ["input.duration_s"]


# -- write-behind trace saves -------------------------------------------------

# 12 s at 500 Hz is 6001 rows: every trace spans two writer blocks, so a run
# opens the writer pool where the platform allows one
_TWO_BLOCKS = {"input": {"duration_s": 12.0}}
_POOLED = timeseries._pool_workers(2) >= 2
_FORKS = "fork" in multiprocessing.get_all_start_methods()
_STAGE_COMMANDS = ("simulate", "perceive", "sickness", "metrics")


def _tree(out):
    return {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())
            if p.name != "timing.json"}


def _pipeline_and_stage_trees(config, out):
    """Run ``config`` as a pipeline and as the stage commands in turn; the
    number of writer pools each run or command opened."""
    with pytest.MonkeyPatch.context() as mp:
        opened = counted_pools(mp)
        run_pipeline(parse_config(config), out / "pipe")
        assert multiprocessing.active_children() == []
        pools = [len(opened)]
        for command in _STAGE_COMMANDS:
            opened.clear()
            assert main([command, "--config", str(config),
                         "--out", str(out / "stages")]) == 0
            assert multiprocessing.active_children() == []
            pools.append(len(opened))
    return _tree(out / "pipe"), _tree(out / "stages"), pools


@pytest.mark.skipif(not _FORKS, reason="no fork pool on this platform")
def test_perceive_formats_on_the_pool_and_sickness_opens_none(tmp_path, monkeypatch):
    config = _write(tmp_path, make_scenario(**_TWO_BLOCKS))
    out = tmp_path / "run"
    run_pipeline(parse_config(config), out)
    (out / "report.json").unlink()  # so both commands parse their CSVs
    monkeypatch.setattr(timeseries, "_pool_workers", lambda n: 2 if n >= 2 else 0)
    opened, submitted = counted_pools(monkeypatch), []
    submit = timeseries._Scope._submit

    def counted(scope, save, block):
        submitted.append(save.path.name)
        return submit(scope, save, block)

    monkeypatch.setattr(timeseries._Scope, "_submit", counted)
    for command, pools, names in (("perceive", [1], {"perceived.csv"}),
                                  ("sickness", [], set())):
        opened.clear()
        submitted.clear()
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        assert multiprocessing.active_children() == []
        assert (opened, set(submitted)) == (pools, names), command


def test_write_behind_trees_equal_in_process_runs(tmp_path, monkeypatch):
    config = _write(tmp_path, make_scenario(**_TWO_BLOCKS))
    pipe, stages, pools = _pipeline_and_stage_trees(config, tmp_path / "pooled")
    # one pool per run and per command that saves a trace of several
    # channels (pipeline, simulate, perceive), or none
    assert pools == [int(_POOLED)] * 3 + [0, 0]
    monkeypatch.setattr(timeseries, "_pool_workers", lambda n: 0)
    pipe_0, stages_0, pools_0 = _pipeline_and_stage_trees(config, tmp_path / "serial")
    assert pools_0 == [0] * 5
    assert pipe == pipe_0 and stages == stages_0
    assert set(stages) == set(pipe) - {"report.json"}
    assert all(stages[name] == pipe[name] for name in stages)


_format_rows = timeseries._format_rows  # the formatter the tests replace


def _die_on_body_rows(block):
    if block.shape[1] == 25:  # time_s and the 24 body-response channels
        os._exit(1)
    return _format_rows(block)


@pytest.mark.skipif(not _POOLED, reason="rows are formatted in-process here")
@pytest.mark.parametrize("command", ["pipeline", "simulate"])
def test_dead_writer_fails_the_stage_that_saved_the_file(tmp_path, monkeypatch,
                                                         capsys, command):
    config = _write(tmp_path, make_scenario(**_TWO_BLOCKS))
    good = tmp_path / "good"
    run_pipeline(parse_config(config), good)
    monkeypatch.setattr(timeseries, "_format_rows", _die_on_body_rows)
    out = tmp_path / "run"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    # the dead worker breaks the pool: each save with a block on it, or
    # handed to it after, fails, and the first failure seen is reported
    # under the stage of its file.  Which save sees it first depends on
    # when the pool is found broken, so the body stage is not always the
    # one named, but it always stops
    err = capsys.readouterr().err
    failed = re.fullmatch(rf"error: stage '(\w+)' failed: cannot write "
                          rf"{re.escape(str(out))}{re.escape(os.sep)}(\S+): "
                          "a worker process ended abruptly\n", err)
    assert failed and failed[2] in _STAGE_FILES[failed[1]], err
    assert not (out / "body_response.csv").exists()
    assert not (out / "report.json").exists()
    assert multiprocessing.active_children() == []
    # the seat rows may have reached the file before the worker died; what
    # is left is complete
    for path in out.iterdir():
        assert path.read_bytes() == (good / path.name).read_bytes(), path.name


def test_failed_stage_leaves_earlier_artifacts_complete(tmp_path, monkeypatch,
                                                        capsys):
    config = _write(tmp_path, make_scenario(**_TWO_BLOCKS))
    good = tmp_path / "good"
    run_pipeline(parse_config(config), good)

    def fail(*args, **kwargs):
        raise ValueError("no accumulation today")

    # conflict.csv has just been submitted when the sickness stage fails
    monkeypatch.setattr("ridecomfort.pipeline.accumulate", fail)
    out = tmp_path / "bad"
    assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 2
    assert "stage 'sickness' failed: no accumulation today" in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    earlier = [name for stage in ("input", "body", "perception")
               for name in _with_twins(_STAGE_FILES[stage])]
    assert sorted(_tree(out)) == sorted(earlier)
    for name in earlier:
        assert (out / name).read_bytes() == (good / name).read_bytes(), name


def test_an_error_no_stage_owns_still_ends_the_writer(tmp_path, monkeypatch):
    # a MemoryError is no stage's failure: it leaves the push, and the
    # chain's end still stops the pool and closes every trace file
    config = _write(tmp_path, make_scenario(**_TWO_BLOCKS))

    def fail(*args, **kwargs):
        raise MemoryError("no memory today")

    monkeypatch.setattr("ridecomfort.pipeline.perceive", fail)
    closed = []
    close = timeseries._Scope.close

    def spy(scope):
        close(scope)
        closed.append(all(file.fh.closed for save in scope.saves for file in save.files()))

    monkeypatch.setattr(timeseries._Scope, "close", spy)
    with pytest.raises(MemoryError, match="no memory today"):
        run_pipeline(parse_config(config), tmp_path / "run")
    assert closed == [True]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("pooled", [True, False], ids=["pooled", "in-process"])
def test_a_failed_trace_write_leaves_the_earlier_traces_complete(tmp_path, monkeypatch,
                                                                 capsys, pooled):
    if pooled and not _POOLED:
        pytest.skip("rows are formatted in-process here")
    # four pushes: the body's first block fails while later pushes still
    # write the earlier stage's rows
    config = _write(tmp_path, make_scenario(input={"duration_s": 30.0}))
    good = tmp_path / "good"
    run_pipeline(parse_config(config), good)
    write = timeseries._write_hashed

    def body_disk_full(fh, digest, data):
        if fh.name.endswith("body_response.csv") and not data.startswith(b"time_s"):
            raise OSError("no space left on device")
        write(fh, digest, data)

    monkeypatch.setattr(timeseries, "_write_hashed", body_disk_full)
    if not pooled:
        monkeypatch.setattr(timeseries, "_pool_workers", lambda n: 0)
    out = tmp_path / "bad"
    capsys.readouterr()
    assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: stage 'body' failed: " in err and "no space left on device" in err
    assert multiprocessing.active_children() == []
    _upstream_only(out, good, "body")


@pytest.mark.parametrize("stage, name", [(stage, twin_path(name).name)
                                         for stage, spec in STAGES.items()
                                         for name in spec.writes if name in _TWINNED],
                         ids=lambda value: value)
def test_a_failed_twin_write_fails_the_stage_of_its_trace(tmp_path, monkeypatch, capsys,
                                                          stage, name):
    # the twin's rows fail after its header: its trace's stage fails, and
    # every file of that stage and the later ones is removed
    config = _write(tmp_path, make_scenario(**_TWO_BLOCKS))
    good = tmp_path / "good"
    run_pipeline(parse_config(config), good)
    write = timeseries._write_hashed

    def twin_disk_full(fh, digest, data):
        if fh.name.endswith(name) and not data.startswith(b"\x93NUMPY"):
            raise OSError("no space left on device")
        write(fh, digest, data)

    monkeypatch.setattr(timeseries, "_write_hashed", twin_disk_full)
    out = tmp_path / "bad"
    capsys.readouterr()
    assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: stage '{stage}' failed: cannot write {out / name}: " \
        "no space left on device" in err
    assert multiprocessing.active_children() == []
    _upstream_only(out, good, stage)


def _slow_body_rows(block):
    if block.shape[1] == 25:  # time_s and the 24 body-response channels
        time.sleep(0.5)
    return _format_rows(block)


@pytest.mark.skipif(not _POOLED, reason="rows are formatted in-process here")
def test_writes_that_fail_in_two_files_leave_no_incomplete_file(tmp_path, monkeypatch,
                                                               capsys):
    # the body's blocks and the seat's last one fail; the body's rows are
    # formatted slowly, so both failures are seen by the perception stage's
    # writes, which raise neither.  Each is raised by its own save's check
    # at the run's close, in stage order: the seat's first
    config = _write(tmp_path, make_scenario(**_TWO_BLOCKS))
    block = timeseries._BLOCK_ROWS
    write = timeseries._write_hashed

    def disk_full(fh, digest, data):
        if not data.startswith(b"time_s") and (
                fh.name.endswith("body_response.csv")
                or fh.name.endswith("seat_motion.csv") and data.count(b"\n") < block):
            raise OSError("no space left on device")
        write(fh, digest, data)

    monkeypatch.setattr(timeseries, "_write_hashed", disk_full)
    monkeypatch.setattr(timeseries, "_format_rows", _slow_body_rows)
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: stage 'input' failed: cannot write "
                                       f"{out / 'seat_motion.csv'}: no space left on device\n")
    assert multiprocessing.active_children() == []
    assert sorted(p.name for p in out.iterdir()) == []


def _seat_csv_scenario(tmp_path, name, seat, dt, **tweaks):
    """A csv-input scenario over the seat rows ``seat`` (n, 3) at ``dt``."""
    header = "time_s,seat_acc_x[m/s^2],seat_acc_y[m/s^2],seat_acc_z[m/s^2]"
    lines = [header] + [f"{i * dt:.17g}," + ",".join(f"{v:.17g}" for v in row)
                        for i, row in enumerate(seat)]
    (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
    raw = make_scenario(**tweaks)
    raw["input"] = {"kind": "csv", "path": f"{name}.csv"}
    return _write(tmp_path, raw, f"{name}.json")


def _upstream_only(out, good, stage):
    """Every file of the stages before ``stage`` is in ``out`` and equals
    ``good``'s, and nothing else is: not one file of ``stage`` or later."""
    stages = list(_STAGE_FILES)
    earlier = [name for s in stages[:stages.index(stage)]
               for name in _with_twins(_STAGE_FILES[s])]
    assert sorted(p.name for p in out.iterdir()) == sorted(earlier)
    for name in earlier:
        assert (out / name).read_bytes() == (good / name).read_bytes(), name


def test_a_perception_failure_in_a_later_chunk_names_its_global_row(tmp_path, capsys):
    # vertical seat motion keeps the head upright and still, so the sensed
    # vertical stays (0, 0, 1) until the head accelerates upward faster than
    # g; with dt / sv_time_constant_s = 0.5 it then drops to zero length
    dt, onset = 0.002, 5000
    seat = np.zeros((6001, 3))
    seat[onset:, 2] = 20.0
    good_config = _seat_csv_scenario(tmp_path, "good", seat, dt)
    bad_config = _seat_csv_scenario(tmp_path, "bad", seat, dt,
                                    perception={"sv_time_constant_s": 2 * dt})
    good = tmp_path / "good_run"
    run_pipeline(parse_config(good_config), good)
    with pytest.raises(NonFiniteSample) as one_shot:
        perceive(load_timeseries(good / "body_response.csv"),
                 parse_config(bad_config).perception)
    row = one_shot.value.row
    assert row > onset > timeseries._BLOCK_ROWS  # in the run's second push

    out = tmp_path / "bad_run"
    capsys.readouterr()
    assert main(["pipeline", "--config", str(bad_config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: stage 'perception' failed: non-finite sample in channel "
        f"'sensed_vert_x' at row {row}\n")
    assert multiprocessing.active_children() == []
    _upstream_only(out, good, "perception")


def test_a_body_divergence_in_its_third_chunk_is_dated_in_the_whole_record(tmp_path,
                                                                            capsys):
    # dt = 15 ms is beyond the explicit step's stability limit for this
    # model: the state diverges a few hundred steps after a huge input starts
    dt, onset = 0.015, 9000
    seat = np.zeros((10_000, 3))
    seat[onset:] = 1e300
    path = _seat_csv_scenario(tmp_path, "diverging", seat, dt,
                              model={"overrides": {"prop_delay_s": 0.06}})
    config = parse_config(path)
    model = build_model(config.body, config.posture)
    block = timeseries._BLOCK_ROWS
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteState) as one_shot:
            integrate._advance(model, integrate._get_kernel(model, dt),
                               integrate.create_state(model, dt), seat, 0.0)
        with pytest.raises(StageError) as run:
            run_pipeline(config, tmp_path / "lib")
        out = tmp_path / "cli"
        capsys.readouterr()
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == 2
    assert 2 * block <= one_shot.value.row < 3 * block  # in the third push
    cause = run.value.cause
    assert run.value.stage == "body" and isinstance(cause, NonFiniteState)
    assert (cause.time, cause.coordinate, cause.row) == \
        (one_shot.value.time, one_shot.value.coordinate, one_shot.value.row)
    assert f"error: stage 'body' failed: {one_shot.value}\n" in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    # the input stage's files are complete: the seat record written on its own
    seat = stage_input(config)[0]
    with timeseries._Scope() as scope:
        save = scope.open(tmp_path / "seat_motion.csv", timeseries.trace_header(seat.channels),
                          seat.n_samples, twin=True)
        scope.append(save, seat.samples, seat.start_time, seat.dt, 0)
        scope.done(save)
        scope.wait()
    for run_dir in (tmp_path / "lib", out):
        _upstream_only(run_dir, tmp_path, "body")


def test_unreadable_csv_input_reported_at_input_path(tmp_path):
    raw = _csv_scenario(tmp_path, 10)
    (tmp_path / "seat.csv").write_bytes(b"time_s,seat_acc_x[m/s^2]\n0,\xff\n")
    _, errors = build_config(raw, tmp_path)
    assert [f for f, _ in errors] == ["input.path"]


@pytest.mark.parametrize("content, message", [
    (b"", "is empty"),
    (b"\n \r\n", "is empty"),
    (b"time_s,seat_acc_x[m/s^2]\r\n\n", "has a header but no samples"),
    # np.loadtxt skips lines that start with "#": no samples either
    (b"time_s\n# one\n#two\r\n#\n", "has a header but no samples"),
    (b"time_s,seat_acc_x[m/s^2]\n#0,1\n# 0.1,2\n#0.2,3\n",
     "has a header but no samples"),
    # one row defines no sample step
    (b"time_s,seat_acc_x[m/s^2]\n0,1\n",
     "has 1 sample row; a sample step needs at least 2"),
], ids=["empty", "blank", "header-only", "comments-time-only",
        "comments-with-channels", "one-row"])
def test_csv_input_without_samples_is_refused(tmp_path, capsys, content, message):
    (tmp_path / "empty.csv").write_bytes(content)
    raw = make_scenario(input={"kind": "csv", "path": "empty.csv"})
    for key in ("axis", "signal", "band_hz", "rms_m_s2", "duration_s", "dt_s"):
        del raw["input"][key]
    config, errors = build_config(raw, tmp_path)
    assert config is None
    assert [f for f, _ in errors] == ["input.path"]
    assert errors[0][1].endswith(message)
    assert main(["validate", "--config", str(_write(tmp_path, raw))]) == 1
    assert f"  input.path: {tmp_path / 'empty.csv'}" in capsys.readouterr().out


# -- config reader: bad inputs and fuzzing ------------------------------------

# (section, key, value, leaf path where the problem must be reported)
_BAD_INPUTS = [
    ("input", "band_hz", ["a", 5], "input.band_hz[0]"),
    ("input", "dt_s", 0, "input.dt_s"),
    ("posture", "locked_coordinates", [[1]], "posture.locked_coordinates[0]"),
    ("input", "rms_m_s2", math.nan, "input.rms_m_s2"),
    ("accumulator", "hill_exponent", math.nan, "accumulator.hill_exponent"),
    ("input", "duration_s", math.nan, "input.duration_s"),
    ("metrics", "settle_s", math.nan, "metrics.settle_s"),
    ("stht", "min_prominence", math.nan, "stht.min_prominence"),
    ("perception", "canal_tau_long_s", math.inf, "perception.canal_tau_long_s"),
    ("input", "duration_s", 1e12, "input.duration_s"),
    ("posture", "locked_coordinates", ["warp_drive"],
     "posture.locked_coordinates"),
    ("posture", "initial_joint_angles_rad", {"neck_pitch": 2.0},
     "posture.initial_joint_angles_rad.neck_pitch"),
    # valid-looking inputs that used to fail only at run time
    ("input", "seed", -1, "input.seed"),
    ("model", "overrides", {"seat_stiffness_z_N_per_m": 0.0}, "model"),
    ("model", "overrides", {"head_mass_kg": 1e9}, "model.overrides.head_mass_kg"),
    ("stht", "welch", {"segment_length": 256, "window": "nosuchwindow"},
     "stht.welch.window"),
    ("stht", "welch", {"segment_length": 100000}, "stht.welch.segment_length"),
    ("input", "rms_m_s2", 1e300, "input.rms_m_s2"),
    ("accumulator", "threshold_percent", 0, "accumulator.threshold_percent"),
    ("accumulator", "threshold_percent", 100.5, "accumulator.threshold_percent"),
    # a section's validate() names the field: the problem is at its leaf
    ("perception", "vision", {"rotation_gain": 2.0}, "perception.vision.rotation_gain"),
    ("perception", "vision", {"delay_s": -1.0}, "perception.vision.delay_s"),
    # a delay's history is allocated: past 10 s it is refused, not run
    ("perception", "vision", {"enabled": True, "delay_s": 1e7}, "perception.vision.delay_s"),
    ("model", "overrides", {"prop_delay_s": 1e6}, "model.overrides.prop_delay_s"),
    ("perception", "canal_tau_short_s", 10.0, "perception.canal_tau_short_s"),
    ("input", "band_hz", [5, 1], "input.band_hz"),
    ("input", "band_hz", [1, 300], "input.band_hz"),  # Nyquist at dt_s 0.002
    ("input", "duration_s", 2.0, "input.duration_s"),  # 5 cycles of 2.5 Hz
    # the settling interval leaves none of the 3001 samples to weight
    ("metrics", "settle_s", 6.002, "metrics.settle_s"),
]


@pytest.mark.parametrize("section, key, value, leaf", _BAD_INPUTS,
                         ids=[f"{s}.{k}={v!r}" for s, k, v, _ in _BAD_INPUTS])
def test_bad_input_reported_at_leaf_path(tmp_path, capsys, section, key,
                                         value, leaf):
    raw = make_scenario()
    raw.setdefault(section, {})[key] = value
    config, errors = build_config(raw)
    fields = [f for f, _ in errors]
    assert config is None and leaf in fields
    assert not any(f.startswith("posture.posture.") for f in fields)

    assert main(["validate", "--config", str(_write(tmp_path, raw))]) == 1
    assert f"  {leaf}: " in capsys.readouterr().out


def test_settle_s_may_leave_one_sample_or_select_no_metric():
    # 6 s at dt_s 0.002 is 3001 samples: settle_s 6.0 leaves the last one
    raw = make_scenario(metrics={"settle_s": 6.0})
    assert build_config(raw)[1] == []
    raw["metrics"] = {"settle_s": 100.0, "weighted_rms": False, "msdv": False}
    assert build_config(raw)[1] == []


@pytest.mark.parametrize("content", [b"\xff{}", b"[" * 100000 + b"]" * 100000],
                         ids=["not-utf8", "nested-too-deep"])
def test_unreadable_config_is_a_top_level_error(tmp_path, content):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    errors = validate_config(path)
    assert errors and all(f == "" for f, _ in errors)


def test_omitted_keys_take_dataclass_defaults(tmp_path):
    raw = make_scenario()
    for section in ("perception", "accumulator", "metrics"):
        raw[section] = {}
    config = parse_config(_write(tmp_path, raw))
    assert config.perception == VestibularParams()
    assert config.accumulator == AccumulatorParams()
    assert config.stht == STHTOptions()
    assert config.metrics == MetricsOptions()


# keys to mutate, by the path of the object holding them; "mystery" is unknown
_FUZZ_KEYS = {
    (): ["schema_version", "seed", "input", "model", "posture", "perception",
         "accumulator", "metrics", "stht", "output_dir", "mystery"],
    ("input",): ["kind", "path", "signal"] + [
        f.name for f in dataclasses.fields(ExcitationSpec) if f.name != "kind"],
    ("model",): ["preset", "overrides"],
    ("model", "overrides"): list(BodyParams.field_names()),
    ("posture",): [f.name for f in dataclasses.fields(PostureConfig)],
    ("perception",): ["anticipation"] + [
        f.name for f in dataclasses.fields(VestibularParams)],
    ("perception", "vision"): [f.name for f in dataclasses.fields(VisionParams)],
    ("accumulator",): [f.name for f in dataclasses.fields(AccumulatorParams)],
    ("metrics",): ["weighted_rms", "msdv", "settle_s"],
    ("stht",): [f.name for f in dataclasses.fields(STHTOptions)],
    ("stht", "welch"): [f.name for f in dataclasses.fields(WelchParams)],
}
_NUMBERS = st.sampled_from([0, -1, 1, 2, 8, 42, 1e-300, 1e-9, 0.002, 0.5,
                            0.95, 5.0, 9.0, 600.0, 1e9, 1e12, 1e300,
                            10 ** 400]) | st.floats()
_NAMES = st.sampled_from(COORDINATE_NAMES + JOINT_NAMES + RESPONSE_CHANNELS + (
    "erect", "slouched", "none", "low", "high", "x", "y", "z", "noise",
    "sweep", "csv", "excitation", "default", "hann"))
_LEAVES = st.none() | st.booleans() | _NUMBERS | _NAMES | st.text(max_size=4)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        _NAMES | st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


@st.composite
def _mutated_scenarios(draw):
    raw = make_scenario()
    for _ in range(draw(st.integers(1, 4))):
        parents = draw(st.sampled_from(sorted(_FUZZ_KEYS)))
        node = raw
        for name in parents:
            if not isinstance(node.get(name), dict):
                node[name] = {}
            node = node[name]
        key = draw(st.sampled_from(_FUZZ_KEYS[parents]))
        if draw(st.booleans()):
            node.pop(key, None)
        else:
            node[key] = draw(_NUMBERS if draw(st.booleans()) else _VALUES)
    return raw


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_mutated_scenarios())
def test_build_config_never_raises_and_ok_means_usable(raw):
    # fuzzed configs are only validated, never run
    config, errors = build_config(raw)
    if errors:
        assert config is None
        assert all(isinstance(f, str) and isinstance(m, str) for f, m in errors)
        return
    build_model(config.body, config.posture)
    if config.excitation is not None:
        config.excitation.validate()


def test_accumulator_threshold_reaches_the_sickness_summary(tmp_path):
    # lateral sway with a short time constant: the index rises within 6 s
    raw = make_scenario(input={"axis": "y"},
                        accumulator={"time_constant_s": 2.0})
    run_pipeline(parse_config(_write(tmp_path, raw)), tmp_path / "plain")
    msi = timeseries.load_timeseries(tmp_path / "plain" / "sickness.csv").channel("msi")
    threshold = 0.5 * float(msi.max())
    assert threshold > 0.0
    raw["accumulator"]["threshold_percent"] = threshold
    out = tmp_path / "threshold"
    config_path = _write(tmp_path, raw)
    run_pipeline(parse_config(config_path), out)
    ran = (out / "sickness_summary.json").read_bytes()
    # the resumed sickness stage crosses the threshold at the same row
    assert main(["sickness", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "sickness_summary.json").read_bytes() == ran
    summary = json.loads(ran)
    first = int(np.flatnonzero(msi >= threshold)[0])
    assert summary["threshold_percent"] == threshold
    assert summary["time_to_threshold_s"] == pytest.approx(first * 0.002)
    # without the key the summary keeps its nulls; no other file changes
    plain = json.loads((tmp_path / "plain" / "sickness_summary.json").read_text())
    assert plain["threshold_percent"] is None
    assert plain["time_to_threshold_s"] is None
    for name in ("sickness.csv", "conflict.csv", "comfort.json"):
        assert (out / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


# Peak-RSS growth per extra sample of run_pipeline, measured on scenario_default
# between its 20 s and 200 s variants (2-core Linux box): about 965 B/sample
# while simulate and the trace writer held whole-record copies, about 545 after
# both worked in chunks, about 360 once perceive and accumulate worked in
# chunks too, and about 113 since a run streams its chunks through every
# stage: it holds whole only the seat, the six resonance channels and the
# sickness index (80 B), and the resonance scan's work at its end.
_RSS_SLOPE_BOUND = 200  # bytes per sample

_PEAK_RSS = """
import sys
from ridecomfort.pipeline import parse_config, run_pipeline
print(run_pipeline(parse_config(sys.argv[1]), sys.argv[2]).peak_rss_mb)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts KiB on Linux")
def test_run_memory_grows_less_than_the_bound_per_sample(tmp_path):
    raw = json.loads((SHIPPED / "scenario_default.json").read_text())
    raw["input"]["band_hz"] = [0.5, 12.0]  # 10 cycles of its low edge in 20 s
    src = str(Path(ridecomfort.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    peak_mb = {}
    for duration_s in (20.0, 200.0):
        raw["input"]["duration_s"] = duration_s
        config = _write(tmp_path, raw, f"run_{duration_s:g}.json")
        done = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, str(config), str(tmp_path / config.stem)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        peak_mb[duration_s] = float(done.stdout)
    extra_samples = (200.0 - 20.0) / raw["input"]["dt_s"]
    slope = (peak_mb[200.0] - peak_mb[20.0]) * 1e6 / extra_samples
    assert slope < _RSS_SLOPE_BOUND, (slope, peak_mb)
