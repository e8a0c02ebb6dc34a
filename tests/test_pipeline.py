"""Scenario configs, staged execution and run artifacts."""

import dataclasses
import json
import math
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ridecomfort import timeseries
from ridecomfort.body import BodyParams, PostureConfig, build_model
from ridecomfort.body.params import COORDINATE_NAMES, JOINT_NAMES
from ridecomfort.cli import main
from ridecomfort.errors import ConfigError
from ridecomfort.excitation import ExcitationSpec
from ridecomfort.perception import VestibularParams, VisionParams
from ridecomfort.pipeline import (
    _STAGE_FILES, build_config, parse_config, run_pipeline, validate_config)
from ridecomfort.sickness import AccumulatorParams
from ridecomfort.spectral import WelchParams
from ridecomfort.stht import RESPONSE_CHANNELS, STHTOptions
from conftest import make_scenario

SHIPPED = Path(__file__).resolve().parents[1] / "src" / "ridecomfort" / "data" / "examples"


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
    assert config.metrics_settle_s == 0.5


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
_STAGE_COMMANDS = ("simulate", "perceive", "sickness", "metrics")


def _tree(out):
    return {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())
            if p.name != "timing.json"}


def _pipeline_and_stage_trees(config, out):
    """Run ``config`` as a pipeline and as the stage commands in turn; the
    number of writer pools each run or command opened."""
    opened = []

    class CountedPool(timeseries.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(1)
            super().__init__(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(timeseries, "ProcessPoolExecutor", CountedPool)
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


def test_write_behind_trees_equal_in_process_runs(tmp_path, monkeypatch):
    config = _write(tmp_path, make_scenario(**_TWO_BLOCKS))
    pipe, stages, pools = _pipeline_and_stage_trees(config, tmp_path / "pooled")
    # one pool per run and per command, or none
    assert pools == [int(_POOLED)] * 5
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
    monkeypatch.setattr(timeseries, "_format_rows", _die_on_body_rows)
    out = tmp_path / "run"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert (f"stage 'body' failed: cannot write {out / 'body_response.csv'}: "
            "a worker process ended abruptly") in capsys.readouterr().err
    assert not (out / "report.json").exists()
    assert multiprocessing.active_children() == []


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
               for name in _STAGE_FILES[stage]]
    assert sorted(_tree(out)) == sorted(earlier)
    for name in earlier:
        assert (out / name).read_bytes() == (good / name).read_bytes(), name


def test_unreadable_csv_input_reported_at_input_path(tmp_path):
    raw = _csv_scenario(tmp_path, 10)
    (tmp_path / "seat.csv").write_bytes(b"time_s,seat_acc_x[m/s^2]\n0,\xff\n")
    _, errors = build_config(raw, tmp_path)
    assert [f for f, _ in errors] == ["input.path"]


@pytest.mark.parametrize("content, message", [
    (b"", "is empty"),
    (b"\n \r\n", "is empty"),
    (b"time_s,seat_acc_x[m/s^2]\r\n\n", "has a header but no samples"),
    # one row defines no sample step
    (b"time_s,seat_acc_x[m/s^2]\n0,1\n",
     "has 1 sample row; a sample step needs at least 2"),
], ids=["empty", "blank", "header-only", "one-row"])
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
    ("model", "overrides", {"head_mass_kg": 1e9}, "model"),
    ("stht", "welch", {"segment_length": 256, "window": "nosuchwindow"},
     "stht.welch.window"),
    ("stht", "welch", {"segment_length": 100000}, "stht.welch.segment_length"),
    ("input", "rms_m_s2", 1e300, "input.rms_m_s2"),
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
    assert (config.metrics_rms, config.metrics_msdv,
            config.metrics_settle_s) == (True, True, 0.0)


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
