"""Command-line entry points, exit codes and stage sequencing."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ridecomfort
from ridecomfort import timeseries
from ridecomfort.cli import main
from ridecomfort.excitation import generate_excitation
from ridecomfort.pipeline import parse_config
from ridecomfort.timeseries import load_timeseries, save_timeseries
from conftest import make_scenario


def _write(tmp_path, raw, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def test_validate_ok_and_exit_zero(tiny_config, capsys):
    assert main(["validate", "--config", str(tiny_config)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_lists_problems_exit_one(tmp_path, capsys):
    raw = make_scenario()
    raw["model"]["overrides"] = {"bogus_key": 1}
    raw["schema_version"] = 1
    raw["perception"]["anticipation"] = True
    path = _write(tmp_path, raw)
    assert main(["validate", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert "model.overrides.bogus_key" in out
    assert "perception.anticipation" in out


def test_bad_config_exit_code_one(tmp_path, capsys):
    path = _write(tmp_path, {"schema_version": 1})
    assert main(["pipeline", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    assert "input" in capsys.readouterr().err


def test_pipeline_single_run(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(tiny_config),
                 "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    assert "final MSI" in capsys.readouterr().out


def test_stage_sequence_equals_pipeline(tiny_config, tmp_path):
    pipe_dir = tmp_path / "pipe"
    stage_dir = tmp_path / "stages"
    assert main(["pipeline", "--config", str(tiny_config),
                 "--out", str(pipe_dir)]) == 0
    for cmd in ("simulate", "perceive", "sickness", "metrics"):
        assert main([cmd, "--config", str(tiny_config),
                     "--out", str(stage_dir)]) == 0, cmd

    for name in ("seat_motion.csv", "body_response.csv", "perceived.csv",
                 "conflict.csv", "sickness.csv", "sickness_summary.json",
                 "comfort.json"):
        assert (pipe_dir / name).read_bytes() == \
            (stage_dir / name).read_bytes(), name


def test_stage_missing_artifact_exit_two(tiny_config, tmp_path, capsys):
    # perceive before simulate: the body response is absent
    assert main(["perceive", "--config", str(tiny_config),
                 "--out", str(tmp_path / "empty")]) == 2
    err = capsys.readouterr().err
    assert "body_response.csv" in err


def test_stage_reading_a_non_utf8_artifact_exits_two(tiny_config, tmp_path,
                                                   capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(tiny_config), "--out", str(out)]) == 0
    body = out / "body_response.csv"
    data = bytearray(body.read_bytes())
    data[len(data) // 2] = 0xFF
    body.write_bytes(bytes(data))
    capsys.readouterr()
    for cmd in ("perceive", "metrics"):
        assert main([cmd, "--config", str(tiny_config), "--out", str(out)]) == 2, cmd
        err = capsys.readouterr().err
        assert f"error: {body} is not UTF-8 text (invalid start byte)" in err, cmd


def test_seed_override_changes_output(tiny_config, tmp_path):
    a, b, c = (tmp_path / n for n in ("a", "b", "c"))
    main(["pipeline", "--config", str(tiny_config), "--out", str(a)])
    main(["pipeline", "--config", str(tiny_config), "--out", str(b),
          "--seed", "7"])
    main(["pipeline", "--config", str(tiny_config), "--out", str(c),
          "--seed", "7"])
    seat = "seat_motion.csv"
    assert (a / seat).read_bytes() != (b / seat).read_bytes()
    assert (b / seat).read_bytes() == (c / seat).read_bytes()


def test_axis_override_routes_channel(tiny_config, tmp_path):
    out = tmp_path / "y_run"
    main(["pipeline", "--config", str(tiny_config), "--out", str(out),
          "--axis", "y"])
    report = json.loads((out / "report.json").read_text())
    assert report["manifest"]["input"] == ["seat_motion.csv"]
    head = report["summary"]["head_rms_m_s2"]
    assert head["y"] > head["z"]


def test_vision_override_reaches_perception(tiny_config, tmp_path):
    off_dir, on_dir = tmp_path / "off", tmp_path / "on"
    main(["pipeline", "--config", str(tiny_config), "--out", str(off_dir),
          "--axis", "y"])
    main(["pipeline", "--config", str(tiny_config), "--out", str(on_dir),
          "--axis", "y", "--vision", "on"])
    c_off = (off_dir / "conflict.csv").read_bytes()
    c_on = (on_dir / "conflict.csv").read_bytes()
    assert c_off != c_on


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_pipeline_refuses_jobs_below_one(tiny_config, tmp_path, capsys, jobs):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--config", str(tiny_config), "--config",
              str(tiny_config), "--jobs", jobs, "--out", str(out)])
    assert exc.value.code == 2
    assert f"--jobs: must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_batch_runs_every_config(tiny_config, write_scenario, tmp_path, capsys):
    other = write_scenario("second.json", seed=11)
    out = tmp_path / "batch"
    assert main(["pipeline", "--config", str(tiny_config),
                 "--config", str(other), "--out", str(out),
                 "--jobs", "2"]) == 0
    assert (out / "scenario" / "report.json").exists()
    assert (out / "second" / "report.json").exists()
    assert capsys.readouterr().out.count("->") == 2


def test_batch_with_parallel_writer_matches_serial_runs(tmp_path):
    # 12 s at 500 Hz is 6001 rows: every trace spans two writer blocks, so
    # each batch worker opens its own formatting pool
    configs = [_write(tmp_path, make_scenario(seed=seed, input={"duration_s": 12.0}),
                      f"run{seed}.json") for seed in (5, 6)]
    serial = tmp_path / "serial"
    for path in configs:
        assert main(["pipeline", "--config", str(path),
                     "--out", str(serial / path.stem)]) == 0
    # a save in this process first: no pool or worker may outlive it
    body = load_timeseries(serial / "run5" / "body_response.csv")
    save_timeseries(body, tmp_path / "copy.csv")
    assert multiprocessing.active_children() == []
    assert (tmp_path / "copy.csv").read_bytes() == \
        (serial / "run5" / "body_response.csv").read_bytes()

    batch = tmp_path / "batch"
    src = str(Path(ridecomfort.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args = [sys.executable, "-m", "ridecomfort.cli", "pipeline", "--out", str(batch),
            "--jobs", "2"] + [a for p in configs for a in ("--config", str(p))]
    done = subprocess.run(args, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    for path in configs:
        names = sorted(f.name for f in (serial / path.stem).iterdir())
        assert names == sorted(f.name for f in (batch / path.stem).iterdir())
        for name in names:
            if name != "timing.json":
                assert (serial / path.stem / name).read_bytes() == \
                    (batch / path.stem / name).read_bytes(), name


def test_batch_with_parallel_reader_matches_serial_runs(tmp_path):
    # 30 s at 1 kHz is about 1.2 MB of seat motion: each batch worker reads
    # its csv input in 2 spans, on a reader pool of its own
    configs = []
    for seed in (5, 6):
        made = _write(tmp_path, make_scenario(
            seed=seed, input={"duration_s": 30.0, "dt_s": 0.001}), f"make{seed}.json")
        seat = generate_excitation(parse_config(made).excitation)
        save_timeseries(seat, tmp_path / f"seat{seed}.csv")
        assert (tmp_path / f"seat{seed}.csv").stat().st_size > timeseries._READ_SPAN_BYTES
        raw = make_scenario()
        raw["input"] = {"kind": "csv", "path": str(tmp_path / f"seat{seed}.csv")}
        configs.append(_write(tmp_path, raw, f"run{seed}.json"))
    serial = tmp_path / "serial"
    for path in configs:
        assert main(["pipeline", "--config", str(path),
                     "--out", str(serial / path.stem)]) == 0
    assert multiprocessing.active_children() == []

    batch = tmp_path / "batch"
    src = str(Path(ridecomfort.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args = [sys.executable, "-m", "ridecomfort.cli", "pipeline", "--out", str(batch),
            "--jobs", "2"] + [a for p in configs for a in ("--config", str(p))]
    done = subprocess.run(args, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    for path in configs:
        names = sorted(f.name for f in (serial / path.stem).iterdir())
        assert names == sorted(f.name for f in (batch / path.stem).iterdir())
        for name in names:
            if name != "timing.json":
                assert (serial / path.stem / name).read_bytes() == \
                    (batch / path.stem / name).read_bytes(), name


def test_stht_subcommand_writes_frf_files(tiny_config, tmp_path):
    out = tmp_path / "stht"
    assert main(["stht", "--config", str(tiny_config), "--out", str(out),
                 "--axis", "z"]) == 0
    assert (out / "stht_z_resonances.json").exists()
    assert (out / "stht_z_head_acc_z.csv").exists()


def test_stht_rejects_csv_input(tmp_path):
    raw = make_scenario()
    csv_path = tmp_path / "seat.csv"
    csv_path.write_text(
        "time_s,seat_acc_x[m/s^2],seat_acc_y[m/s^2],seat_acc_z[m/s^2]\n"
        + "".join(f"{i * 0.002},0,0,0\n" for i in range(1000)))
    raw["input"] = {"kind": "csv", "path": str(csv_path)}
    path = _write(tmp_path, raw)
    assert main(["stht", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 1


def test_metrics_needs_some_artifact(tiny_config, tmp_path, capsys):
    assert main(["metrics", "--config", str(tiny_config),
                 "--out", str(tmp_path / "nothing")]) == 2


def test_metrics_refuses_records_on_different_grids(write_scenario, tmp_path,
                                                    capsys):
    # no settling interval, so a 2-row record is long enough to weight
    config = write_scenario(metrics={"settle_s": 0.0})
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
    body = out / "body_response.csv"
    body.write_text("".join(body.read_text().splitlines(True)[:3]))
    capsys.readouterr()
    # the 2 rows keep the seat record's dt: only the length gives them away
    assert main(["metrics", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert ("seat record and body response must share one grid: "
            "3001 samples from t = 0 s against 2 from t = 0 s") in err
