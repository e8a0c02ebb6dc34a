"""Command-line entry points, exit codes and stage sequencing."""

import errno
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import ridecomfort
from ridecomfort import cli, errors, pipeline as pl, timeseries
from ridecomfort.cli import main
from ridecomfort.comfort import BODY_CHANNELS as COMFORT_CHANNELS
from ridecomfort.excitation import generate_excitation
from ridecomfort.perception import BODY_CHANNELS as PERCEPTION_CHANNELS
from ridecomfort.pipeline import parse_config
from ridecomfort.timeseries import load_timeseries, save_timeseries
from conftest import EXAMPLES, make_scenario


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


@pytest.mark.parametrize("overrides, message", [
    ({"backrest_stiffness_N_per_m": 1e308},
     "model.overrides.backrest_stiffness_N_per_m: must be at most 1e+08 N/m"),
    ({"head_mass_kg": 1e300}, "model.overrides.head_mass_kg: must be at most 1000 kg"),
    ({"gravity_m_per_s2": 1e300},
     "model.overrides.gravity_m_per_s2: must be at most 100 m/s^2"),
    # a gravity load that overflows to inf, whose model LAPACK would print
    # complaints about at the file-descriptor level
    ({"gravity_m_per_s2": 1e308},
     "model.overrides.gravity_m_per_s2: must be at most 100 m/s^2"),
    ({"trunk_inertia_yaw_kgm2": 2e4},
     "model.overrides.trunk_inertia_yaw_kgm2: must be at most 10000 kg m^2"),
    ({"seat_damping_z_Ns_per_m": 1e7},
     "model.overrides.seat_damping_z_Ns_per_m: must be at most 1e+06 Ns/m"),
    ({"prop_gain_neck_Nm_per_rad": 1e7},
     "model.overrides.prop_gain_neck_Nm_per_rad: must be at most 1e+06 Nm/rad"),
    ({"neck_damping_roll_Nms_per_rad": 1e7},
     "model.overrides.neck_damping_roll_Nms_per_rad: must be at most 1e+06 Nms/rad"),
], ids=["backrest-stiffness-1e308", "head-mass-1e300", "gravity-1e300", "gravity-1e308",
        "inertia-2e4", "damping-1e7", "gain-1e7", "rot-damping-1e7"])
def test_validate_refuses_a_huge_body_parameter_at_its_field(tmp_path, capsys, monkeypatch,
                                                            overrides, message):
    raw = make_scenario()
    raw["model"]["overrides"] = overrides
    built = []
    monkeypatch.setattr(pl, "build_model", lambda *args: built.append(args))
    assert main(["validate", "--config", str(_write(tmp_path, raw))]) == 1
    out = capsys.readouterr().out
    assert f"  {message}\n" in out and "no usable model" not in out
    assert built == []  # refused before any LAPACK call


@pytest.mark.parametrize("overrides, message", [
    ({"backrest_height_m": 1e100}, "model.overrides.backrest_height_m: must be at most 5 m"),
    ({"backrest_height_m": 1e140}, "model.overrides.backrest_height_m: must be at most 5 m"),
    ({"l5s1_to_c7t1_m": 1e100}, "model.overrides.l5s1_to_c7t1_m: must be at most 5 m"),
    ({"pelvis_to_l5s1_m": 50.0}, "model.overrides.pelvis_to_l5s1_m: must be at most 5 m"),
    ({"c7t1_to_head_com_m": 5.5}, "model.overrides.c7t1_to_head_com_m: must be at most 5 m"),
], ids=["backrest-1e100", "backrest-1e140", "trunk-1e100", "pelvis-50", "neck-5.5"])
def test_validate_refuses_a_huge_body_length_at_its_field(tmp_path, capsys, overrides,
                                                         message):
    raw = make_scenario()
    raw["model"]["overrides"] = overrides
    assert main(["validate", "--config", str(_write(tmp_path, raw))]) == 1
    out = capsys.readouterr().out
    assert f"  {message}\n" in out and "no usable model" not in out


def test_validate_prints_an_unstable_mode_shape_as_plain_floats(tmp_path, capsys):
    raw = make_scenario()
    raw["model"]["overrides"] = {"prop_gain_neck_Nm_per_rad": 500.0, "prop_delay_s": 0.2}
    assert main(["validate", "--config", str(_write(tmp_path, raw))]) == 1
    out = capsys.readouterr().out
    assert "model: no usable model: closed-loop eigenvalue" in out
    assert "dominant mode shape {'seat_x': " in out and "np.float64" not in out


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
    # each resumed stage before the command that writes its input; metrics
    # names its first trace when it has neither
    out = tmp_path / "empty"
    for command, name, hint in (("perceive", "body_response.csv", "simulate"),
                                ("sickness", "conflict.csv", "perceive"),
                                ("metrics", "seat_motion.csv", "simulate")):
        assert main([command, "--config", str(tiny_config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {out / name} not found; run `ridecomfort {hint}` first" in err
    # metrics weights whichever of its two traces exists
    assert main(["simulate", "--config", str(tiny_config), "--out", str(out)]) == 0
    (out / "body_response.csv").unlink()
    assert main(["metrics", "--config", str(tiny_config), "--out", str(out)]) == 0


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
    # its csv input in pieces, in-process, and formats its traces on a
    # writer pool of its own
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


def test_every_error_survives_pickling():
    made = [
        errors.EmptyFile("empty"), errors.MissingChannel("head_acc_z", "b.csv"),
        errors.NonUniformSampling(3, 0.002, 0.004), errors.NonFiniteSample("a", 7),
        errors.InvalidRate("rate"), errors.SegmentTooLong("long"),
        errors.TooFewSegments("few"), errors.SingularMassMatrix("singular"),
        errors.UnstableConfiguration(0.5 + 1j, [1.0, 0.0]),
        errors.NoEquilibrium("none"), errors.NonFiniteState(1.5, "head_z"),
        errors.InvalidBand("band"), errors.GridMismatch("grid"),
        errors.UnsupportedRate("fs"), errors.UnitMismatch("unit"),
        errors.RateMismatch("rates"), errors.ConfigError([("a.b", "bad"), ("", "worse")]),
        errors.StageError("input", errors.NonFiniteSample("seat_acc_z", 2)),
        errors.IoError("io"), errors.RideComfortError("base")]
    assert {type(e) for e in made} == {
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.RideComfortError)}
    for error in made:
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is type(error)
        assert (str(back), back.args) == (str(error), error.args)
        assert set(vars(back)) == set(vars(error))
    back = {type(e): pickle.loads(pickle.dumps(e)) for e in made}
    assert back[errors.ConfigError].errors == [("a.b", "bad"), ("", "worse")]
    stage = back[errors.StageError]
    assert (stage.stage, type(stage.cause), str(stage.cause)) == (
        "input", errors.NonFiniteSample, "non-finite sample in channel 'seat_acc_z' at row 2")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_with_a_failing_config_exits_two(write_scenario, tmp_path, capsys, jobs):
    # the failing config is named, and the other still runs and reports,
    # whichever comes first
    csv_path = tmp_path / "seat.csv"
    csv_path.write_text(
        "time_s,seat_acc_x[m/s^2],seat_acc_y[m/s^2],seat_acc_z[m/s^2]\n"
        + "".join(f"{i * 0.002},0,0,{'nan' if i == 5 else 0}\n" for i in range(1000)))
    raw = make_scenario()
    raw["input"] = {"kind": "csv", "path": str(csv_path)}
    bad, good = _write(tmp_path, raw, "bad.json"), write_scenario("good.json")
    for order in ((bad, good), (good, bad)):
        out = tmp_path / f"batch_{order[0].stem}"
        assert main(["pipeline", "--config", str(order[0]), "--config", str(order[1]),
                     "--out", str(out), "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {bad}: stage 'input' failed: non-finite "
                                f"sample in channel 'seat_acc_z' at row 5 in "
                                f"{csv_path.resolve()} line 7\n")
        msi = json.loads((out / "good" / "report.json").read_text())["summary"][
            "final_msi_percent"]
        assert captured.out == (f"pipeline: {good} -> {out / 'good'} "
                                f"(final MSI {msi:.3g}%)\n")


@pytest.mark.parametrize("command", ["pipeline", "simulate", "stht", "perceive",
                                     "sickness", "metrics"])
def test_an_out_that_cannot_be_made_exits_two(tiny_config, tmp_path, capsys,
                                              command):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"
    assert main([command, "--config", str(tiny_config), "--out", str(out)]) == 2
    assert f"error: cannot create output directory {out}: " in capsys.readouterr().err


def test_stht_write_failure_is_a_stage_error(tiny_config, tmp_path, capsys):
    out = tmp_path / "stht"
    (out / "stht_z_resonances.json").mkdir(parents=True)
    assert main(["stht", "--config", str(tiny_config), "--out", str(out),
                 "--axis", "z"]) == 2
    assert "error: stage 'stht' failed: " in capsys.readouterr().err


_WRITTEN = [(stage, name) for stage, spec in pl.STAGES.items() for name in spec.writes]


@pytest.mark.parametrize("stage, name", _WRITTEN, ids=[n for _, n in _WRITTEN])
def test_a_blocked_output_fails_the_stage_that_writes_it(tiny_config, tmp_path,
                                                         capsys, stage, name):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(tiny_config), "--out", str(out)]) == 0
    (out / name).unlink()
    (out / name).mkdir()
    command = next(c for c, (stages, _) in cli._STAGE_COMMANDS.items()
                   if stage in stages)
    capsys.readouterr()
    for cmd in ("pipeline", command):
        assert main([cmd, "--config", str(tiny_config), "--out", str(out)]) == 2, cmd
        err = capsys.readouterr().err
        assert f"error: stage '{stage}' failed: " in err and str(out / name) in err, cmd
        assert multiprocessing.active_children() == []


_TWINNED = [(stage, timeseries.twin_path(name).name) for stage, spec in pl.STAGES.items()
            for name in spec.writes if name in pl._TWINNED]


@pytest.mark.parametrize("stage, name", _TWINNED, ids=[n for _, n in _TWINNED])
def test_a_blocked_twin_fails_the_stage_that_writes_its_trace(tiny_config, tmp_path,
                                                              capsys, stage, name):
    out = tmp_path / "run"
    (out / name).mkdir(parents=True)
    assert main(["pipeline", "--config", str(tiny_config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: stage '{stage}' failed: " in err and str(out / name) in err
    # the trace opened before its twin is removed again
    assert not (out / name).with_suffix(".csv").exists()
    assert multiprocessing.active_children() == []


def _cli_under_file_size_limit(limit, command, config, out):
    """Run the CLI ``command`` in a process whose files may not grow past
    ``limit`` bytes, in dev mode, where an unclosed file or pool is an
    error.  CPython ignores SIGXFSZ, so the write that would pass the limit
    fails with EFBIG."""
    src = str(Path(ridecomfort.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    limited = ("import os, resource, sys; n = int(sys.argv[1]); "
               "resource.setrlimit(resource.RLIMIT_FSIZE, (n, n)); "
               "os.execv(sys.executable, [sys.executable, *sys.argv[2:]])")
    args = [sys.executable, "-c", limited, str(limit), "-X", "dev",
            "-W", "error::ResourceWarning", "-m", "ridecomfort.cli", command,
            "--config", str(config), "--out", str(out)]
    return subprocess.run(args, env=env, capture_output=True, text=True, timeout=120)


_EFBIG = f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"
# limit, command, the stage that fails, and the file it fails on
_FILE_SIZE_LIMITS = [(3_000_000, "pipeline", "body", "body_response.npy"),
                     (2_000_000, "perceive", "perception", "perceived.csv")]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="RLIMIT_FSIZE is POSIX")
@pytest.mark.parametrize("limit, command, stage, name", _FILE_SIZE_LIMITS,
                         ids=[c for _, c, _, _ in _FILE_SIZE_LIMITS])
def test_a_file_size_limit_fails_the_stage_that_writes_past_it(default_runs, tmp_path,
                                                               limit, command, stage, name):
    # a real write failure, past a file size limit
    good = default_runs[0]
    out = tmp_path / "run"
    if command == "perceive":  # resumed in a finished run's directory
        out.mkdir()
        for path in good.iterdir():
            (out / path.name).write_bytes(path.read_bytes())
    done = _cli_under_file_size_limit(limit, command, EXAMPLES / "scenario_default.json", out)
    assert done.returncode == 2, done.stderr
    assert done.stderr == f"error: stage '{stage}' failed: cannot write {out / name}: {_EFBIG}\n"
    stages = list(pl.STAGES)
    gone = {written for s in (stages[stages.index(stage):] if command == "pipeline"
                              else [stage])
            for written in pl.STAGES[s].writes}
    gone |= {timeseries.twin_path(n).name for n in gone if n in pl._TWINNED}
    # the files of the stages before, and for a resume the ones it does not
    # run, are those of a run without the limit
    kept = sorted(p.name for p in good.iterdir() if p.name not in gone
                  and (command == "perceive" or p.name not in ("report.json", "timing.json")))
    assert sorted(p.name for p in out.iterdir()) == kept
    for kept_name in kept:
        assert (out / kept_name).read_bytes() == (good / kept_name).read_bytes(), kept_name


@pytest.mark.skipif(not hasattr(os, "fork"), reason="RLIMIT_FSIZE is POSIX")
def test_a_file_that_fails_as_it_closes_fails_the_stage_that_writes_it(tmp_path):
    # the record ends in a block of 4 rows, whose bytes the file's buffer
    # holds until its close writes them out.  The body's twin is the
    # largest file: a limit a byte short of it fails that close
    config = _write(tmp_path, make_scenario(input={"duration_s": 16.39}))
    assert parse_config(config).excitation.n_samples % timeseries._BLOCK_ROWS == 4
    good, out = tmp_path / "good", tmp_path / "run"
    assert main(["pipeline", "--config", str(config), "--out", str(good)]) == 0
    name = "body_response.npy"
    sizes = {path.name: path.stat().st_size for path in good.iterdir()}
    assert max(sizes, key=sizes.get) == name
    done = _cli_under_file_size_limit(sizes[name] - 1, "pipeline", config, out)
    assert done.returncode == 2, done.stderr
    assert done.stderr == f"error: stage 'body' failed: cannot write {out / name}: {_EFBIG}\n"
    # the seat's files are complete, and no file of the body or later is left
    assert sorted(p.name for p in out.iterdir()) == ["seat_motion.csv", "seat_motion.npy"]
    for kept in out.iterdir():
        assert kept.read_bytes() == (good / kept.name).read_bytes(), kept.name


def test_stht_subcommand_writes_frf_files(tiny_config, tmp_path):
    out = tmp_path / "stht"
    assert main(["stht", "--config", str(tiny_config), "--out", str(out),
                 "--axis", "z"]) == 0
    assert (out / "stht_z_resonances.json").exists()
    assert (out / "stht_z_head_acc_z.csv").exists()


def test_a_band_past_nyquist_validates_and_runs(tmp_path, capsys):
    """validate, stht and pipeline agree on a band reaching past the FRF
    grid: each clamps it there (the shipped default, at 1 kHz)."""
    raw = json.loads((EXAMPLES / "scenario_default.json").read_text())
    raw["stht"] = {"band_hz": [1, 800]}
    path = _write(tmp_path, raw)
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: ok\n"
    for command in ("stht", "pipeline"):
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path / command)]) == 0, capsys.readouterr().err
    table = json.loads((tmp_path / "stht" / "stht_z_resonances.json").read_text())
    assert table["band_hz"] == [1, 800]
    assert sorted(table["resonances"]) == sorted(cli.RESPONSE_CHANNELS)


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


def test_axis_on_a_csv_input_is_a_config_error(tmp_path, capsys):
    raw = make_scenario()
    csv_path = tmp_path / "seat.csv"
    csv_path.write_text(
        "time_s,seat_acc_x[m/s^2],seat_acc_y[m/s^2],seat_acc_z[m/s^2]\n"
        + "".join(f"{i * 0.002},0,0,0\n" for i in range(1000)))
    raw["input"] = {"kind": "csv", "path": str(csv_path)}
    path = _write(tmp_path, raw)
    out = tmp_path / "o"
    assert main(["pipeline", "--config", str(path), "--out", str(out),
                 "--axis", "x"]) == 1
    assert "  --axis: " in capsys.readouterr().err
    assert not out.exists()


def test_seed_on_a_csv_input_is_a_config_error(tmp_path, capsys):
    # nothing reads the seed of a csv input: refused as --axis is
    raw = make_scenario()
    csv_path = tmp_path / "seat.csv"
    csv_path.write_text(
        "time_s,seat_acc_x[m/s^2],seat_acc_y[m/s^2],seat_acc_z[m/s^2]\n"
        + "".join(f"{i * 0.002},0,0,0\n" for i in range(1000)))
    raw["input"] = {"kind": "csv", "path": str(csv_path)}
    path = _write(tmp_path, raw)
    out = tmp_path / "o"
    assert main(["pipeline", "--config", str(path), "--out", str(out),
                 "--seed", "5"]) == 1
    assert "  --seed: applies to an excitation input" in capsys.readouterr().err
    assert not out.exists()


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


_RESUMED = ("perceived.csv", "conflict.csv", "sickness.csv",
            "sickness_summary.json", "comfort.json")


@pytest.fixture
def resumable(tiny_config, tmp_path, monkeypatch):
    """A pipeline directory, its outputs' bytes, and the file name of each
    CSV parse made from then on."""
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(tiny_config), "--out", str(out)]) == 0
    want = {name: (out / name).read_bytes() for name in _RESUMED}
    parsed = []
    parse_data = timeseries._parse_data

    def spy(fh, *args):
        parsed.append(Path(fh.name).name)
        return parse_data(fh, *args)

    monkeypatch.setattr(timeseries, "_parse_data", spy)
    return out, want, parsed


def _resume(config, out, commands=("perceive", "sickness", "metrics")):
    return [main([cmd, "--config", str(config), "--out", str(out)])
            for cmd in commands]


def test_stage_commands_parse_only_the_vouched_columns_they_use(
        tiny_config, resumable, monkeypatch):
    out, want, parsed = resumable
    loads = []
    load_twin = cli.load_twin

    def spy(path, sha256, channels=None):
        ts = load_twin(path, sha256, channels)
        loads.append((Path(path).name, channels, ts.channel_names))
        return ts

    monkeypatch.setattr(cli, "load_twin", spy)
    assert _resume(tiny_config, out) == [0, 0, 0]
    # head rotation rates, accelerations and angles for perceive; the
    # head accelerations for metrics; every channel of the other two, all
    # from the twins, so no CSV is parsed
    assert loads == [("body_response.csv", PERCEPTION_CHANNELS, PERCEPTION_CHANNELS),
                     ("conflict.csv", None, ("conflict",)),
                     ("seat_motion.csv", None, ("seat_acc_x", "seat_acc_y", "seat_acc_z")),
                     ("body_response.csv", COMFORT_CHANNELS, COMFORT_CHANNELS)]
    assert parsed == []
    for name, data in want.items():
        assert (out / name).read_bytes() == data, name


def test_stage_commands_load_every_trace_through_one_positional_call(
        tiny_config, resumable, monkeypatch):
    # a stand-in for cli.load_timeseries that takes its arguments only by
    # position sees every load of every stage command
    out, want, parsed = resumable
    calls = []
    load = cli.load_timeseries

    def stand_in(path, channels=None, /):
        calls.append((Path(path).name, channels))
        return load(path, channels)

    monkeypatch.setattr(cli, "load_timeseries", stand_in)
    assert _resume(tiny_config, out) == [0, 0, 0]
    assert calls == [("body_response.csv", PERCEPTION_CHANNELS),
                     ("conflict.csv", None),
                     ("seat_motion.csv", None),
                     ("body_response.csv", COMFORT_CHANNELS)]
    assert parsed == []
    for name, data in want.items():
        assert (out / name).read_bytes() == data, name


_TRUNK_ACC_Y = 5  # a body-response column neither perceive nor metrics reads
_HEAD_ACC_X = 7  # one that both read


def _edit_body_value(out, row, text, column=_TRUNK_ACC_Y):
    path = out / "body_response.csv"
    lines = path.read_bytes().split(b"\n")
    cells = lines[row + 1].split(b",")
    cells[column] = text.encode()
    lines[row + 1] = b",".join(cells)
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("text, message", [
    # the header is line 1, so row 100 is on line 102
    ("nan", "non-finite sample in channel 'trunk_acc_y' at row 100 in "
     "{out}/body_response.csv line 102"),
    ("abc", "body_response.csv line 102, column trunk_acc_y[m/s^2]: 'abc' is not a number"),
    ("12.5", None),
])
def test_an_edited_unread_body_value_is_read_in_full(tiny_config, resumable,
                                                     capsys, text, message):
    out, want, parsed = resumable
    _edit_body_value(out, 100, text)
    capsys.readouterr()
    codes = _resume(tiny_config, out, ("perceive", "metrics"))
    assert parsed == ["body_response.csv"] * 2
    if message is None:
        assert codes == [0, 0]
        for name, data in want.items():
            assert (out / name).read_bytes() == data, name
        return
    assert codes == [2, 2]
    err = capsys.readouterr().err
    message = message.format(out=out)
    assert err.count("error: ") == err.count(f"{message}\n") == 2, err


@pytest.mark.parametrize("report", [
    lambda text: text[:len(text) // 2],
    lambda text: json.dumps({**json.loads(text), "artifacts": []}),
    lambda text: json.dumps({**json.loads(text), "artifacts": {
        "body_response.csv": {"rows": 3001, "dt": 0.002, "sha256": 12345}}}),
    lambda text: json.dumps({**json.loads(text), "artifacts": {}}),
], ids=["truncated", "artifacts-list", "numeric-sha256", "missing-entry"])
def test_a_malformed_report_vouches_for_nothing(tiny_config, resumable, report):
    out, want, parsed = resumable
    path = out / "report.json"
    path.write_text(report(path.read_text()))
    assert _resume(tiny_config, out) == [0, 0, 0]
    assert parsed == ["body_response.csv", "conflict.csv", "seat_motion.csv",
                      "body_response.csv"]
    for name, data in want.items():
        assert (out / name).read_bytes() == data, name


def _flip_middle_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))


_TWINS = ("seat_motion.npy", "body_response.npy", "conflict.npy")
_EVERY_LOAD = ["body_response.csv", "conflict.csv", "seat_motion.csv", "body_response.csv"]


@pytest.mark.parametrize("edit, parses", [
    # perceive writes conflict.npy again, as recorded, and sickness reads it
    (lambda out: [(out / name).unlink() for name in _TWINS],
     ["body_response.csv", "seat_motion.csv", "body_response.csv"]),
    (lambda out: _flip_middle_byte(out / "body_response.npy"), ["body_response.csv"] * 2),
    (lambda out: (out / "report.json").unlink(), _EVERY_LOAD),
], ids=["twins-missing", "twin-byte-flipped", "report-missing"])
def test_a_twin_that_cannot_vouch_leaves_the_csv_to_a_full_parse(tiny_config, resumable,
                                                                 edit, parses):
    out, want, parsed = resumable
    edit(out)
    assert _resume(tiny_config, out) == [0, 0, 0]
    assert parsed == parses
    for name, data in want.items():
        assert (out / name).read_bytes() == data, name


def test_an_edited_csv_is_read_and_never_its_stale_twin(tiny_config, resumable, tmp_path):
    # a head acceleration that perceive and metrics both read, edited in a
    # vouched directory and in one without twins or report: both resume alike
    out, want, parsed = resumable
    bare = tmp_path / "bare"
    bare.mkdir()
    for name in ("seat_motion.csv", "body_response.csv"):
        (bare / name).write_bytes((out / name).read_bytes())
    for where in (out, bare):
        _edit_body_value(where, 100, "3.5", _HEAD_ACC_X)
        assert _resume(tiny_config, where) == [0, 0, 0]
    # the edited CSV in full, and the conflict trace perceive wrote from it
    assert parsed == ["body_response.csv", "conflict.csv", "body_response.csv"] + _EVERY_LOAD
    for name in want:
        assert (out / name).read_bytes() == (bare / name).read_bytes(), name
    assert (out / "comfort.json").read_bytes() != want["comfort.json"]
