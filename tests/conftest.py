"""Shared fixtures: small scenario configs that keep test runtime low, and
the runs of the shipped scenarios that several test modules read."""

import json
import copy
from pathlib import Path

import pytest

from ridecomfort import timeseries
from ridecomfort.body import BodyParams, COORDINATE_NAMES, PostureConfig, build_model
from ridecomfort.pipeline import parse_config, run_pipeline

EXAMPLES = Path(__file__).resolve().parents[1] / "src" / "ridecomfort" / "data" / "examples"

_ACCEPTANCE_LINES = []


def record_verdict(line: str) -> None:
    """Collect acceptance verdicts for the end-of-run summary."""
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

# 6 s of band noise at 500 Hz: long enough for Welch segments and the
# sickness chain, short enough that a pipeline run stays under a second.
TINY_SCENARIO = {
    "schema_version": 1,
    "seed": 42,
    "input": {
        "kind": "excitation",
        "axis": "z",
        "signal": "noise",
        "band_hz": [2.5, 8.0],
        "rms_m_s2": 0.6,
        "duration_s": 6.0,
        "dt_s": 0.002,
    },
    "model": {"preset": "default", "overrides": {}},
    "posture": {"posture": "erect", "backrest_contact": "high"},
    "perception": {"vision": {"enabled": False}},
    "accumulator": {},
    "metrics": {"weighted_rms": True, "msdv": True, "settle_s": 0.5},
}


def counted_pools(monkeypatch):
    """The list that each trace writer pool opened from now on appends 1 to."""
    opened = []

    class CountedPool(timeseries.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(timeseries, "ProcessPoolExecutor", CountedPool)
    return opened


def make_scenario(**tweaks) -> dict:
    raw = copy.deepcopy(TINY_SCENARIO)
    for key, value in tweaks.items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key].update(value)
        else:
            raw[key] = value
    return raw


Z_ONLY = tuple(n for n in COORDINATE_NAMES if n != "seat_z")


def single_dof_model(m_total=60.0, k=60000.0, c=1500.0):
    """Seat-z chain collapsed to one coordinate: a textbook base-excited
    mass-spring-damper with known transmissibility."""
    params = BodyParams.from_preset("default", {
        "pelvis_mass_kg": m_total * 0.5,
        "trunk_mass_kg": m_total * 1.0 / 3.0,
        "head_mass_kg": m_total * 1.0 / 6.0,
        "seat_stiffness_z_N_per_m": k,
        "seat_damping_z_Ns_per_m": c,
    })
    return build_model(params, PostureConfig(locked_coordinates=Z_ONLY))


def _preset_model(overrides=None):
    return build_model(BodyParams.from_preset("default", overrides))


# one sweep_compute-style point, varied over the pool's prop delays
_SWEEP_OVERRIDES = {"head_mass_kg": 5.731, "neck_stiffness_roll_Nm_per_rad": 11.402,
                    "neck_stiffness_pitch_Nm_per_rad": 16.874,
                    "seat_stiffness_z_N_per_m": 52417.3}
# models the step-map synthesis and stability-check tests share,
# name: (model factory, dt, number of delay taps at that dt)
MODEL_CASES = {
    "default": (_preset_model, 0.001, 2),
    **{f"sweep_prop_{d}": (lambda d=d: _preset_model({**_SWEEP_OVERRIDES, "prop_delay_s": d}),
                           0.001, 2)
       for d in (0.015, 0.025, 0.04)},
    "single_dof": (single_dof_model, 0.001, 0),
    # prop_delay_s = 0.025 rounds to N = 0 at dt = 0.1 s and folds into Keff
    "prop_folded": (_preset_model, 0.1, 1),
}


@pytest.fixture
def tiny_config(tmp_path):
    """Write the tiny scenario to disk and return its path."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(TINY_SCENARIO))
    return path


@pytest.fixture
def write_scenario(tmp_path):
    """Factory writing tweaked scenarios; returns the config path."""
    def _write(name="scenario.json", **tweaks):
        path = tmp_path / name
        path.write_text(json.dumps(make_scenario(**tweaks)))
        return path
    return _write


@pytest.fixture(scope="session")
def default_runs(tmp_path_factory):
    """Two runs of the shipped default scenario (realtime + determinism)."""
    base = tmp_path_factory.mktemp("default_runs")
    config = parse_config(EXAMPLES / "scenario_default.json")
    dirs = (base / "r1", base / "r2")
    for d in dirs:
        run_pipeline(config, d)
    return dirs


@pytest.fixture(scope="session")
def curved_runs(tmp_path_factory):
    """Two vision-off runs plus one vision-on run of the curved scenario."""
    base = tmp_path_factory.mktemp("curved_runs")
    path = EXAMPLES / "scenario_curved.json"
    off = parse_config(path, vision="off")
    on = parse_config(path, vision="on")
    dirs = {"off1": base / "off1", "off2": base / "off2", "on": base / "on"}
    run_pipeline(off, dirs["off1"])
    run_pipeline(off, dirs["off2"])
    run_pipeline(on, dirs["on"])
    return dirs
