"""Shared fixtures: small scenario configs that keep test runtime low, and
the runs of the shipped scenarios that several test modules read."""

import json
import copy
from pathlib import Path

import pytest

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


def make_scenario(**tweaks) -> dict:
    raw = copy.deepcopy(TINY_SCENARIO)
    for key, value in tweaks.items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key].update(value)
        else:
            raw[key] = value
    return raw


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
