"""Conflict-to-sickness accumulation dynamics and summaries."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from ridecomfort import sickness
from ridecomfort.sickness import AccumulatorParams, accumulate, summarize
from ridecomfort.timeseries import from_arrays, save_json


def _conflict(dt, values):
    values = np.asarray(values, dtype=float)
    return from_arrays(dt, values[:, None], [("conflict", "m/s^2")])


def test_params_validation():
    AccumulatorParams().validate()
    with pytest.raises(ValueError):
        AccumulatorParams(half_saturation_m_s2=0.0).validate()
    with pytest.raises(ValueError):
        AccumulatorParams(hill_exponent=0.5).validate()
    with pytest.raises(ValueError):
        AccumulatorParams(time_constant_s=-1.0).validate()
    with pytest.raises(ValueError):
        AccumulatorParams(ceiling_percent=120.0).validate()


def test_zero_conflict_gives_zero_trace():
    trace = accumulate(_conflict(0.1, np.zeros(1000)))
    assert np.all(trace.channel("msi") == 0.0)


def test_negative_conflict_rejected():
    with pytest.raises(ValueError):
        accumulate(_conflict(0.1, np.array([0.0, -0.1, 0.0])))


def test_half_saturation_plateau():
    # constant conflict at the half-saturation level drives the cascade
    # toward half the ceiling; after ten time constants the remaining
    # transient is below 0.05 percent of the plateau
    p = AccumulatorParams(half_saturation_m_s2=0.5, time_constant_s=50.0)
    dt = 0.05
    n = int(10 * p.time_constant_s / dt) + 1
    trace = accumulate(_conflict(dt, np.full(n, 0.5)), p)
    msi = trace.channel("msi")
    plateau = 0.5 * p.ceiling_percent
    assert msi[-1] == pytest.approx(plateau, rel=1e-3)
    assert np.all(np.diff(msi) >= 0.0)


def test_cascade_step_shape_at_one_time_constant():
    # second-order lag step response at t = mu is 1 - 2/e of the plateau
    p = AccumulatorParams(half_saturation_m_s2=0.5, time_constant_s=40.0)
    dt = 0.02
    n = int(12 * p.time_constant_s / dt) + 1
    trace = accumulate(_conflict(dt, np.full(n, 0.5)), p)
    msi = trace.channel("msi")
    k = int(round(p.time_constant_s / dt))
    ratio = msi[k] / (0.5 * p.ceiling_percent)
    assert ratio == pytest.approx(1.0 - 2.0 / np.e, rel=0.01)


def test_ceiling_saturates_large_conflict():
    p = AccumulatorParams(half_saturation_m_s2=0.5, time_constant_s=5.0,
                          ceiling_percent=85.0)
    trace = accumulate(_conflict(0.05, np.full(2000, 50.0)), p)
    msi = trace.channel("msi")
    assert msi[-1] == pytest.approx(85.0, rel=1e-3)
    assert np.max(msi) <= 85.0


def test_hill_exponent_sharpens_response():
    dt, n = 0.05, 4000
    weak = _conflict(dt, np.full(n, 0.25))  # half the saturation level
    soft = accumulate(weak, AccumulatorParams(hill_exponent=1.0,
                                              time_constant_s=20.0))
    sharp = accumulate(weak, AccumulatorParams(hill_exponent=4.0,
                                               time_constant_s=20.0))
    assert sharp.channel("msi")[-1] < soft.channel("msi")[-1]


def test_summarize_threshold_crossing():
    p = AccumulatorParams(half_saturation_m_s2=0.5, time_constant_s=30.0)
    dt = 0.05
    trace = accumulate(_conflict(dt, np.full(8000, 0.5)), p)
    msi = trace.channel("msi")
    summary = summarize(trace, threshold_percent=10.0)
    assert summary.final_percent == pytest.approx(msi[-1])
    assert summary.peak_percent == pytest.approx(msi.max())
    k = int(round(summary.time_to_threshold_s / dt))
    assert msi[k] >= 10.0
    assert msi[max(k - 1, 0)] <= 10.0 or k == 0


def test_summarize_threshold_never_reached():
    trace = accumulate(_conflict(0.1, np.zeros(100)))
    summary = summarize(trace, threshold_percent=5.0)
    assert summary.time_to_threshold_s is None


def test_summary_json_round_trip(tmp_path):
    trace = accumulate(_conflict(0.05, np.full(2000, 0.4)),
                       AccumulatorParams(time_constant_s=10.0))
    summary = summarize(trace, threshold_percent=1.0)
    path = tmp_path / "summary.json"
    save_json(asdict(summary), path)  # as the sickness stage writes it
    data = json.loads(path.read_text())
    assert data["final_percent"] == pytest.approx(summary.final_percent)
    assert data["threshold_percent"] == 1.0


_CHUNKS = (1, 7, 256, 4096)


def _rough_conflict(n, dt=0.001):
    rng = np.random.default_rng(11)
    return _conflict(dt, np.abs(rng.standard_normal(n)).cumsum() % 3.0)


@pytest.mark.parametrize("params", [
    AccumulatorParams(time_constant_s=2.0),
    AccumulatorParams(hill_exponent=2.7, half_saturation_m_s2=0.3, time_constant_s=0.5),
])
def test_accumulate_is_bit_identical_for_every_chunk_size(monkeypatch, params):
    conflict = _rough_conflict(5000)
    monkeypatch.setattr(sickness, "_CHUNK_ROWS", conflict.n_samples)
    ref = accumulate(conflict, params)
    for rows in _CHUNKS:
        monkeypatch.setattr(sickness, "_CHUNK_ROWS", rows)
        for n in sorted({1, max(rows - 1, 1), rows, rows + 1, conflict.n_samples}):
            part = _conflict(conflict.dt, conflict.samples[:n, 0])
            trace = accumulate(part, params)
            assert np.array_equal(trace.samples, ref.samples[:n]), (rows, n)
            assert trace.meta == ref.meta
