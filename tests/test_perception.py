"""Vestibular sensing, subjective vertical and conflict generation."""

import tracemalloc

import numpy as np
import pytest

from ridecomfort import perception
from ridecomfort.perception import (
    ACC_CHANNELS, ANGLE_CHANNELS, GRAVITY, ROTVEL_CHANNELS, VestibularParams,
    VisionParams, conflict, internal_expectation, otolith_response, perceive,
    scc_response, subjective_vertical)
from ridecomfort.errors import NonFiniteSample
from ridecomfort.timeseries import from_arrays


def _body_record(dt, n, acc=None, rotvel=None, angles=None):
    """Assemble a body-response record from per-block arrays (defaults 0)."""
    def block(arr, width):
        if arr is None:
            return np.zeros((n, width))
        arr = np.asarray(arr, dtype=float)
        return arr if arr.ndim == 2 else np.tile(arr, (n, 1))

    data = np.hstack([block(acc, 3), block(rotvel, 3), block(angles, 2)])
    channels = ([(c, "m/s^2") for c in ACC_CHANNELS]
                + [(c, "rad/s") for c in ROTVEL_CHANNELS]
                + [(c, "rad") for c in ANGLE_CHANNELS])
    return from_arrays(dt, data, channels)


def _rotvel_record(dt, roll):
    data = np.zeros((roll.size, 3))
    data[:, 0] = roll
    return from_arrays(dt, data, [(c, "rad/s") for c in ROTVEL_CHANNELS])


def test_params_validation():
    VestibularParams().validate()
    with pytest.raises(ValueError):
        VestibularParams(canal_tau_short_s=10.0).validate()
    with pytest.raises(ValueError):
        VestibularParams(sv_time_constant_s=0.0).validate()
    with pytest.raises(ValueError):
        VisionParams(rotation_gain=1.5).validate()
    with pytest.raises(ValueError):
        VisionParams(delay_s=-0.1).validate()


def test_canal_washes_out_sustained_rotation():
    dt = 0.001
    n = 40_000
    sensed = scc_response(_rotvel_record(dt, np.ones(n)), VestibularParams())
    out = sensed.channel("sensed_rotvel_roll")
    assert out[200] > 0.9          # brief rotation passes through
    assert abs(out[-1]) < 0.01     # sustained rotation fades


def test_canal_tracks_band_center_rotation():
    # mid-band oscillation transmits with near-unit gain
    dt = 0.001
    t = np.arange(20_000) * dt
    w = 2 * np.pi * 1.0
    sensed = scc_response(_rotvel_record(dt, np.sin(w * t)), VestibularParams())
    out = sensed.channel("sensed_rotvel_roll")[10_000:]
    assert np.max(np.abs(out)) == pytest.approx(1.0, abs=0.05)


def test_otolith_stationary_reports_gravity():
    ts = _body_record(0.01, 100)
    sensed = otolith_response(ts.select(ACC_CHANNELS), ts.select(ANGLE_CHANNELS),
                              VestibularParams())
    assert sensed.channel("sensed_sf_x")[0] == pytest.approx(0.0)
    assert sensed.channel("sensed_sf_z")[0] == pytest.approx(-GRAVITY)


def test_otolith_tilt_rotates_gravity_into_head_frame():
    beta = 0.05
    ts = _body_record(0.01, 100, angles=np.array([0.0, beta]))
    sensed = otolith_response(ts.select(ACC_CHANNELS), ts.select(ANGLE_CHANNELS),
                              VestibularParams())
    # pitched head sees a fore-aft gravity component ~ g*beta
    assert abs(abs(sensed.channel("sensed_sf_x")[0]) - GRAVITY * beta) < 1e-6


def test_subjective_vertical_converges_to_tilt():
    dt = 0.002
    n = 30_000
    params = VestibularParams(sv_time_constant_s=5.0)
    ts = _body_record(dt, n, acc=np.array([0.0, 2.0, 0.0]))
    sf = otolith_response(ts.select(ACC_CHANNELS), ts.select(ANGLE_CHANNELS), params)
    rv = scc_response(ts.select(ROTVEL_CHANNELS), params)
    v = subjective_vertical(sf, rv, params)
    vy = v.channel("sensed_vert_y")[-1]
    vz = v.channel("sensed_vert_z")[-1]
    tilt = np.degrees(np.arctan2(abs(vy), vz))
    assert tilt == pytest.approx(np.degrees(np.arctan(2.0 / GRAVITY)), abs=0.1)


def test_subjective_vertical_freefall_is_degenerate():
    dt = 0.002
    n = 2500
    params = VestibularParams()
    ts = _body_record(dt, n, acc=np.array([0.0, 0.0, GRAVITY]))
    sf = otolith_response(ts.select(ACC_CHANNELS), ts.select(ANGLE_CHANNELS), params)
    rv = scc_response(ts.select(ROTVEL_CHANNELS), params)
    v = subjective_vertical(sf, rv, params)
    assert v.meta["degenerate_samples"] == n
    assert np.all(v.channel("sensed_vert_z") == 1.0)


def test_subjective_vertical_zero_norm_is_a_non_finite_sample():
    # an upward specific force points the pull at (0, 0, -1); dt / tau = 0.5
    # averages that with the upright start, so the estimate is zero at row 0
    sf = from_arrays(0.001, np.tile([0.0, 0.0, 5.0], (10, 1)),
                     [(f"sensed_sf_{ax}", "m/s^2") for ax in "xyz"])
    rv = from_arrays(0.001, np.zeros((10, 3)),
                     [(f"sensed_rotvel_{ax}", "rad/s") for ax in "xyz"])
    with pytest.raises(NonFiniteSample, match="'sensed_vert_x' at row 0"):
        subjective_vertical(sf, rv, VestibularParams(sv_time_constant_s=0.002))


def test_expectation_without_vision_is_upright_prior():
    ts = _body_record(0.01, 200, angles=np.array([0.1, 0.0]))
    exp = internal_expectation(ts.select(ANGLE_CHANNELS), VestibularParams())
    assert np.all(exp.channel("expected_vert_x") == 0.0)
    assert np.all(exp.channel("expected_vert_z") == 1.0)


def test_expectation_with_vision_tracks_true_vertical():
    params = VestibularParams(
        vision=VisionParams(enabled=True, rotation_gain=1.0, delay_s=0.0))
    rho = 0.1
    ts = _body_record(0.01, 2000, angles=np.array([rho, 0.0]))
    exp = internal_expectation(ts.select(ANGLE_CHANNELS), params)
    # rolled head sees the true vertical displaced laterally by ~rho
    assert abs(abs(exp.channel("expected_vert_y")[-1]) - rho) < 0.005


def test_conflict_zero_for_matching_verticals():
    dt = 0.01
    up = np.tile([0.0, 0.0, 1.0], (100, 1))
    vs = from_arrays(dt, up, [(f"sensed_vert_{a}", "1") for a in "xyz"])
    ve = from_arrays(dt, up, [(f"expected_vert_{a}", "1") for a in "xyz"])
    c = conflict(vs, ve)
    assert np.all(c.channel("conflict") == 0.0)
    assert c.unit("conflict") == "m/s^2"


def test_vision_attenuates_conflict_under_head_roll():
    # oscillatory roll near the body resonance: an accurate, slightly
    # delayed visual vertical tracks the motion and shrinks the conflict
    dt = 0.001
    f = 1.9
    t = np.arange(40_000) * dt
    rho = 0.06 * np.sin(2 * np.pi * f * t)
    rotvel = np.zeros((t.size, 3))
    rotvel[:, 0] = np.gradient(rho, dt)
    angles = np.column_stack([rho, np.zeros_like(rho)])
    ts = _body_record(dt, t.size, rotvel=rotvel, angles=angles)

    base = VestibularParams()
    vis = VestibularParams(vision=VisionParams(enabled=True, rotation_gain=1.0,
                                               delay_s=0.05))
    _, c_off = perceive(ts, base)
    _, c_on = perceive(ts, vis)
    rms_off = np.sqrt(np.mean(c_off.channel("conflict")[10_000:] ** 2))
    rms_on = np.sqrt(np.mean(c_on.channel("conflict")[10_000:] ** 2))
    assert rms_on < rms_off


def test_perceive_bundles_channels():
    ts = _body_record(0.002, 1500, acc=np.array([0.5, 0.0, 0.0]))
    perceived, c = perceive(ts, VestibularParams())
    for name in ("sensed_rotvel_roll", "sensed_sf_z",
                 "sensed_vert_z", "expected_vert_z"):
        assert name in perceived.channel_names
    assert c.channel_names == ("conflict",)
    assert np.all(c.channel("conflict") >= 0.0)


# -- chunked perceive --------------------------------------------------------

_N = 5000
_DT = 0.001
_CHUNKS = (1, 7, 256, 4096)
# free-fall rows on both sides of chunk boundaries (7, 256 and 4096 among them)
_FREE_FALL = [(0, 3), (250, 262), (1021, 1030), (4090, 4101)]


def _moving_body():
    """Body record with rotation, acceleration and tilt on every axis."""
    t = np.arange(_N) * _DT
    rng = np.random.default_rng(7)

    def waves(width, amp):
        f = rng.uniform(0.3, 8.0, (3, width))
        phase = rng.uniform(0.0, 2 * np.pi, (3, width))
        return amp * np.sin(2 * np.pi * f[:, None, :] * t[None, :, None]
                            + phase[:, None, :]).sum(axis=0)

    acc = waves(3, 0.8)
    for r0, r1 in _FREE_FALL:
        acc[r0:r1] = (0.0, 0.0, GRAVITY)  # zero specific force
    return _body_record(_DT, _N, acc=acc, rotvel=waves(3, 0.2), angles=waves(2, 0.03))


def _rows(ts, start, stop=None):
    """Rows start:stop of a record, on its grid."""
    return from_arrays(ts.dt, ts.samples[start:stop], ts.channels)


def _set_chunk(monkeypatch, rows):
    monkeypatch.setattr(perception, "_CHUNK_ROWS", rows)
    monkeypatch.setattr(perception, "_SV_CHUNK", rows)


_VISION = {
    "off": VestibularParams(),
    # 300 rows of delay: longer than every chunk but the largest
    "short_delay": VestibularParams(vision=VisionParams(enabled=True, delay_s=0.3)),
    # 4500 rows: longer than a 4096-row chunk
    "long_delay": VestibularParams(vision=VisionParams(enabled=True, rotation_gain=0.7,
                                                       delay_s=4.5)),
    # longer than the record: every row sees the first row's vertical
    "past_the_end": VestibularParams(vision=VisionParams(enabled=True, delay_s=6.0)),
}


@pytest.mark.parametrize("vision", sorted(_VISION))
def test_perceive_is_bit_identical_for_every_chunk_size(monkeypatch, vision):
    params = _VISION[vision]
    body = _moving_body()
    _set_chunk(monkeypatch, _N)
    ref_perceived, ref_conflict = perceive(body, params)
    assert ref_perceived.meta["degenerate_samples"] == sum(b - a for a, b in _FREE_FALL)
    for rows in _CHUNKS:
        _set_chunk(monkeypatch, rows)
        perceived, c = perceive(body, params)
        assert np.array_equal(perceived.samples, ref_perceived.samples), rows
        assert np.array_equal(c.samples, ref_conflict.samples), rows
        assert perceived.meta == ref_perceived.meta, rows
        assert c.meta == ref_conflict.meta, rows


@pytest.mark.parametrize("rows", _CHUNKS)
def test_perceive_records_around_one_chunk_long(monkeypatch, rows):
    params = _VISION["short_delay"]
    body = _moving_body()
    for n in sorted({1, max(rows - 1, 1), rows, rows + 1}):
        part = _rows(body, 0, n)
        _set_chunk(monkeypatch, n)
        ref_perceived, ref_conflict = perceive(part, params)
        _set_chunk(monkeypatch, rows)
        perceived, c = perceive(part, params)
        assert np.array_equal(perceived.samples, ref_perceived.samples), n
        assert np.array_equal(c.samples, ref_conflict.samples), n
        assert perceived.meta == ref_perceived.meta, n


def test_perceive_columns_equal_the_component_functions():
    params = _VISION["short_delay"]
    body = _moving_body()
    perceived, c = perceive(body, params)
    rv = scc_response(body.select(ROTVEL_CHANNELS), params)
    sf = otolith_response(body.select(ACC_CHANNELS), body.select(ANGLE_CHANNELS), params)
    v = subjective_vertical(sf, rv, params)
    expected = internal_expectation(body.select(ANGLE_CHANNELS), params)
    whole = conflict(v, expected)
    parts = np.hstack([rv.samples, sf.samples, v.samples, expected.samples])
    assert perceived.channels == rv.channels + sf.channels + v.channels + expected.channels
    assert np.array_equal(perceived.samples, parts)
    assert np.array_equal(c.samples, whole.samples)
    assert c.meta == whole.meta == {"degenerate_samples": v.meta["degenerate_samples"]}


def test_subjective_vertical_continues_from_a_given_vertical():
    params = VestibularParams()
    body = _moving_body()
    rv = scc_response(body.select(ROTVEL_CHANNELS), params)
    sf = otolith_response(body.select(ACC_CHANNELS), body.select(ANGLE_CHANNELS), params)
    whole = subjective_vertical(sf, rv, params)
    cut = 1000
    head = subjective_vertical(_rows(sf, 0, cut), _rows(rv, 0, cut), params)
    tail = subjective_vertical(_rows(sf, cut), _rows(rv, cut), params,
                               vertical=tuple(head.samples[-1].tolist()))
    assert np.array_equal(np.vstack([head.samples, tail.samples]), whole.samples)
    assert (head.meta["degenerate_samples"] + tail.meta["degenerate_samples"]
            == whole.meta["degenerate_samples"])


@pytest.mark.parametrize("rows", _CHUNKS)
def test_zero_norm_vertical_past_the_first_chunk_names_its_row(monkeypatch, rows):
    # upright until row 300, then an upward specific force with dt / tau = 0.5
    # takes the estimate to zero there, as in the test above
    n, row = 600, 300
    acc = np.zeros((n, 3))
    acc[row:, 2] = GRAVITY + 5.0
    body = _body_record(_DT, n, acc=acc)
    params = VestibularParams(sv_time_constant_s=2 * _DT)
    _set_chunk(monkeypatch, rows)
    with pytest.raises(NonFiniteSample, match=f"'sensed_vert_x' at row {row}$"):
        perceive(body, params)


def test_perceive_peak_memory_stays_near_its_outputs():
    # beyond its two output records, perceive holds one chunk's work, then the
    # perceived record's finiteness check (12 B per sample): about 1.12x their
    # bytes on this 200 s, 1 kHz record, against 2.66x when every component
    # held a whole record.  Tracing slows the subjective-vertical loop ~40x.
    n = 200_001
    rng = np.random.default_rng(5)
    body = _body_record(0.001, n, acc=rng.normal(0.0, 0.5, (n, 3)),
                        rotvel=rng.normal(0.0, 0.1, (n, 3)),
                        angles=rng.normal(0.0, 0.02, (n, 2)))
    tracemalloc.start()
    try:
        perceived, c = perceive(body, _VISION["short_delay"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = perceived.samples.nbytes + c.samples.nbytes
    assert peak <= 1.25 * outputs, (peak, outputs)
