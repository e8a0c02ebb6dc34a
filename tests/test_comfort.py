"""Frequency weightings, weighted RMS and dose metrics."""

import csv
import json

import numpy as np
import pytest

from ridecomfort.comfort import (
    AXIS_WEIGHTINGS, analog_magnitude, comfort_report, design_weighting,
    motion_sickness_dose, save_comfort_report, save_magnitude_csv,
    weighted_rms, weighting_names)
from ridecomfort.errors import (
    GridMismatch, RateMismatch, UnitMismatch, UnsupportedRate)
from ridecomfort.timeseries import from_arrays


def test_weighting_names_and_axis_map():
    names = weighting_names()
    assert set(names) >= {"Wk", "Wd", "Wf"}
    assert AXIS_WEIGHTINGS["z"] == "Wk"
    assert AXIS_WEIGHTINGS["x"] == "Wd"


def test_analog_anchor_values():
    # spot anchors from the published one-third-octave tables
    assert analog_magnitude("Wk", [4.0])[0] == pytest.approx(0.967, abs=0.002)
    assert analog_magnitude("Wk", [8.0])[0] == pytest.approx(1.036, abs=0.002)
    assert analog_magnitude("Wd", [1.0])[0] == pytest.approx(1.011, abs=0.002)
    assert analog_magnitude("Wd", [2.0])[0] == pytest.approx(0.890, abs=0.002)


def test_digital_matches_analog_at_high_rate():
    for name, band in (("Wk", (0.4, 10.0)), ("Wd", (0.4, 10.0)),
                       ("Wf", (0.05, 0.5))):
        rate = 1000.0 if name != "Wf" else 50.0
        dw = design_weighting(name, rate)
        freqs = np.geomspace(band[0], band[1], 120)
        rel = np.abs(dw.magnitude(freqs) - analog_magnitude(name, freqs))
        rel /= analog_magnitude(name, freqs)
        assert np.max(rel) < 0.01, name


def test_design_is_stable_with_zero_dc_gain():
    for name in weighting_names():
        dw = design_weighting(name, 200.0)
        assert np.all(dw.pole_radii() < 1.0)
        assert abs(dw.dc_gain) < 1e-9
        assert dw.rate_hz == 200.0


def test_unsupported_rate_raises():
    with pytest.raises(UnsupportedRate):
        design_weighting("Wk", 49.0)
    with pytest.raises(UnsupportedRate):
        design_weighting("Wf", 9.0)
    with pytest.raises(KeyError):
        design_weighting("Wq", 100.0)


def test_weighted_sine_rms_oracle():
    # steady sine: weighted rms = |W(f)| * A / sqrt(2)
    dt = 0.001
    f, amp = 4.0, 1.2
    t = np.arange(int(60.0 / dt)) * dt
    x = amp * np.sin(2 * np.pi * f * t)
    dw = design_weighting("Wk", 1.0 / dt)
    expect = dw.magnitude(np.array([f]))[0] * amp / np.sqrt(2.0)
    got = weighted_rms(x, dt, "Wk", settle_s=5.0)
    assert got == pytest.approx(expect, rel=0.005)


def test_weighted_rms_accepts_prebuilt_filter():
    dt = 0.002
    rng = np.random.default_rng(8)
    x = rng.standard_normal(20_000)
    dw = design_weighting("Wd", 1.0 / dt)
    assert weighted_rms(x, dt, dw) == pytest.approx(weighted_rms(x, dt, "Wd"))
    with pytest.raises(RateMismatch):
        weighted_rms(x, 0.004, dw)
    with pytest.raises(ValueError):
        weighted_rms(x, dt, "Wd", settle_s=100.0)


def test_dose_square_root_time_law():
    # steady sine past the filter transient: doubling the exposure
    # multiplies the dose by sqrt(2)
    dt = 0.05
    f = 0.17

    def dose(duration):
        n = int((duration + 120.0) / dt)
        t = np.arange(n) * dt
        x = np.sin(2 * np.pi * f * t)
        msdv, _ = motion_sickness_dose(x, dt, settle_s=120.0)
        return msdv

    assert dose(600.0) / dose(300.0) == pytest.approx(np.sqrt(2.0), rel=0.02)


def test_dose_to_illness_rating_mapping():
    dt = 0.05
    t = np.arange(int(600.0 / dt)) * dt
    x = np.sin(2 * np.pi * 0.17 * t)
    msdv, msi = motion_sickness_dose(x, dt)
    assert msi == pytest.approx(msdv / 3.0)
    _, msi_custom = motion_sickness_dose(x, dt, percent_per_dose=0.5)
    assert msi_custom == pytest.approx(msdv * 0.5)


def test_dose_linearity_in_amplitude():
    dt = 0.05
    rng = np.random.default_rng(12)
    x = rng.standard_normal(20_000)
    m1, _ = motion_sickness_dose(x, dt)
    m3, _ = motion_sickness_dose(3.0 * x, dt)
    assert m3 == pytest.approx(3.0 * m1, rel=1e-9)


def test_save_magnitude_csv(tmp_path):
    path = tmp_path / "wk.csv"
    freqs = np.geomspace(0.5, 10.0, 20)
    save_magnitude_csv("Wk", freqs, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["freq_hz", "magnitude"]
    assert len(rows) == 21
    mags = np.array([float(r[1]) for r in rows[1:]])
    assert np.all(mags > 0)


def _motion(dt, n, prefix, amp, seed):
    rng = np.random.default_rng(seed)
    data = amp * rng.standard_normal((n, 3))
    names = [f"{prefix}_{ax}" for ax in "xyz"]
    return from_arrays(dt, data, [(nm, "m/s^2") for nm in names])


def test_comfort_report_structure():
    dt = 0.005
    seat = _motion(dt, 40_000, "seat_acc", 0.4, 1)
    head = _motion(dt, 40_000, "head_acc", 0.6, 2)
    report = comfort_report(seat_motion=seat, body_response=head, settle_s=2.0)
    d = report.as_dict()
    assert set(d["weighted_rms_m_s2"]) == {
        f"{p}_{ax}" for p in ("seat_acc", "head_acc") for ax in "xyz"}
    assert d["weightings_used"]["seat_acc_z"] == "Wk"
    assert d["weightings_used"]["seat_acc_x"] == "Wd"
    assert d["msdv_m_s15"] > 0
    assert d["iso_msi_percent"] == pytest.approx(d["msdv_m_s15"] / 3.0)
    assert d["duration_s"] == pytest.approx((40_000 - 1) * dt)


def test_comfort_report_validation():
    dt = 0.005
    seat = _motion(dt, 10_000, "seat_acc", 0.4, 3)
    with pytest.raises(ValueError):
        comfort_report()
    head_bad_rate = _motion(0.01, 10_000, "head_acc", 0.4, 4)
    with pytest.raises(RateMismatch):
        comfort_report(seat_motion=seat, body_response=head_bad_rate)
    head_short = _motion(dt, 2, "head_acc", 0.4, 4)
    with pytest.raises(GridMismatch, match="must share one grid: 10000 "
                       "samples from t = 0 s against 2 from t = 0 s"):
        comfort_report(seat_motion=seat, body_response=head_short)
    head = _motion(dt, 10_000, "head_acc", 0.4, 4)
    head_late = from_arrays(dt, head.samples, head.channels, start_time=0.5)
    with pytest.raises(GridMismatch, match="against 10000 from t = 0.5 s"):
        comfort_report(seat_motion=seat, body_response=head_late)
    bad_unit = from_arrays(dt, np.zeros((10_000, 3)),
                           [(f"seat_acc_{ax}", "g") for ax in "xyz"])
    with pytest.raises(UnitMismatch):
        comfort_report(seat_motion=bad_unit)


def test_comfort_report_zero_motion_is_zero(tmp_path):
    dt = 0.005
    seat = from_arrays(dt, np.zeros((20_000, 3)),
                       [(f"seat_acc_{ax}", "m/s^2") for ax in "xyz"])
    report = comfort_report(seat_motion=seat)
    assert all(v == 0.0 for v in report.weighted_rms_m_s2.values())
    assert report.msdv_m_s15 == 0.0
    assert report.iso_msi_percent == 0.0

    path = tmp_path / "comfort.json"
    save_comfort_report(report, path)
    assert json.loads(path.read_text())["msdv_m_s15"] == 0.0
