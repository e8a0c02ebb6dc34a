"""Synthetic seat acceleration records: noise and sweeps."""

import numpy as np
import pytest

from ridecomfort.errors import InvalidBand
from ridecomfort.excitation import SEAT_CHANNELS, ExcitationSpec, generate_excitation
from ridecomfort.spectral import WelchParams, welch_spectrum


def test_spec_validation():
    ExcitationSpec().validate()
    with pytest.raises(ValueError):
        ExcitationSpec(axis="w").validate()
    with pytest.raises(ValueError):
        ExcitationSpec(kind="chirpish").validate()
    with pytest.raises(InvalidBand):
        ExcitationSpec(band_hz=(5.0, 2.0)).validate()
    with pytest.raises(InvalidBand):
        ExcitationSpec(band_hz=(1.0, 600.0), dt_s=0.001).validate()  # Nyquist
    with pytest.raises(InvalidBand):
        ExcitationSpec(band_hz=(0.5, 12.0), duration_s=4.0).validate()  # cycles
    with pytest.raises(ValueError):
        ExcitationSpec(rms_m_s2=-1.0).validate()
    # checked before the Nyquist test divides by dt_s
    with pytest.raises(ValueError):
        ExcitationSpec(dt_s=0.0).validate()
    with pytest.raises(ValueError):
        ExcitationSpec(duration_s=float("nan")).validate()


def test_noise_rms_and_axis_routing():
    spec = ExcitationSpec(axis="y", kind="noise", band_hz=(1.0, 8.0),
                          rms_m_s2=0.7, duration_s=30.0, dt_s=0.002, seed=5)
    ts = generate_excitation(spec)
    assert ts.channel_names == tuple(n for n, _ in SEAT_CHANNELS)
    assert np.all(ts.channel("seat_acc_x") == 0.0)
    assert np.all(ts.channel("seat_acc_z") == 0.0)
    y = ts.channel("seat_acc_y")
    assert np.sqrt(np.mean(y ** 2)) == pytest.approx(0.7, rel=1e-9)
    assert ts.dt == 0.002
    assert ts.n_samples == 15001


def test_noise_stays_inside_band():
    spec = ExcitationSpec(axis="z", band_hz=(2.0, 6.0), rms_m_s2=1.0,
                          duration_s=60.0, dt_s=0.002, seed=9)
    z = generate_excitation(spec).channel("seat_acc_z")
    spec_est = welch_spectrum(z, z, 0.002, WelchParams(4096))
    vals = np.abs(spec_est.values)
    guard_out = (spec_est.freqs < 1.5) | (spec_est.freqs > 6.5)
    inside = (spec_est.freqs >= 2.0) & (spec_est.freqs <= 6.0)
    # leakage floor sits orders of magnitude below the band density
    assert vals[guard_out].max() < 0.01 * np.median(vals[inside])


def test_seed_reproducibility():
    spec = ExcitationSpec(seed=123, duration_s=20.0)
    a = generate_excitation(spec).channel("seat_acc_z")
    b = generate_excitation(spec).channel("seat_acc_z")
    c = generate_excitation(ExcitationSpec(seed=124, duration_s=20.0)).channel("seat_acc_z")
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sweep_has_requested_level_and_band():
    spec = ExcitationSpec(axis="x", kind="sweep", band_hz=(1.0, 10.0),
                          rms_m_s2=0.5, duration_s=40.0, dt_s=0.002, seed=0)
    ts = generate_excitation(spec)
    x = ts.channel("seat_acc_x")
    assert np.sqrt(np.mean(x ** 2)) == pytest.approx(0.5, rel=1e-9)
    spec_est = welch_spectrum(x, x, 0.002, WelchParams(4096))
    vals = np.abs(spec_est.values)
    guard_out = (spec_est.freqs < 0.6) | (spec_est.freqs > 11.0)
    inside = (spec_est.freqs >= 1.0) & (spec_est.freqs <= 10.0)
    assert vals[guard_out].max() < 0.05 * np.median(vals[inside])
