"""Welch spectra, transfer estimates and peak detection."""

import numpy as np
import pytest
import scipy.signal as sps

from ridecomfort.errors import SegmentTooLong, TooFewSegments
from ridecomfort.spectral import (
    ZERO_POWER_REL, FrequencyResponseFunction, Spectrum, WelchParams,
    detect_peaks, estimate_frf, resonance_scan, welch_spectrum)


def test_welch_params_validation():
    with pytest.raises(ValueError):
        WelchParams(0)
    with pytest.raises(ValueError):
        WelchParams(256, overlap=1.0)
    assert WelchParams(256, overlap=0.5).n_segments(1024) == 7
    # longer than the record, at any length (no float overflow)
    assert WelchParams(1025).n_segments(1024) == 0
    assert WelchParams(10 ** 400).n_segments(3001) == 0


def test_welch_power_matches_variance():
    rng = np.random.default_rng(3)
    dt = 0.01
    x = rng.standard_normal(200_000)
    spec = welch_spectrum(x, x, dt, WelchParams(4096))
    # integral of the one-sided density recovers the variance
    assert spec.power() == pytest.approx(np.var(x), rel=0.03)


def test_estimate_frf_recovers_known_filter():
    rng = np.random.default_rng(11)
    dt = 0.005
    x = rng.standard_normal(400_000)
    sos = sps.butter(2, 8.0, fs=1 / dt, output="sos")
    y = sps.sosfilt(sos, x)
    frf = estimate_frf(x, y, dt, WelchParams(8192),
                       input_channel="in", output_channel="out")
    w, h = sps.sosfreqz(sos, worN=frf.freqs, fs=1 / dt)
    sel = (frf.freqs > 0.5) & (frf.freqs < 30.0) & frf.valid
    rel = np.abs(frf.gain[sel] - np.abs(h[sel])) / np.abs(h[sel])
    assert np.max(rel) < 0.05
    assert np.all(frf.coherence[sel] > 0.99)
    assert frf.input_channel == "in"


def test_estimate_frf_needs_enough_segments():
    with pytest.raises(TooFewSegments):
        estimate_frf(np.zeros(80), np.zeros(80), 0.01, WelchParams(64))
    with pytest.raises(SegmentTooLong):
        estimate_frf(np.zeros(50), np.zeros(50), 0.01, WelchParams(64))


# -- oracles: the scipy welch/csd code the one-transform core replaced -------

def _scipy_kw(dt, params):
    return dict(fs=1.0 / dt, window=params.window, nperseg=params.segment_length,
                noverlap=int(round(params.overlap * params.segment_length)),
                detrend="constant", scaling="density")


def _oracle_welch_spectrum(x, y, dt, params):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    freqs, pxy = sps.csd(x, y, **_scipy_kw(dt, params))
    auto = x is y or np.array_equal(x, y)
    if auto:
        pxy = pxy.real.astype(complex)
    return Spectrum(freqs, pxy, "auto" if auto else "cross", float(freqs[1] - freqs[0]))


def _oracle_estimate_frf(x, y, dt, params):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    kw = _scipy_kw(dt, params)
    freqs, sxx = sps.welch(x, **kw)
    _, syy = sps.welch(y, **kw)
    _, sxy = sps.csd(x, y, **kw)

    valid = sxx > ZERO_POWER_REL * max(float(sxx.max()), 1e-300)
    response = np.zeros_like(sxy)
    response[valid] = sxy[valid] / sxx[valid]

    denom = sxx * syy
    ok = valid & (denom > 0)
    coherence = np.zeros_like(sxx)
    coherence[ok] = np.abs(sxy[ok]) ** 2 / denom[ok]
    coherence = coherence.clip(0.0, 1.0)
    return FrequencyResponseFunction(freqs, response, coherence,
                                     "input", "output", valid)


def _assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()


def _assert_same_spectra(x, y, dt, params):
    frf, want = estimate_frf(x, y, dt, params), _oracle_estimate_frf(x, y, dt, params)
    for field in ("freqs", "response", "coherence", "valid"):
        _assert_same_bits(getattr(frf, field), getattr(want, field))
    spec, want = welch_spectrum(x, y, dt, params), _oracle_welch_spectrum(x, y, dt, params)
    _assert_same_bits(spec.freqs, want.freqs)
    _assert_same_bits(spec.values, want.values)
    assert (spec.kind, spec.resolution) == (want.kind, want.resolution)
    return frf


def _drive_and_response(n=3000, seed=5):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(n)) + 3.0   # a drift and an offset
    y = sps.lfilter([0.4, 0.3], [1.0, -0.5], x) + 0.1 * rng.standard_normal(n)
    return x, y


@pytest.mark.parametrize("window", ["hann", "hamming", "boxcar"])
@pytest.mark.parametrize("overlap", [0.0, 0.5, 0.95])
@pytest.mark.parametrize("segment_length", [256, 255])
def test_spectra_equal_scipy_welch_and_csd_bit_for_bit(segment_length, overlap,
                                                       window):
    params = WelchParams(segment_length, overlap, window)
    dt = 0.002
    x, y = _drive_and_response()
    zeros = np.zeros_like(x)
    _assert_same_spectra(x, y, dt, params)
    assert not _assert_same_spectra(x, zeros, dt, params).coherence.any()
    assert not _assert_same_spectra(zeros, y, dt, params).valid.any()
    auto = _assert_same_spectra(x, x, dt, params)       # x passed as y
    assert welch_spectrum(x, x, dt, params).kind == "auto"
    assert np.all(auto.response[auto.valid] == 1.0)
    _assert_same_spectra(x, x.copy(), dt, params)       # equal, not the same


def test_spectra_follow_dt_for_the_same_welch_params():
    # the transform plan is cached per (params, sample rate)
    params = WelchParams(200, 0.5, "hann")
    x, y = _drive_and_response(seed=8)
    first = _assert_same_spectra(x, y, 0.001, params)
    second = _assert_same_spectra(x, y, 0.01, params)
    assert second.freqs[-1] == pytest.approx(first.freqs[-1] / 10)


def _bump_frf(peak_hz=3.0, gain=2.0):
    freqs = np.linspace(0.1, 10.0, 250)
    mag = 1.0 + (gain - 1.0) * np.exp(-0.5 * ((freqs - peak_hz) / 0.3) ** 2)
    return FrequencyResponseFunction(
        freqs=freqs, response=mag.astype(complex),
        coherence=np.ones_like(freqs), input_channel="u", output_channel="y")


def test_detect_peaks_finds_and_refines():
    frf = _bump_frf(peak_hz=3.0, gain=2.0)
    peaks = detect_peaks(frf, (0.5, 9.0), min_prominence=0.2)
    assert len(peaks) == 1
    f, g = peaks[0]
    assert f == pytest.approx(3.0, abs=0.05)
    assert g == pytest.approx(2.0, rel=0.01)


def test_detect_peaks_prominence_threshold():
    frf = _bump_frf(gain=1.05)
    assert detect_peaks(frf, (0.5, 9.0), min_prominence=0.2) == []


def test_detect_peaks_band_outside_grid():
    frf = _bump_frf()
    with pytest.raises(ValueError):
        detect_peaks(frf, (50.0, 80.0), min_prominence=0.1)


# -- resonance_scan: the one FRF-and-peaks rule ------------------------------

def _resonator(x, dt, f_n=3.0, zeta=0.1):
    """x through a second-order resonance at f_n (peak gain about 5)."""
    w = 2 * np.pi * f_n
    b, a = sps.bilinear([w * w], [1.0, 2 * zeta * w, w * w], fs=1 / dt)
    return sps.lfilter(b, a, x)


def test_resonance_scan_is_estimate_frf_plus_detect_peaks():
    dt, params = 0.01, WelchParams(1024)
    x = np.random.default_rng(5).standard_normal(20_000)
    responses = [("a", _resonator(x, dt)), ("b", _resonator(x, dt, f_n=6.0))]
    scan = resonance_scan(x, responses, dt, params, (0.5, 10.0), 0.1, "drive")
    assert list(scan) == ["a", "b"]
    for name, y in responses:
        frf, peaks = scan[name]
        ref = estimate_frf(x, y, dt, params, input_channel="drive", output_channel=name)
        for field in ("freqs", "response", "coherence", "valid"):
            assert np.array_equal(getattr(frf, field), getattr(ref, field))
        assert (frf.input_channel, frf.output_channel) == ("drive", name)
        assert peaks == detect_peaks(ref, (0.5, 10.0), 0.1)
        assert peaks
    assert scan["a"][1][0][0] == pytest.approx(3.0, abs=0.1)


def test_resonance_scan_clamps_a_band_past_nyquist():
    dt, params = 0.01, WelchParams(1024)
    x = np.random.default_rng(6).standard_normal(20_000)
    y = _resonator(x, dt)
    frf = estimate_frf(x, y, dt, params)
    with pytest.raises(ValueError, match="outside FRF grid"):
        detect_peaks(frf, (0.5, 80.0), 0.1)  # Nyquist is 50 Hz
    peaks = resonance_scan(x, [("y", y)], dt, params, (0.5, 80.0), 0.1)["y"][1]
    assert peaks == detect_peaks(frf, (0.5, float(frf.freqs[-1])), 0.1)
    assert peaks[0][0] == pytest.approx(3.0, abs=0.1)
    # wholly past Nyquist, the clamped band is empty
    assert resonance_scan(x, [("y", y)], dt, params, (60.0, 80.0), 0.1)["y"][1] == []


def test_resonance_scan_skips_an_under_excited_band():
    # sines on whole bins 2..20 of a 256-sample segment: every Hann-windowed
    # segment holds them exactly, so input power vanishes above bin 21
    dt, params = 0.01, WelchParams(256)
    n = np.arange(25_600)
    x = sum(np.sin(2 * np.pi * k * n / 256 + k) for k in range(2, 21))
    y = _resonator(x, dt)
    frf = estimate_frf(x, y, dt, params)
    band = (0.5, 25.0)
    in_band = frf.band(*band)
    assert 0 < np.count_nonzero(frf.valid & in_band) < 0.5 * np.count_nonzero(in_band)
    assert detect_peaks(frf, band, 0.1)  # the valid bins alone show the peak
    assert resonance_scan(x, [("y", y)], dt, params, band, 0.1)["y"][1] == []
    # the excited bins alone are a usable band
    assert resonance_scan(x, [("y", y)], dt, params, (0.5, 7.0), 0.1)["y"][1] == \
        detect_peaks(frf, (0.5, 7.0), 0.1)
