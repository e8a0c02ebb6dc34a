"""Spectral estimation: Welch auto/cross spectra, H1 frequency response
functions with coherence, and resonance peak picking.

Conventions: Hann taper and 50% overlap by default; one-sided density
scaling so that sum(auto) * df recovers the signal variance; cross-spectrum
is conj(X) * Y, which makes the H1 phase positive when the output leads the
input. Frequency bins whose input power vanishes are carried with a cleared
`valid` flag instead of becoming Inf, so grids stay aligned across channels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import signal as sps

from .errors import SegmentTooLong, TooFewSegments

DEFAULT_WINDOW = "hann"
DEFAULT_OVERLAP = 0.5
# input power below this fraction of the peak bin counts as "no excitation"
ZERO_POWER_REL = 1e-12


@dataclass(frozen=True)
class WelchParams:
    segment_length: int
    overlap: float = DEFAULT_OVERLAP
    window: str = DEFAULT_WINDOW

    def __post_init__(self):
        if not 0.0 <= self.overlap <= 0.95:
            raise ValueError(f"overlap must be in [0, 0.95], got {self.overlap}")
        if self.segment_length < 8:
            raise ValueError("segment_length must be at least 8 samples")
        try:  # a short probe: the name, not the length, is in question here
            sps.get_window(self.window, 8)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"window {self.window!r} is not usable: {exc}") from None

    def n_segments(self, n_samples: int) -> int:
        """Welch segments in ``n_samples`` samples; 0 when one segment is
        longer than the record (whatever its length: no float is formed)."""
        if self.segment_length > n_samples:
            return 0
        step = self.segment_length - int(round(self.overlap * self.segment_length))
        if step <= 0:
            return 0
        return 1 + (n_samples - self.segment_length) // step


@dataclass(frozen=True)
class Spectrum:
    freqs: np.ndarray
    values: np.ndarray          # complex; zero imaginary part for kind="auto"
    kind: str                   # "auto" | "cross"
    resolution: float           # Hz between bins

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if freqs[0] < 0 or np.any(np.diff(freqs) <= 0):
            raise ValueError("frequency grid must be non-negative and strictly increasing")
        if self.kind == "auto":
            if np.max(np.abs(values.imag)) > 1e-12 * max(np.max(np.abs(values.real)), 1e-300):
                raise ValueError("auto-spectrum must be real")
            if np.any(values.real < -1e-15 * np.max(np.abs(values.real) + 1e-300)):
                raise ValueError("auto-spectrum must be non-negative")
            values = values.real.clip(min=0.0).astype(complex)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "values", values)
        freqs.setflags(write=False)
        values.setflags(write=False)

    def power(self) -> float:
        """Integral of the (auto-)spectrum over frequency."""
        return float(np.sum(self.values.real) * self.resolution)


@dataclass(frozen=True)
class FrequencyResponseFunction:
    freqs: np.ndarray
    response: np.ndarray        # complex H per bin
    coherence: np.ndarray       # in [0, 1]
    input_channel: str
    output_channel: str
    valid: np.ndarray = None    # False where input power vanished

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        response = np.asarray(self.response, dtype=complex)
        coherence = np.asarray(self.coherence, dtype=float)
        valid = self.valid
        valid = np.ones(freqs.shape, dtype=bool) if valid is None else np.asarray(valid, dtype=bool)
        if np.any(coherence < -1e-12) or np.any(coherence > 1 + 1e-12):
            raise ValueError("coherence must lie in [0, 1]")
        coherence = coherence.clip(0.0, 1.0)
        for arr in (freqs, response, coherence, valid):
            arr.setflags(write=False)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "response", response)
        object.__setattr__(self, "coherence", coherence)
        object.__setattr__(self, "valid", valid)

    @property
    def gain(self) -> np.ndarray:
        return np.abs(self.response)

    @property
    def phase_deg(self) -> np.ndarray:
        """Unwrapped phase in degrees; positive = output leads input."""
        return np.degrees(np.unwrap(np.angle(self.response)))

    def band(self, f_lo: float, f_hi: float) -> np.ndarray:
        return (self.freqs >= f_lo) & (self.freqs <= f_hi)


def _welch_input(x, y, params: WelchParams):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if params.segment_length > x.size:
        raise SegmentTooLong(
            f"segment_length {params.segment_length} exceeds signal length {x.size}"
        )
    n_seg = params.n_segments(x.size)
    if n_seg < 2:
        raise TooFewSegments(
            f"only {n_seg} Welch segment(s); need at least 2 averages"
        )
    return x, y


@functools.lru_cache(maxsize=16)
def _stft_plan(params: WelchParams, fs: float):
    """The psd-scaled one-sided ShortTimeFFT and the overlap in samples that
    ``scipy.signal.csd`` builds for these settings, built once per key."""
    nperseg = params.segment_length
    noverlap = int(round(params.overlap * nperseg))
    sft = sps.ShortTimeFFT(sps.get_window(params.window, nperseg),
                           nperseg - noverlap, fs, fft_mode="onesided",
                           mfft=nperseg, scale_to="psd", phase_shift=None)
    return sft, noverlap


def _transform(x, dt: float, params: WelchParams):
    """(freqs, transforms of the detrended, windowed segments of x), laid
    out bins x segments as ``scipy.signal.csd`` lays them out."""
    sft, noverlap = _stft_plan(params, 1.0 / dt)
    segments = sft.stft_detrend(x, "constant", 0, (x.size - noverlap) // sft.hop,
                                k_offset=params.segment_length // 2)
    return sft.f.copy(), segments


def _density(a, b, params: WelchParams):
    """Segment mean of the one-sided density conj(a) * b, in
    ``scipy.signal.csd``'s order of operations; real when b is a."""
    s = a.real**2 + a.imag**2 if b is a else b * a.conj()
    # fold in the negative frequencies; an even FFT's Nyquist bin has no twin
    s[1:-1 if params.segment_length % 2 == 0 else None] *= 2
    return s.mean(axis=-1)


def welch_spectrum(x, y, dt: float, params: WelchParams) -> Spectrum:
    """Averaged one-sided (cross-)spectral density of two channels.

    With x is y this is the auto-spectrum and sum(values)*df approximates
    the signal variance (Parseval, window loss corrected by scipy's
    density normalisation).
    """
    x, y = _welch_input(x, y, params)
    freqs, X = _transform(x, dt, params)
    Y = X if y is x else _transform(y, dt, params)[1]
    pxy = _density(X, Y, params)
    auto = y is x or np.array_equal(x, y)
    if auto:
        pxy = pxy.real.astype(complex)
    return Spectrum(freqs, pxy, "auto" if auto else "cross", float(freqs[1] - freqs[0]))


def estimate_frf(x, y, dt: float, params: WelchParams,
                 input_channel: str = "input",
                 output_channel: str = "output") -> FrequencyResponseFunction:
    """H1 frequency response estimate Sxy/Sxx with magnitude-squared coherence.

    Each record is transformed once; the spectra equal scipy's ``welch``
    and ``csd`` bit for bit.  Bins with vanishing input power are flagged
    invalid (response 0, coherence 0) so the grid stays aligned with other
    channels.
    """
    x, y = _welch_input(x, y, params)
    freqs, X = _transform(x, dt, params)
    Y = X if y is x else _transform(y, dt, params)[1]
    sxx, syy, sxy = (_density(a, b, params) for a, b in ((X, X), (Y, Y), (X, Y)))

    valid = sxx > ZERO_POWER_REL * max(float(sxx.max()), 1e-300)
    response = np.zeros_like(sxy)
    response[valid] = sxy[valid] / sxx[valid]

    denom = sxx * syy
    ok = valid & (denom > 0)
    coherence = np.zeros_like(sxx)
    coherence[ok] = np.abs(sxy[ok]) ** 2 / denom[ok]
    coherence = coherence.clip(0.0, 1.0)

    return FrequencyResponseFunction(freqs, response, coherence,
                                     input_channel, output_channel, valid)


def detect_peaks(frf: FrequencyResponseFunction, band, min_prominence: float):
    """Resonance candidates in [f_lo, f_hi], sorted by descending gain.

    Returns a list of (frequency_hz, gain) tuples. Peak frequencies are
    refined by parabolic interpolation through the three bins around each
    local maximum. Invalid bins are excluded.
    """
    f_lo, f_hi = band
    if f_lo < frf.freqs[0] - 1e-12 or f_hi > frf.freqs[-1] + 1e-12:
        raise ValueError(
            f"band [{f_lo}, {f_hi}] Hz outside FRF grid "
            f"[{frf.freqs[0]}, {frf.freqs[-1]}] Hz"
        )
    mask = frf.band(f_lo, f_hi) & frf.valid
    idx = np.flatnonzero(mask)
    if idx.size < 3:
        return []
    gain = frf.gain[idx]
    locs, props = sps.find_peaks(gain, prominence=min_prominence)
    peaks = []
    df = frf.freqs[1] - frf.freqs[0]
    for loc in locs:
        j = idx[loc]
        f_pk, g_pk = frf.freqs[j], gain[loc]
        if 0 < loc < gain.size - 1:
            # parabolic refinement on the three surrounding bins
            g_m, g_0, g_p = gain[loc - 1], gain[loc], gain[loc + 1]
            denom = g_m - 2 * g_0 + g_p
            if denom < 0:
                shift = 0.5 * (g_m - g_p) / denom
                f_pk = f_pk + shift * df
                g_pk = g_0 - 0.25 * (g_m - g_p) * shift
        peaks.append((float(f_pk), float(g_pk)))
    peaks.sort(key=lambda p: -p[1])
    return peaks


def resonance_scan(x, responses, dt: float, params: WelchParams, band,
                   min_prominence: float, input_channel: str = "input") -> dict:
    """``{name: (frf, peaks)}``: the H1 FRF of each ``(name, y)`` in
    ``responses`` against the drive ``x``, and its peaks in ``band`` clamped
    to the grid's nonzero bins.  The peaks are ``[]`` where the clamped band
    is empty or fewer than half of its bins are valid (little input power).
    """
    scan = {}
    for name, y in responses:
        frf = estimate_frf(x, y, dt, params, input_channel=input_channel,
                           output_channel=name)
        lo, hi = max(band[0], float(frf.freqs[1])), min(band[1], float(frf.freqs[-1]))
        in_band = frf.band(lo, hi)
        usable = lo < hi and \
            np.count_nonzero(frf.valid & in_band) >= 0.5 * np.count_nonzero(in_band)
        scan[name] = (frf, detect_peaks(frf, (lo, hi), min_prominence) if usable else [])
    return scan
