"""Reproducible seat-acceleration test signals.

Band-limited noise is shaped in the frequency domain with raised-cosine
band edges and rescaled to an exact RMS, so the same spec and seed always
produce the same record.  A linear sweep covers the same band for
resonance hunting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.signal as sps

from ridecomfort.errors import InvalidBand
from ridecomfort.schema import is_number
from ridecomfort.timeseries import TimeSeries, from_arrays

SEAT_CHANNELS = (("seat_acc_x", "m/s^2"), ("seat_acc_y", "m/s^2"), ("seat_acc_z", "m/s^2"))

# Fraction of the lower band edge used for the raised-cosine transitions.
_EDGE_FRACTION = 0.2

# A record shorter than this many periods of the lowest band frequency
# cannot support averaged spectral estimates over the band.
_MIN_CYCLES = 10.0

# About 100 g: far above any seat motion, and far below the point where the
# squared sums of spectral estimates over a record overflow.
MAX_RMS_M_S2 = 981.0


@dataclass(frozen=True)
class ExcitationSpec:
    """Recipe for a single-axis seat acceleration record."""

    axis: str = "z"
    kind: str = "noise"             # "noise" | "sweep"
    band_hz: tuple[float, float] = (0.5, 12.0)
    rms_m_s2: float = 0.5
    duration_s: float = 120.0
    dt_s: float = 0.001
    seed: int = 0

    def validate(self) -> None:
        if self.axis not in ("x", "y", "z"):
            raise ValueError(f"axis must be x, y or z, got {self.axis!r}")
        if self.kind not in ("noise", "sweep"):
            raise ValueError(f"kind must be noise or sweep, got {self.kind!r}")
        f_lo, f_hi = self.band_hz
        if not all(map(is_number, (f_lo, f_hi, self.rms_m_s2,
                                   self.duration_s, self.dt_s))):
            raise ValueError("band_hz, rms_m_s2, duration_s and dt_s must be finite")
        if self.dt_s <= 0:
            raise ValueError("dt_s must be > 0")
        if not (0.0 < f_lo < f_hi):
            raise InvalidBand(f"band_hz must satisfy 0 < f_lo < f_hi, got {self.band_hz}")
        if f_hi >= 0.5 / self.dt_s:
            raise InvalidBand(
                f"band_hz top {f_hi} Hz reaches Nyquist for dt={self.dt_s}")
        if not 0 < self.rms_m_s2 <= MAX_RMS_M_S2:
            raise ValueError(f"rms_m_s2 must be > 0 and <= {MAX_RMS_M_S2:g}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.duration_s * f_lo < _MIN_CYCLES:
            raise InvalidBand(
                f"duration_s {self.duration_s} s gives fewer than {_MIN_CYCLES:.0f} "
                f"cycles at {f_lo} Hz")

    @property
    def n_samples(self) -> int:
        """Length of the generated record."""
        return int(round(self.duration_s / self.dt_s)) + 1


def _band_noise(n: int, dt: float, band, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(n)
    spec = scipy.fft.rfft(white)  # the bytes of np.fft.rfft, from a cached plan
    freqs = np.fft.rfftfreq(n, dt)
    f_lo, f_hi = band
    edge_lo = _EDGE_FRACTION * f_lo
    edge_hi = _EDGE_FRACTION * f_lo  # same absolute width both sides
    gain = np.zeros_like(freqs)
    core = (freqs >= f_lo) & (freqs <= f_hi)
    gain[core] = 1.0
    lo = (freqs >= f_lo - edge_lo) & (freqs < f_lo)
    gain[lo] = 0.5 * (1.0 + np.cos(np.pi * (f_lo - freqs[lo]) / edge_lo))
    hi = (freqs > f_hi) & (freqs <= f_hi + edge_hi)
    gain[hi] = 0.5 * (1.0 + np.cos(np.pi * (freqs[hi] - f_hi) / edge_hi))
    gain[0] = 0.0
    return scipy.fft.irfft(spec * gain, n)


def generate_excitation(spec: ExcitationSpec) -> TimeSeries:
    """Three-channel seat acceleration record with the driven axis filled in.

    Noise records are zero-mean with RMS equal to spec.rms_m_s2 to machine
    precision; off-axis channels are zero.
    """
    spec.validate()
    n = spec.n_samples
    t = np.arange(n) * spec.dt_s
    if spec.kind == "noise":
        x = _band_noise(n, spec.dt_s, spec.band_hz, spec.seed)
    else:
        x = sps.chirp(t, spec.band_hz[0], t[-1], spec.band_hz[1], method="linear")
        # taper the ends so the sweep starts and stops cleanly
        ramp = min(2.0 / spec.band_hz[0], 0.1 * spec.duration_s)
        k = max(int(round(ramp / spec.dt_s)), 1)
        win = 0.5 * (1.0 - np.cos(np.pi * np.arange(k) / k))
        x[:k] *= win
        x[-k:] *= win[::-1]
        x = x - x.mean()
    x = x * (spec.rms_m_s2 / np.sqrt(np.mean(x ** 2)))

    data = {name: np.zeros(n) for name, _ in SEAT_CHANNELS}
    data[f"seat_acc_{spec.axis}"] = x
    meta = {
        "excitation_axis": spec.axis,
        "excitation_kind": spec.kind,
        "excitation_band_hz": list(spec.band_hz),
        "excitation_rms_m_s2": spec.rms_m_s2,
        "excitation_seed": spec.seed,
    }
    return from_arrays(spec.dt_s, data, SEAT_CHANNELS, meta=meta)
