"""Frequency-weighted ride comfort and motion sickness dose metrics.

Weighting filters are cascades of second-order analog sections: a two-pole
high-pass and low-pass band limit (Q = 1/sqrt(2)), an acceleration-velocity
transition, and an upward step.  Section corner frequencies live in
``data/iso2631_weightings.json`` so alternative parameter sets can be swapped
in without touching code.  Digital realizations use one bilinear transform
per section with the corner frequencies prewarped individually, which keeps
every corner exactly on frequency at low sample rates.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np
import scipy.signal as sps

from .errors import GridMismatch, RateMismatch, UnitMismatch, UnsupportedRate
from .schema import Validated
from .timeseries import TimeSeries

_SQRT2 = math.sqrt(2.0)

# Fraction of the sample rate above which a low-pass band-limit section is
# dropped instead of warped onto the unit circle.
_LP_SKIP_FRACTION = 0.4

AXIS_WEIGHTINGS = {"x": "Wd", "y": "Wd", "z": "Wk"}
DOSE_WEIGHTING = "Wf"
# the body-response channels that comfort_report reads
BODY_CHANNELS = tuple(f"head_acc_{axis}" for axis in AXIS_WEIGHTINGS)

_params_cache = None


def _weighting_table():
    global _params_cache
    if _params_cache is None:
        text = resources.files("ridecomfort.data").joinpath(
            "iso2631_weightings.json").read_text()
        _params_cache = json.loads(text)["weightings"]
    return _params_cache


def weighting_names():
    return tuple(sorted(_weighting_table()))


def _analog_sections(name):
    """Return the analog weighting as a list of (kind, num, den) sections.

    Polynomials are in falling powers of s: a two-pole high-pass and
    low-pass band limit, the acceleration-velocity transition (optionally
    without its zero), and the upward step when configured.
    """
    try:
        p = _weighting_table()[name]
    except KeyError:
        raise KeyError(f"unknown weighting {name!r}") from None
    sections = []
    w1 = 2.0 * math.pi * p["f1_hz"]
    w2 = 2.0 * math.pi * p["f2_hz"]
    sections.append(("highpass", [1.0, 0.0, 0.0], [1.0, w1 * _SQRT2, w1 * w1]))
    sections.append(("lowpass", [w2 * w2], [1.0, w2 * _SQRT2, w2 * w2]))
    w4 = 2.0 * math.pi * p["f4_hz"]
    den = [1.0, w4 / p["q4"], w4 * w4]
    if p["f3_hz"] is None:
        num = [w4 * w4]
    else:
        w3 = 2.0 * math.pi * p["f3_hz"]
        num = [w4 * w4 / w3, w4 * w4]
    sections.append(("transition", num, den))
    if p["f5_hz"] is not None:
        w5 = 2.0 * math.pi * p["f5_hz"]
        w6 = 2.0 * math.pi * p["f6_hz"]
        sections.append(("step",
                         [1.0, w5 / p["q5"], w5 * w5],
                         [1.0, w6 / p["q6"], w6 * w6]))
    return sections


def analog_magnitude(name, freqs_hz):
    """Magnitude of the analog weighting at `freqs_hz` (continuous-time)."""
    freqs_hz = np.asarray(freqs_hz, dtype=float)
    s = 2j * math.pi * freqs_hz
    mag = np.ones_like(freqs_hz)
    for _, num, den in _analog_sections(name):
        mag = mag * np.abs(np.polyval(num, s) / np.polyval(den, s))
    return mag


def _scale_corners(coeffs, lam):
    """Replace H(s) by H(s / lam), moving every corner frequency up by lam."""
    coeffs = np.asarray(coeffs, dtype=float)
    deg = len(coeffs) - 1
    return coeffs * lam ** -(deg - np.arange(deg + 1.0))


def _poly_mag(num, den, freqs_hz):
    s = 2j * math.pi * np.asarray(freqs_hz, dtype=float)
    return np.abs(np.polyval(num, s) / np.polyval(den, s))


def _balanced_prewarp(num, den, fs, band):
    """Prewarp scale minimizing worst-case band error of a bilinear section.

    The bilinear transform evaluates the prototype exactly at the warped
    frequency (2 fs / lam) tan(pi f / fs), so the digital magnitude error
    over the band is known in closed form for any prewarp scale lam.  A
    corner-anchored prewarp leaves all the warping error at the band top;
    scanning candidate anchor frequencies across the band balances it.
    """
    f_lo = band[0]
    f_hi = min(band[1], 0.45 * fs)
    grid = np.geomspace(f_lo, f_hi, 160)
    target = _poly_mag(num, den, grid)
    x = math.pi * grid / fs
    warped_hz = fs * np.tan(x) / math.pi
    best = (np.inf, 1.0)
    for f_p in np.geomspace(f_lo, f_hi, 80):
        xp = math.pi * f_p / fs
        lam = math.tan(xp) / xp
        got = _poly_mag(num, den, warped_hz / lam)
        err = np.max(np.abs(got / target - 1.0))
        if err < best[0]:
            best = (err, lam)
    return best[1]


@dataclass(frozen=True)
class DigitalWeighting:
    """Discrete weighting filter designed for one sample rate."""

    name: str
    rate_hz: float
    sos: np.ndarray
    skipped_sections: tuple

    def apply(self, x, axis=-1):
        return sps.sosfilt(self.sos, np.asarray(x, dtype=float), axis=axis)

    def magnitude(self, freqs_hz):
        freqs_hz = np.asarray(freqs_hz, dtype=float)
        _, h = sps.sosfreqz(self.sos, worN=freqs_hz, fs=self.rate_hz)
        return np.abs(h)

    @property
    def dc_gain(self):
        num = self.sos[:, :3].sum(axis=1)
        den = self.sos[:, 3:].sum(axis=1)
        return float(np.prod(num / den))

    def pole_radii(self):
        radii = []
        for row in self.sos:
            radii.extend(np.abs(np.roots(row[3:])))
        return np.array(radii)


_design_cache = {}


def design_weighting(name, rate_hz):
    """Design the named weighting for a sample rate.

    Raises UnsupportedRate when the rate is below the published minimum for
    that weighting.  Each analog section is discretized by a bilinear
    transform with a band-balanced prewarp.  A low-pass band-limit corner
    above 40% of the sample rate is skipped: it would fold across Nyquist,
    and its effect at the retained corners is below 0.1%.
    """
    key = (name, float(rate_hz))
    cached = _design_cache.get(key)
    if cached is not None:
        return cached
    p = _weighting_table().get(name)
    if p is None:
        raise KeyError(f"unknown weighting {name!r}")
    if rate_hz < p["min_sample_rate_hz"]:
        raise UnsupportedRate(
            f"{name} needs at least {p['min_sample_rate_hz']:g} Hz, "
            f"got {rate_hz:g} Hz")
    band = tuple(p["nominal_band_hz"])
    rows = []
    skipped = []
    for kind, num, den in _analog_sections(name):
        if kind == "lowpass" and p["f2_hz"] > _LP_SKIP_FRACTION * rate_hz:
            skipped.append(kind)
            continue
        lam = _balanced_prewarp(num, den, rate_hz, band)
        bz, az = sps.bilinear(_scale_corners(num, lam),
                              _scale_corners(den, lam), fs=rate_hz)
        row = np.zeros(6)
        row[3 - len(bz):3] = bz
        row[6 - len(az):6] = az
        rows.append(row / row[3])
    design = DigitalWeighting(name, float(rate_hz), np.array(rows),
                              tuple(skipped))
    _design_cache[key] = design
    return design


# -- scalar metrics -----------------------------------------------------------

def settling_rows(settle_s, dt, n_samples):
    """The rows of an ``n_samples`` record at step ``dt`` that a settling
    interval of ``settle_s`` leaves out; ValueError when that is all."""
    skip = round(min(settle_s / dt, n_samples))
    if skip >= n_samples:
        raise ValueError("settling interval consumes the whole record")
    return skip


def weighted_rms(x, dt, weighting, settle_s=0.0):
    """RMS of the weighted signal, discarding an initial settling interval."""
    if isinstance(weighting, str):
        weighting = design_weighting(weighting, 1.0 / dt)
    elif abs(weighting.rate_hz * dt - 1.0) > 1e-9:
        raise RateMismatch(
            f"filter designed for {weighting.rate_hz:g} Hz, "
            f"signal sampled at {1.0 / dt:g} Hz")
    y = weighting.apply(x)
    y = y[settling_rows(settle_s, dt, len(y)):]
    return float(np.sqrt(np.mean(y * y)))


def motion_sickness_dose(x, dt, settle_s=0.0, percent_per_dose=1.0 / 3.0):
    """Motion sickness dose value and the derived illness rating.

    The dose is the square root of the time integral of squared weighted
    acceleration (units m/s^1.5); the rating scales it by `percent_per_dose`
    (default 1/3, a mixed adult population) to an expected percentage of
    affected occupants, clipped at 100.
    """
    w = design_weighting(DOSE_WEIGHTING, 1.0 / dt)
    y = w.apply(x)
    y = y[settling_rows(settle_s, dt, len(y)):]
    msdv = float(np.sqrt(np.sum(y * y) * dt))
    return msdv, min(percent_per_dose * msdv, 100.0)


def _weight_channels(ts, prefix, settle_s, rms_out, kinds_out):
    for axis in ("x", "y", "z"):
        name = f"{prefix}_{axis}"
        if ts.unit(name) != "m/s^2":
            raise UnitMismatch(f"{name} has unit {ts.unit(name)!r}, "
                               "expected 'm/s^2'")
        kind = AXIS_WEIGHTINGS[axis]
        rms_out[name] = weighted_rms(ts.channel(name), ts.dt, kind, settle_s)
        kinds_out[name] = kind


@dataclass(frozen=True)
class MetricsOptions(Validated):
    """The ``metrics`` section of a scenario: which metrics a run reports,
    and the initial seconds they leave out."""

    weighted_rms: bool = True
    msdv: bool = True
    settle_s: float = 0.0

    def validate(self) -> None:
        if self.settle_s < 0:
            raise ValueError("settle_s must be >= 0")


@dataclass(frozen=True)
class ComfortReport:
    """Per-channel weighted accelerations plus the vertical sickness dose."""

    weighted_rms_m_s2: dict
    weightings_used: dict
    msdv_m_s15: float
    iso_msi_percent: float
    msdv_channel: str
    duration_s: float
    settle_s: float

    def as_dict(self):
        return asdict(self)


def comfort_report(seat_motion=None, body_response=None, settle_s=0.0,
                   include_rms=True, include_msdv=True):
    """Weighted RMS per acceleration channel plus the sickness dose.

    Axis weightings follow the seated-surface convention: Wd laterally, Wk
    vertically.  The dose uses the vertical seat channel when a seat record
    is given, otherwise the vertical head channel.  Either record may be
    omitted; at least one is required.  Two records must share one grid:
    RateMismatch when they disagree on sample rate, GridMismatch when on
    start time or sample count.
    """
    records = [(ts, prefix) for ts, prefix in
               ((seat_motion, "seat_acc"), (body_response, "head_acc"))
               if ts is not None]
    if not records:
        raise ValueError("need a seat record, a body-response record, or both")
    if len(records) == 2:
        seat, body = seat_motion, body_response
        if abs(seat.dt - body.dt) > 1e-12:
            raise RateMismatch(f"seat record at {1.0 / seat.dt:g} Hz but body "
                               f"response at {1.0 / body.dt:g} Hz")
        if (seat.n_samples != body.n_samples
                or abs(seat.start_time - body.start_time) > 1e-6 * seat.dt):
            raise GridMismatch(
                "seat record and body response must share one grid: "
                f"{seat.n_samples} samples from t = {seat.start_time:g} s "
                f"against {body.n_samples} from t = {body.start_time:g} s")
    rms, kinds = {}, {}
    if include_rms:
        for ts, prefix in records:
            _weight_channels(ts, prefix, settle_s, rms, kinds)
    msdv = msi = 0.0
    dose_name = f"{records[0][1]}_z"
    if include_msdv:
        ts = records[0][0]
        if ts.unit(dose_name) != "m/s^2":
            raise UnitMismatch(f"{dose_name} has unit "
                               f"{ts.unit(dose_name)!r}, expected 'm/s^2'")
        msdv, msi = motion_sickness_dose(ts.channel(dose_name), ts.dt,
                                         settle_s)
        kinds[dose_name + " (dose)"] = DOSE_WEIGHTING
    return ComfortReport(
        weighted_rms_m_s2=rms,
        weightings_used=kinds,
        msdv_m_s15=msdv,
        iso_msi_percent=msi,
        msdv_channel=dose_name,
        duration_s=float(records[0][0].duration),
        settle_s=float(settle_s),
    )

