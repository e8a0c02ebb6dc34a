"""Conflict-driven motion-sickness accumulation.

A saturating (Hill) nonlinearity converts conflict magnitude to an
instantaneous drive in [0, 1); two identical cascaded first-order lags
spread it over the slow accumulation time constant; a population scale
maps the result to a percentage.  The lags are discretized exactly for
zero-order-hold input, so the trace is dt-robust.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
import scipy.signal as sps

from ridecomfort.timeseries import TimeSeries, from_arrays


@dataclass(frozen=True)
class AccumulatorParams:
    half_saturation_m_s2: float = 0.5
    hill_exponent: float = 2.0
    time_constant_s: float = 720.0
    ceiling_percent: float = 85.0

    def validate(self) -> None:
        if self.half_saturation_m_s2 <= 0:
            raise ValueError("half_saturation_m_s2 must be > 0")
        if self.hill_exponent < 1.0:
            raise ValueError("hill_exponent must be >= 1")
        if self.time_constant_s <= 0:
            raise ValueError("time_constant_s must be > 0")
        if not 0.0 < self.ceiling_percent <= 100.0:
            raise ValueError("ceiling_percent must be in (0, 100]")


def accumulate(conflict: TimeSeries, params: AccumulatorParams | None = None,
               channel: str = "conflict") -> TimeSeries:
    """Motion-sickness index (percent) over time for a conflict record.

    Constant conflict equal to the half-saturation level drives the index
    toward ceiling_percent / 2.
    """
    params = params or AccumulatorParams()
    params.validate()
    c = conflict.channel(channel)
    if np.any(c < 0):
        raise ValueError("conflict magnitudes must be non-negative")

    n_exp = params.hill_exponent
    cn = c ** n_exp
    h = cn / (cn + params.half_saturation_m_s2 ** n_exp)

    # exact ZOH step of 1/(mu*s + 1), input held from the step start
    alpha = float(np.exp(-conflict.dt / params.time_constant_s))
    b, a = [0.0, 1.0 - alpha], [1.0, -alpha]
    y1 = sps.lfilter(b, a, h)
    y2 = sps.lfilter(b, a, y1)
    msi = np.clip(params.ceiling_percent * y2, 0.0, 100.0)

    meta = dict(conflict.meta)
    meta["accumulator"] = asdict(params)
    return from_arrays(conflict.dt, msi[:, None], [("msi", "percent")],
                       start_time=conflict.start_time, meta=meta)


@dataclass(frozen=True)
class SicknessSummary:
    final_percent: float
    peak_percent: float
    time_to_threshold_s: float | None
    threshold_percent: float | None


def summarize(trace: TimeSeries, threshold_percent: float | None = None) -> SicknessSummary:
    """Final and peak index, plus first crossing of an optional threshold."""
    msi = trace.channel("msi")
    crossing = None
    if threshold_percent is not None:
        hits = np.flatnonzero(msi >= threshold_percent)
        if hits.size:
            crossing = float(trace.start_time + hits[0] * trace.dt)
    return SicknessSummary(
        final_percent=float(msi[-1]),
        peak_percent=float(msi.max()),
        time_to_threshold_s=crossing,
        threshold_percent=threshold_percent,
    )

