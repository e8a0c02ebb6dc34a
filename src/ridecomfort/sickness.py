"""Conflict-driven motion-sickness accumulation.

A saturating (Hill) nonlinearity converts conflict magnitude to an
instantaneous drive in [0, 1); two identical cascaded first-order lags
spread it over the slow accumulation time constant; a population scale
maps the result to a percentage.  The lags are discretized exactly for
zero-order-hold input, so the trace is dt-robust.  ``accumulate`` works
in chunks of at most ``_CHUNK_ROWS`` rows and carries the lags' filter
states between them in an ``AccumulatorState``, with the same bits as
one pass; given the state a call on the rows before it left, a call
continues that record.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.signal as sps

from ridecomfort.schema import Validated
from ridecomfort.timeseries import _BLOCK_ROWS as _CHUNK_ROWS, TimeSeries, from_arrays


@dataclass(frozen=True)
class AccumulatorParams(Validated):
    half_saturation_m_s2: float = 0.5
    hill_exponent: float = 2.0
    time_constant_s: float = 720.0
    ceiling_percent: float = 85.0
    # index level whose first crossing time the summary reports
    threshold_percent: float | None = None

    def validate(self) -> None:
        if self.half_saturation_m_s2 <= 0:
            raise ValueError("half_saturation_m_s2 must be > 0")
        if self.hill_exponent < 1.0:
            raise ValueError("hill_exponent must be >= 1")
        if self.time_constant_s <= 0:
            raise ValueError("time_constant_s must be > 0")
        if not 0.0 < self.ceiling_percent <= 100.0:
            raise ValueError("ceiling_percent must be in (0, 100]")
        if self.threshold_percent is not None and \
                not 0.0 < self.threshold_percent <= 100.0:
            raise ValueError("threshold_percent must be in (0, 100]")


@dataclass
class AccumulatorState:
    """The two lags' filter states that ``accumulate`` carries from a
    record's last row to the next row; zero before the first."""

    zi1: np.ndarray = field(default_factory=lambda: np.zeros(1))
    zi2: np.ndarray = field(default_factory=lambda: np.zeros(1))


def accumulate(conflict: TimeSeries, params: AccumulatorParams | None = None,
               channel: str = "conflict", *,
               state: AccumulatorState | None = None) -> TimeSeries:
    """Motion-sickness index (percent) over time for a conflict record.

    Constant conflict equal to the half-saturation level drives the index
    toward ceiling_percent / 2.  A ``state`` left by the call on the rows
    before this record is continued from and advanced to its last row.
    """
    params = params or AccumulatorParams()
    c = conflict.channel(channel)
    if np.any(c < 0):
        raise ValueError("conflict magnitudes must be non-negative")

    n_exp = params.hill_exponent
    saturation = params.half_saturation_m_s2 ** n_exp
    # exact ZOH step of 1/(mu*s + 1), input held from the step start
    alpha = float(np.exp(-conflict.dt / params.time_constant_s))
    b, a = [0.0, 1.0 - alpha], [1.0, -alpha]
    state = AccumulatorState() if state is None else state
    msi = np.empty((len(c), 1))
    for c0 in range(0, len(c), _CHUNK_ROWS):
        c1 = c0 + _CHUNK_ROWS
        cn = c[c0:c1] ** n_exp
        h = cn / (cn + saturation)
        y1, state.zi1 = sps.lfilter(b, a, h, zi=state.zi1)
        y2, state.zi2 = sps.lfilter(b, a, y1, zi=state.zi2)
        np.clip(params.ceiling_percent * y2, 0.0, 100.0, out=msi[c0:c1, 0])

    meta = dict(conflict.meta)
    meta["accumulator"] = asdict(params)
    return from_arrays(conflict.dt, msi, [("msi", "percent")],
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

