"""Seat-to-head transmissibility runs.

Drives the assembled model with a reproducible excitation, estimates H1
transfer functions from the driven seat axis to trunk/head motion channels
and locates resonance peaks.  Results can be written as one CSV per channel
(freq_hz, gain, phase_deg, coherence) plus a resonance summary JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ridecomfort.body.integrate import simulate
from ridecomfort.excitation import ExcitationSpec, generate_excitation
from ridecomfort.schema import Validated
from ridecomfort.spectral import WelchParams, resonance_scan
from ridecomfort.timeseries import _format_rows, save_json

# Channels a transmissibility run reports against the driven seat axis.
RESPONSE_CHANNELS = (
    "trunk_acc_x", "trunk_acc_y", "trunk_acc_z",
    "head_acc_x", "head_acc_y", "head_acc_z",
    "trunk_rotvel_roll", "trunk_rotvel_pitch", "trunk_rotvel_yaw",
    "head_rotvel_roll", "head_rotvel_pitch", "head_rotvel_yaw",
)


@dataclass(frozen=True)
class STHTOptions(Validated):
    """Analysis settings of a transmissibility run (the scenario ``stht`` section).

    ``None`` selects the run's own choice: the excited band, the
    ``default_welch_params`` segmentation and every response channel.
    """

    band_hz: tuple[float, float] | None = None
    min_prominence: float = 0.1
    welch: WelchParams | None = None
    channels: tuple[str, ...] | None = None

    def validate(self) -> None:
        if self.band_hz is not None and not 0 < self.band_hz[0] < self.band_hz[1]:
            raise ValueError("band_hz must be [low, high] with 0 < low < high")
        if self.min_prominence <= 0:
            raise ValueError("min_prominence must be > 0")
        unknown = sorted(set(self.channels or ()) - set(RESPONSE_CHANNELS))
        if unknown:
            raise ValueError(f"channels has unknown names {unknown}")


@dataclass
class STHTResult:
    axis: str
    frfs: dict
    resonances: dict
    band_hz: tuple
    runtime_s: float

    def channels(self) -> tuple:
        return tuple(self.frfs)


def default_welch_params(n_samples: int, dt: float) -> WelchParams:
    """Segment length targeting ~8 s windows, shortened for brief records."""
    target = int(round(8.0 / dt))
    nperseg = 1 << max(int(np.log2(target)), 3)
    while nperseg > 8 and WelchParams(nperseg).n_segments(n_samples) < 2:
        nperseg //= 2
    return WelchParams(nperseg)


def run_stht(model, spec: ExcitationSpec, welch: WelchParams | None = None,
             band_hz: tuple | None = None,
             min_prominence: float = STHTOptions.min_prominence,
             channels=RESPONSE_CHANNELS) -> STHTResult:
    """Simulate the excitation and estimate all response-channel FRFs.

    ``band_hz`` restricts resonance peak hunting (defaults to the excited
    band) by ``resonance_scan``'s rule; a channel without peaks keeps an
    empty list.  ``runtime_s`` is ``simulate``'s own wall clock.
    """
    seat = generate_excitation(spec)
    response = simulate(model, seat)
    welch = welch or default_welch_params(seat.n_samples, seat.dt)
    band = tuple(band_hz) if band_hz is not None else tuple(spec.band_hz)
    drive = f"seat_acc_{spec.axis}"
    scan = resonance_scan(seat.channel(drive),
                          [(name, response.channel(name)) for name in channels],
                          seat.dt, welch, band, min_prominence, drive)
    return STHTResult(
        axis=spec.axis, frfs={name: frf for name, (frf, _) in scan.items()},
        resonances={name: peaks for name, (_, peaks) in scan.items()},
        band_hz=band, runtime_s=response.meta["wall_clock_s"])


def save_stht_result(result: STHTResult, out_dir) -> list:
    """One CSV per channel plus a resonance/metadata JSON; returns paths.

    The CSVs hold ``%.17g`` cells and end lines with CRLF.  The wall clock
    ``runtime_s`` is left out, so repeat runs of one config write the same
    bytes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, frf in result.frfs.items():
        path = out / f"stht_{result.axis}_{name}.csv"
        text = "freq_hz,gain,phase_deg,coherence\n" + _format_rows(
            np.column_stack([frf.freqs, frf.gain, frf.phase_deg, frf.coherence]))
        path.write_bytes(text.replace("\n", "\r\n").encode("ascii"))
        written.append(path)
    summary = {
        "axis": result.axis,
        "band_hz": list(result.band_hz),
        "resonances": {
            name: [{"freq_hz": f, "gain": g} for f, g in peaks]
            for name, peaks in result.resonances.items()
        },
    }
    path = out / f"stht_{result.axis}_resonances.json"
    save_json(summary, path)
    written.append(path)
    return written
