"""Seat-to-head transmissibility runs.

Drives the assembled model with a reproducible excitation, estimates H1
transfer functions from the driven seat axis to trunk/head motion channels
and locates resonance peaks.  Results can be written as one CSV per channel
(freq_hz, gain, phase_deg, coherence) plus a resonance summary JSON.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ridecomfort.body.integrate import simulate
from ridecomfort.excitation import ExcitationSpec, generate_excitation
from ridecomfort.spectral import WelchParams, detect_peaks, estimate_frf
from ridecomfort.timeseries import save_json

# Channels a transmissibility run reports against the driven seat axis.
RESPONSE_CHANNELS = (
    "trunk_acc_x", "trunk_acc_y", "trunk_acc_z",
    "head_acc_x", "head_acc_y", "head_acc_z",
    "trunk_rotvel_roll", "trunk_rotvel_pitch", "trunk_rotvel_yaw",
    "head_rotvel_roll", "head_rotvel_pitch", "head_rotvel_yaw",
)


@dataclass(frozen=True)
class STHTOptions:
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
    meta: dict = field(default_factory=dict)

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
    band).  Runtime covers only the body-model integration.
    """
    spec.validate()
    seat = generate_excitation(spec)
    t0 = time.perf_counter()
    response = simulate(model, seat)
    runtime = time.perf_counter() - t0

    welch = welch or default_welch_params(seat.n_samples, seat.dt)
    band = tuple(band_hz) if band_hz is not None else tuple(spec.band_hz)
    drive_name = f"seat_acc_{spec.axis}"
    drive = seat.channel(drive_name)

    frfs, resonances = {}, {}
    for name in channels:
        frf = estimate_frf(drive, response.channel(name), seat.dt, welch,
                           input_channel=drive_name, output_channel=name)
        frfs[name] = frf
        resonances[name] = detect_peaks(frf, band, min_prominence)
    return STHTResult(
        axis=spec.axis, frfs=frfs, resonances=resonances, band_hz=band,
        runtime_s=runtime,
        meta={
            "excitation": seat.meta,
            "welch_segment_length": welch.segment_length,
            "simulated_s": seat.duration,
            "realtime_factor": response.meta["realtime_factor"],
        },
    )


def save_stht_result(result: STHTResult, out_dir) -> list:
    """One CSV per channel plus a resonance/metadata JSON; returns paths.

    The wall clock ``runtime_s`` is left out, so repeat runs of one config
    write the same bytes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, frf in result.frfs.items():
        path = out / f"stht_{result.axis}_{name}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["freq_hz", "gain", "phase_deg", "coherence"])
            for f, g, p, c in zip(frf.freqs, frf.gain, frf.phase_deg, frf.coherence):
                writer.writerow([f"{f:.17g}", f"{g:.17g}", f"{p:.17g}", f"{c:.17g}"])
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
