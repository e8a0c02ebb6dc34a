"""Uniformly sampled multi-channel signals and their CSV interchange format.

The CSV layout is the interchange format between pipeline stages: first
column ``time_s``, remaining header cells ``name[unit]`` (for example
``seat_acc_x[m/s^2]``), comma separated, decimal point, UTF-8, LF or CRLF.
JSON artifacts (summaries and reports) are written by ``save_json``.

``save_timeseries`` formats the rows of a long trace in worker processes
where the platform forks them (Linux); the bytes are the same either way.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import re
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.interpolate import make_interp_spline
from scipy.signal import butter, sosfiltfilt

from .errors import (
    EmptyFile,
    InvalidRate,
    MissingChannel,
    NonFiniteSample,
    NonUniformSampling,
)

_DT_RTOL = 1e-6
_BLOCK_ROWS = 4096  # CSV rows formatted per task of the writer's pool
_HEADER_RE = re.compile(r"^(?P<name>[^\[\]]+)\[(?P<unit>[^\[\]]*)\]$")


@dataclass(frozen=True)
class TimeSeries:
    """Immutable, uniformly sampled signal block.

    samples has one row per time step and one column per channel.
    """

    start_time: float
    dt: float
    channels: tuple[tuple[str, str], ...]   # (name, unit) pairs
    samples: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim == 1:
            samples = samples[:, None]
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "channels", tuple((str(n), str(u)) for n, u in self.channels))
        if self.dt <= 0:
            raise InvalidRate(f"dt must be positive, got {self.dt}")
        if samples.shape[0] < 1:
            raise EmptyFile("time series must contain at least one sample")
        if samples.shape[1] != len(self.channels):
            raise ValueError(
                f"{len(self.channels)} channels declared but samples have "
                f"{samples.shape[1]} columns"
            )
        bad = ~np.isfinite(samples)
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise NonFiniteSample(self.channels[col][0], int(row))
        samples.setflags(write=False)

    # -- basic queries ---------------------------------------------------

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        """Signal span in seconds, (n-1)*dt."""
        return (self.n_samples - 1) * self.dt

    @property
    def channel_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.channels)

    def time(self) -> np.ndarray:
        return self.start_time + self.dt * np.arange(self.n_samples)

    def index(self, name: str) -> int:
        try:
            return self.channel_names.index(name)
        except ValueError:
            raise MissingChannel(name) from None

    def channel(self, name: str) -> np.ndarray:
        return self.samples[:, self.index(name)]

    def unit(self, name: str) -> str:
        return self.channels[self.index(name)][1]

    def select(self, names) -> "TimeSeries":
        """New TimeSeries restricted to the named channels, in that order."""
        idx = [self.index(n) for n in names]
        return TimeSeries(
            self.start_time,
            self.dt,
            tuple(self.channels[i] for i in idx),
            self.samples[:, idx],
        )


def from_arrays(dt, data, channels, start_time=0.0, meta=None) -> TimeSeries:
    """Convenience constructor from a dict or 2-D array of channel data."""
    if isinstance(data, dict):
        cols = [np.asarray(data[name], dtype=float) for name, _ in channels]
        samples = np.column_stack(cols)
    else:
        samples = np.asarray(data, dtype=float)
    return TimeSeries(start_time, float(dt), tuple(channels), samples, meta or {})


# -- CSV ingestion -------------------------------------------------------


def _parse_header(cells, path):
    if cells[0].strip() != "time_s":
        raise MissingChannel("time_s", path)
    channels = []
    for cell in cells[1:]:
        m = _HEADER_RE.match(cell.strip())
        if m is None:
            raise MissingChannel(cell.strip() or "<empty header cell>", path)
        channels.append((m.group("name"), m.group("unit")))
    return channels


def _lines(fh):
    """Non-blank lines of a CSV opened with ``newline="\\n"``, each without
    its LF or CRLF end: the line rule of the reader and of count_samples."""
    for ln in fh:
        ln = ln.removesuffix("\n").removesuffix("\r")
        if ln.strip():
            yield ln


def count_samples(path) -> int:
    """Sample rows of a TimeSeries CSV, counted as ``load_timeseries`` reads
    them (the non-blank lines after the header), streamed line by line
    without parsing a number."""
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        lines = sum(1 for _ in _lines(fh))
    return max(lines - 1, 0)


def load_timeseries(path, schema=None) -> TimeSeries:
    """Read and validate a TimeSeries CSV.

    `schema`, when given, is an iterable of (name, unit) pairs that must all
    be present (extra file channels are kept). dt is inferred from the time
    column and must be uniform within a relative tolerance of 1e-6.
    """
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        lines = _lines(fh)  # streamed: no copy of the text is held
        header = next(lines, None)
        if header is None:
            raise EmptyFile(f"{path} is empty")
        channels = _parse_header(header.split(","), path)
        first = next(lines, None)
        if first is None:
            raise EmptyFile(f"{path} has a header but no samples")
        try:
            body = np.loadtxt(itertools.chain((first,), lines), delimiter=",",
                              ndmin=2)
        except UnicodeDecodeError:
            raise  # not UTF-8: no number problem
        except ValueError as exc:
            raise NonFiniteSample("<unparseable>", -1) from exc
    if body.shape[1] != len(channels) + 1:
        raise MissingChannel(f"<expected {len(channels) + 1} columns, got {body.shape[1]}>", path)

    t = body[:, 0]
    samples = body[:, 1:]

    bad = ~np.isfinite(samples)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise NonFiniteSample(channels[col][0], int(row))
    if not np.isfinite(t).all():
        raise NonFiniteSample("time_s", int(np.argwhere(~np.isfinite(t))[0][0]))

    if len(t) < 2:
        dt = 1.0  # single sample: dt undefined, pick a harmless placeholder
    else:
        steps = np.diff(t)
        dt = float(np.median(steps))
        if dt <= 0:
            raise NonUniformSampling(int(np.argmin(steps)) + 1, dt, float(steps.min()))
        off = np.abs(steps - dt) > _DT_RTOL * dt
        if off.any():
            row = int(np.argwhere(off)[0][0]) + 1
            raise NonUniformSampling(row, dt, float(steps[row - 1]))
        # snap to the step that reconstructs the parsed column best; grids
        # written by save_timeseries then round-trip to identical bytes
        k = np.arange(len(t))
        candidates = (float(f"{dt:.12g}"), dt, (float(t[-1]) - float(t[0])) / (len(t) - 1))
        dt = min(candidates,
                 key=lambda c: float(np.max(np.abs(t[0] + c * k - t))))

    if schema is not None:
        names = [name for name, _ in channels]
        for name, _unit in schema:
            if name not in names:
                raise MissingChannel(name, path)

    return TimeSeries(float(t[0]), dt, tuple(channels), samples)


def _format_rows(block) -> str:
    """CSV text of a 2-D block: the bytes ``np.savetxt(fmt="%.17g")`` writes."""
    row_fmt = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return (row_fmt * block.shape[0]) % tuple(block.ravel().tolist())


def _pool_workers(n_blocks) -> int:
    """Worker processes for formatting ``n_blocks``; 0 means in-process.

    A pool pays off only where workers are forked (a spawned one would
    import numpy first) and at least two CPUs and blocks are available.
    It is used only from a process with one thread: a forked child gets no
    copy of the other threads, only of the locks they may hold.
    """
    method = (multiprocessing.get_start_method(allow_none=True)
              or multiprocessing.get_all_start_methods()[0])
    if (method != "fork" or threading.active_count() > 1
            or not hasattr(os, "sched_getaffinity")):
        return 0
    workers = min(len(os.sched_getaffinity(0)), n_blocks)
    return workers if workers >= 2 else 0


def save_timeseries(ts: TimeSeries, path) -> None:
    """Write the CSV interchange format with full round-trip precision.

    Rows are formatted in blocks of ``_BLOCK_ROWS``, by a process pool that
    lives only for this call when ``_pool_workers`` allows one, and written
    in order.  A worker that dies is reported as an OSError naming the file.
    """
    header = "time_s," + ",".join(f"{n}[{u}]" for n, u in ts.channels)
    data = np.column_stack([ts.time(), ts.samples])
    blocks = [data[i:i + _BLOCK_ROWS] for i in range(0, len(data), _BLOCK_ROWS)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        workers = _pool_workers(len(blocks))
        if not workers:
            fh.writelines(map(_format_rows, blocks))
            return
        try:
            with ProcessPoolExecutor(
                    workers, mp_context=multiprocessing.get_context("fork")) as pool:
                fh.writelines(pool.map(_format_rows, blocks))
        except BrokenProcessPool as exc:
            raise OSError(f"cannot write {path}: a formatting worker "
                          f"process ended abruptly") from exc


def save_json(obj, path) -> None:
    """Write a JSON artifact; sorted keys make equal content equal bytes."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


# -- resampling ----------------------------------------------------------


def resample(ts: TimeSeries, new_dt: float) -> TimeSeries:
    """Resample onto a new uniform grid, anti-alias filtering on decimation.

    The new grid starts at the same start_time and spans the same duration
    to within one output sample. Channel names and units are unchanged.
    """
    if new_dt <= 0:
        raise InvalidRate(f"new_dt must be positive, got {new_dt}")
    if abs(new_dt - ts.dt) <= 1e-12 * ts.dt:
        return ts

    t_old = ts.time()
    n_new = int(round(ts.duration / new_dt)) + 1
    t_new = ts.start_time + new_dt * np.arange(n_new)
    # guard the spline domain against round-off just past the last sample
    t_new = np.clip(t_new, t_old[0], t_old[-1])

    samples = ts.samples
    if new_dt > ts.dt and ts.n_samples > 24:
        # decimation: zero-phase low-pass at 80% of the new Nyquist
        fs_old = 1.0 / ts.dt
        cutoff = 0.8 * (0.5 / new_dt)
        if cutoff < 0.5 * fs_old:
            sos = butter(8, cutoff, fs=fs_old, output="sos")
            samples = sosfiltfilt(sos, samples, axis=0)

    k = 3 if ts.n_samples > 3 else 1
    spline = make_interp_spline(t_old, samples, k=k, axis=0)
    out = spline(t_new)
    return TimeSeries(ts.start_time, float(new_dt), ts.channels, out, dict(ts.meta))
