"""Uniformly sampled multi-channel signals and their CSV interchange format.

The CSV layout is the interchange format between pipeline stages: first
column ``time_s``, remaining header cells ``name[unit]`` (for example
``seat_acc_x[m/s^2]``), comma separated, decimal point, UTF-8, LF or CRLF.
JSON artifacts (summaries and reports) are written by ``save_json``.

``save_timeseries`` formats the rows of a long trace, and ``load_timeseries``
parses the data rows of a long file in spans, in worker processes where the
platform forks them (Linux); elsewhere both work in-process, and the bytes
written and the values read are the same either way.  The workers belong to
a scope (``_write_behind``): one pool serves every save and load made in it,
and a save returns once its rows are handed to the pool, so they are
formatted while the caller computes; its file is complete at the end of the
scope.  A call made outside a scope has a scope of its own.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import json
import multiprocessing
import os
import re
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    EmptyFile,
    InvalidRate,
    MissingChannel,
    NonFiniteSample,
    NonUniformSampling,
)

_DT_RTOL = 1e-6
_BLOCK_ROWS = 4096  # CSV rows formatted per task of the writer's pool
_READ_SPAN_BYTES = 1 << 19  # CSV bytes parsed per task of the reader's pool
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


def _rows(data: bytes) -> list[str]:
    """Non-blank lines of UTF-8 CSV bytes, each without its LF or CRLF end:
    the line rule of the reader and of count_samples."""
    return [ln.removesuffix("\r") for ln in data.decode("utf-8").split("\n")
            if ln.strip()]


def _chunks(fh):
    """The rest of a binary file in pieces of about ``_READ_SPAN_BYTES``,
    each ending just after an LF or at the end of the file."""
    while chunk := fh.read(_READ_SPAN_BYTES) + fh.readline():
        yield chunk


def count_samples(path) -> int:
    """Sample rows of a TimeSeries CSV, counted as ``load_timeseries`` reads
    them (the non-blank lines after the header), streamed in pieces
    without parsing a number."""
    with open(path, "rb") as fh:
        lines = sum(len(_rows(chunk)) for chunk in _chunks(fh))
    return max(lines - 1, 0)


def _next_row(fh):
    """The next non-blank line of a binary file, or None at its end."""
    while raw := fh.readline():
        if rows := _rows(raw):
            return rows[0]
    return None


def _spans(fh):
    """The (lo, hi) byte bounds of the rest of a binary file's ``_chunks``,
    and the number of LFs they hold."""
    spans, lfs, lo = [], 0, fh.tell()
    for chunk in _chunks(fh):
        lfs += chunk.count(b"\n")
        spans.append((lo, lo + len(chunk)))
        lo += len(chunk)
    return spans, lfs


def _parse_span(path, lo, hi) -> np.ndarray:
    """The data rows in bytes [lo, hi) of a CSV, parsed by ``np.loadtxt``."""
    with open(path, "rb") as fh:
        fh.seek(lo)
        lines = _rows(fh.read(hi - lo))
    if not lines:
        return np.empty((0, 1))  # what np.loadtxt gives, without its warning
    with warnings.catch_warnings():  # all lines may be comments
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, delimiter=",", ndmin=2)


def _parse_data(path, spans, max_rows) -> np.ndarray:
    """The data rows of all spans, copied in order into one array as each
    span's rows arrive, so no span's array outlives its copy."""
    body, n = None, 0
    with _write_behind() as scope:
        parts = scope.results(_parse_span, [(path, lo, hi) for lo, hi in spans],
                              "read", path)
        for part in filter(len, parts):  # skip spans without data rows
            if body is None:
                body = np.empty((max_rows, part.shape[1]))
            elif part.shape[1] != body.shape[1]:
                raise ValueError("the number of columns changed between spans")
            body[n:n + len(part)] = part
            n += len(part)
    return np.empty((0, 1)) if body is None else body[:n]


def load_timeseries(path, schema=None) -> TimeSeries:
    """Read and validate a TimeSeries CSV.

    `schema`, when given, is an iterable of (name, unit) pairs that must all
    be present (extra file channels are kept). dt is inferred from the time
    column, so at least 2 sample rows are needed, and must be uniform within
    a relative tolerance of 1e-6.

    Data rows are parsed in spans of about ``_READ_SPAN_BYTES`` on the
    pool of the open ``_write_behind`` scope; a worker that dies is an
    OSError naming the file.
    """
    with open(path, "rb") as fh:
        header = _next_row(fh)
        if header is None:
            raise EmptyFile(f"{path} is empty")
        channels = _parse_header(header.split(","), path)
        start = fh.tell()
        if _next_row(fh) is None:
            raise EmptyFile(f"{path} has a header but no samples")
        fh.seek(start)
        spans, lfs = _spans(fh)
    try:
        body = _parse_data(path, spans, lfs + 1)  # at most a row per line
    except UnicodeDecodeError:
        raise  # not UTF-8: no number problem
    except ValueError as exc:
        raise NonFiniteSample("<unparseable>", -1) from exc
    if not len(body):  # every line after the header is a comment
        raise EmptyFile(f"{path} has a header but no samples")
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
        raise InvalidRate(f"{path} has 1 sample row; a sample step needs at least 2")
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


def _pool_workers(n_tasks) -> int:
    """Worker processes for ``n_tasks`` pool tasks; 0 means in-process.

    A pool pays off only where workers are forked (a spawned one would
    import numpy first) and at least two CPUs and tasks are available.
    It is used only from a process with one thread: a forked child gets no
    copy of the other threads, only of the locks they may hold.
    """
    method = (multiprocessing.get_start_method(allow_none=True)
              or multiprocessing.get_all_start_methods()[0])
    if (method != "fork" or threading.active_count() > 1
            or not hasattr(os, "sched_getaffinity")):
        return 0
    workers = min(len(os.sched_getaffinity(0)), n_tasks)
    return workers if workers >= 2 else 0


class _FileError(OSError):
    """A save or load that failed in a ``_write_behind`` scope; ``path``
    names its file."""

    def __init__(self, verb, path, reason):
        super().__init__(f"cannot {verb} {path}: {reason}")
        self.path = Path(path)


_DEAD = "a worker process ended abruptly"


class _Scope:
    """One fork pool for the saves and loads of a ``_write_behind`` scope,
    and the saves whose formatted blocks are not yet written.

    The pool is opened at the first call with 2+ tasks that
    ``_pool_workers`` allows and serves every later call; without it, each
    call does its tasks in-process, in order.
    """

    def __init__(self):
        self.pool = None
        self.saves = collections.deque()  # (path, open file, block futures)

    def submit(self, fn, tasks, verb, path):
        """Futures of ``fn(*task)`` for each task, or None without a pool."""
        if self.pool is None:
            workers = _pool_workers(len(tasks))
            if not workers:
                return None
            self.pool = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"))
        try:
            return [self.pool.submit(fn, *task) for task in tasks]
        except BrokenProcessPool as exc:
            raise self.dead(verb, path) from exc

    def dead(self, verb, path) -> _FileError:
        """The OSError of a broken pool, named after the first unwritten
        save that lost a block, or else after ``path``."""
        self.flush(wait=True)  # raises for such a save
        return _FileError(verb, path, _DEAD)

    def flush(self, wait=False):
        """Write the formatted blocks of unwritten saves, in order, and
        close each file that is complete; with ``wait``, all of them."""
        while self.saves:
            path, fh, futures = self.saves[0]
            try:
                while futures and (wait or futures[0].done()):
                    fh.write(futures[0].result())
                    futures.popleft()
                if futures:
                    return
                fh.close()
            except BrokenProcessPool as exc:
                raise _FileError("write", path, _DEAD) from exc
            except OSError as exc:
                raise _FileError("write", path, exc) from exc
            self.saves.popleft()

    def save(self, path, header, blocks):
        """Open ``path`` and write ``header`` now; the blocks' rows follow in
        later calls and at the end of the scope, or now without a pool."""
        self.flush()
        fh = open(path, "w", encoding="utf-8", newline="\n")
        try:
            fh.write(header + "\n")
            futures = self.submit(_format_rows, blocks, "write", path)
        except BaseException:
            fh.close()
            raise
        if futures is None:
            with fh:
                fh.writelines(itertools.starmap(_format_rows, blocks))
        else:
            self.saves.append((path, fh, collections.deque(futures)))

    def results(self, fn, tasks, verb, path):
        """``fn(*task)`` for each task, in order, as each is needed."""
        self.flush()
        futures = self.submit(fn, tasks, verb, path)
        if futures is None:
            yield from itertools.starmap(fn, tasks)
            return
        for future in futures:
            try:
                result = future.result()
            except BrokenProcessPool as exc:
                raise self.dead(verb, path) from exc
            yield result

    def close(self):
        """Stop the pool and close the files an error left unwritten."""
        if self.pool is not None:
            self.pool.shutdown(cancel_futures=True)
        for _, fh, _ in self.saves:
            with contextlib.suppress(OSError):
                fh.close()


_open_scope = threading.local()  # .scope: this thread's _Scope, if any


@contextlib.contextmanager
def _write_behind():
    """Yield this thread's open ``_Scope``, or a new one for the block.

    Inside it a save returns once its blocks are submitted, and every
    later save or load first writes the blocks finished so far.  A new
    scope waits for all of them at its end, also when the block raised,
    so earlier saves are complete before the error propagates; no worker
    outlives it.  A file saved in a scope is complete only at its end.
    """
    scope = getattr(_open_scope, "scope", None)
    if scope is not None:
        yield scope
        return
    scope = _open_scope.scope = _Scope()
    try:
        yield scope
        scope.flush(wait=True)
    except Exception:
        with contextlib.suppress(OSError):  # the first error is the one to see
            scope.flush(wait=True)
        raise
    finally:
        _open_scope.scope = None
        scope.close()


def save_timeseries(ts: TimeSeries, path) -> None:
    """Write the CSV interchange format with full round-trip precision.

    Rows are formatted in blocks of ``_BLOCK_ROWS`` on the pool of the open
    ``_write_behind`` scope and written in order; an unwritable path is an
    OSError now, and a worker that dies is an OSError naming the file.
    """
    header = "time_s," + ",".join(f"{n}[{u}]" for n, u in ts.channels)
    data = np.column_stack([ts.time(), ts.samples])
    blocks = [(data[i:i + _BLOCK_ROWS],) for i in range(0, len(data), _BLOCK_ROWS)]
    with _write_behind() as scope:
        scope.save(path, header, blocks)


def save_json(obj, path) -> None:
    """Write a JSON artifact; sorted keys make equal content equal bytes."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
