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
and rows appended to a save (``_Scope.append``) are formatted there while
the caller computes; the caller's thread writes each block, in order, at a
later append or flush once it is formatted, and ``save_timeseries`` returns
with its file complete.  A call made outside a scope has a scope of its
own.  The rows are formatted by a numpy kernel (``_format_rows``) whose
bytes equal those of ``'%.17g' %``.

The scope hashes each trace as it writes it: ``_Scope.digests`` maps each
complete file to the sha256 of its bytes, which a pipeline run records in
``report.json``.  ``load_timeseries`` given that digest and the channels a
caller reads parses only those columns of a file whose bytes match it; such
a file is exactly what ``save_timeseries`` wrote from a finite record, so
its other columns hold nothing left to check.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import itertools
import json
import multiprocessing
import os
import re
import threading
import warnings
from concurrent.futures import CancelledError, ProcessPoolExecutor
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
    RideComfortError,
)

_DT_RTOL = 1e-6
# Rows per block: of CSV rows formatted per task of the writer's pool, of a
# push of a run's chain, and of a chunk of simulate, perceive and accumulate.
# simulate's matrix products at this size run on one BLAS thread (8192 woke
# a spinning OpenBLAS worker on 2 cores).
_BLOCK_ROWS = 4096
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
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(samples.sum())  # no whole-record mask
        if not finite and (bad := np.argwhere(~np.isfinite(samples))).size:
            row, col = bad[0]
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

    def rows(self, start, stop=None) -> "TimeSeries":
        """Rows ``start:stop`` as a record on the same grid, sharing samples."""
        return TimeSeries(self.start_time + start * self.dt, self.dt, self.channels,
                          self.samples[start:stop])

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
    them (the non-blank lines after the header that do not start with
    ``#``, which ``np.loadtxt`` skips as comments), streamed in pieces
    without parsing a number."""
    with open(path, "rb") as fh:
        if _next_row(fh) is None:
            return 0
        return sum(not row.startswith("#")
                   for chunk in _chunks(fh) for row in _rows(chunk))


def _next_row(fh):
    """The next non-blank line of a binary file, or None at its end."""
    while raw := fh.readline():
        if rows := _rows(raw):
            return rows[0]
    return None


def _spans(fh, digest=None):
    """The (lo, hi) byte bounds of the rest of a binary file's ``_chunks``,
    and the number of LFs they hold; ``digest``, if given, is updated with
    their bytes."""
    spans, lfs, lo = [], 0, fh.tell()
    for chunk in _chunks(fh):
        if digest is not None:
            digest.update(chunk)
        lfs += chunk.count(b"\n")
        spans.append((lo, lo + len(chunk)))
        lo += len(chunk)
    return spans, lfs


def _parse_span(path, lo, hi, usecols=None) -> np.ndarray:
    """The data rows in bytes [lo, hi) of a CSV, parsed by ``np.loadtxt``:
    all their columns, or the ``usecols`` ones in that order."""
    with open(path, "rb") as fh:
        fh.seek(lo)
        lines = _rows(fh.read(hi - lo))
    if not lines:
        return np.empty((0, 1))  # what np.loadtxt gives, without its warning
    with warnings.catch_warnings():  # all lines may be comments
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, delimiter=",", ndmin=2, usecols=usecols)


def _parse_data(path, spans, max_rows, usecols=None) -> np.ndarray:
    """The data rows of all spans (their ``usecols`` columns, if given),
    copied in order into one array as each span's rows arrive, so no
    span's array outlives its copy."""
    body, n = None, 0
    extra = () if usecols is None else (usecols,)
    with _write_behind() as scope:
        parts = scope.results(_parse_span,
                              [(path, lo, hi) + extra for lo, hi in spans],
                              "read", path)
        for part in filter(len, parts):  # skip spans without data rows
            if body is None:
                body = np.empty((max_rows, part.shape[1]))
            elif part.shape[1] != body.shape[1]:
                raise ValueError("the number of columns changed between spans")
            body[n:n + len(part)] = part
            n += len(part)
    return np.empty((0, 1)) if body is None else body[:n]


def _projection(channels, wanted):
    """Column numbers (``time_s`` is 0) of the ``wanted`` channel names, or
    None when they would drop no column of ``channels`` or are not all
    among them."""
    names = [name for name, _ in channels]
    if not set(wanted) <= set(names) or set(names) <= set(wanted):
        return None
    return [0] + [names.index(name) + 1 for name in wanted]


def load_timeseries(path, schema=None, *, channels=None, sha256=None) -> TimeSeries:
    """Read and validate a TimeSeries CSV.

    `schema`, when given, is an iterable of (name, unit) pairs that must all
    be present (extra file channels are kept). dt is inferred from the time
    column, so at least 2 sample rows are needed, and must be uniform within
    a relative tolerance of 1e-6.

    `channels` (names) and `sha256` (a hex digest, as ``report.json``
    records it) together ask for a projected load: when the file's bytes
    hash to `sha256`, only ``time_s`` and the named columns are parsed and
    the record holds just those channels, in that order.  In every other
    case (no digest, another digest, a channel the file lacks, nothing to
    drop) the whole file is parsed and checked, and every channel returned.

    Data rows are parsed in spans of about ``_READ_SPAN_BYTES`` on the
    pool of the open ``_write_behind`` scope; a worker that dies is an
    OSError naming the file.
    """
    with open(path, "rb") as fh:
        header = _next_row(fh)
        if header is None:
            raise EmptyFile(f"{path} is empty")
        channels_in_file = _parse_header(header.split(","), path)
        start = fh.tell()
        if _next_row(fh) is None:
            raise EmptyFile(f"{path} has a header but no samples")
        usecols = digest = None
        if channels is not None and sha256 is not None:
            usecols = _projection(channels_in_file, channels)
        if usecols is not None:  # hash the header now, the rest with _spans
            fh.seek(0)
            digest = hashlib.sha256(fh.read(start))
        fh.seek(start)
        spans, lfs = _spans(fh, digest)
    if digest is not None and digest.hexdigest() == sha256:
        kept = [channels_in_file[col - 1] for col in usecols[1:]]
    else:
        usecols, kept = None, channels_in_file
    try:
        body = _parse_data(path, spans, lfs + 1, usecols)  # at most a row per line
    except UnicodeDecodeError:
        raise  # not UTF-8: no number problem
    except ValueError as exc:
        raise NonFiniteSample("<unparseable>", -1) from exc
    if not len(body):  # every line after the header is a comment
        raise EmptyFile(f"{path} has a header but no samples")
    if body.shape[1] != len(kept) + 1:
        raise MissingChannel(f"<expected {len(kept) + 1} columns, got {body.shape[1]}>", path)

    t = body[:, 0]
    samples = body[:, 1:]

    bad = ~np.isfinite(samples)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise NonFiniteSample(kept[col][0], int(row))
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
        names = [name for name, _ in channels_in_file]
        for name, _unit in schema:
            if name not in names:
                raise MissingChannel(name, path)

    return TimeSeries(float(t[0]), dt, tuple(kept), samples)


# -- the row formatter ---------------------------------------------------
#
# '%.17g' prints a nonzero x from its 17 significant digits: the integer
# D = |x| * 10**(16 - k), rounded half to even, where 10**k <= |x| < 10**(k+1)
# (k + 1 once D rounds up to 10**17).  For 1e-11 < |x| < 1e16, k lies in
# [-11, 15], so 5**(16 - k) < 2**63 and D is exact in uint64 arithmetic:
# |x| = m * 2**(e - 1075) with a 53-bit m, and D is the 128-bit product
# m * 5**(16 - k) shifted right by 1075 - e - (16 - k) bits, fewer than 64
# (a left shift for |x| above about 3e15).  The text is then laid out as %g
# does: fixed notation for -4 <= k <= 15, d.ddde-XX below, trailing zeros
# stripped.  Other values are rare in a trace and go through '%.17g' itself.

_FORMAT_VALUES = 1 << 14  # values formatted per pass of the kernel
_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_POW5 = np.array([5 ** p for p in range(28)], dtype=np.uint64)


def _quad_tables():
    """The 4 ASCII digits of each of 0..9999 as one uint32, and how many
    of them there are up to the last nonzero one."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    text = (digits + 48).astype(np.uint8).view(np.uint32).ravel()
    return text, np.where(digits > 0, np.arange(1, 5), 0).max(axis=1)


_QUADS, _QUAD_LEN = _quad_tables()

# Each value owns one row of _ROW bytes; the masks keep its text's bytes.
_TEMPLATE = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b"e-00,",
                          dtype=np.uint8)
_ROW = _TEMPLATE.size
_INT, _FRAC, _EXP = 6, 24, 41  # the two digit copies and the exponent
_SEP = _ROW - 1
_ZERO = 27  # the class of 0.0 and -0.0; classes 0..26 are k + 11


def _layouts():
    """Mask rows indexed by ``(class * 18 + nd) * 2 + negative``, where nd
    is the number of significant digits left once trailing zeros go."""
    masks = np.zeros((28, 18, 2, _ROW), dtype=bool)
    masks[..., _SEP] = True
    masks[..., 1, 0] = True  # the sign
    for nd in range(1, 18):
        for k in range(-11, 16):
            m = masks[k + 11, nd, :]
            if k >= 0:  # ddd.ddd: integer digits, point, fraction digits
                m[:, _INT:_INT + k + 1] = True
                if nd > k + 1:
                    m[:, _FRAC - 1] = True
                    m[:, _FRAC + k + 1:_FRAC + nd] = True
            elif k >= -4:  # 0.000ddd
                m[:, 1:3] = True
                m[:, _INT - (-k - 1):_INT + nd] = True
            else:  # d.ddde-XX
                m[:, _INT] = True
                if nd > 1:
                    m[:, _FRAC - 1] = True
                    m[:, _FRAC + 1:_FRAC + nd] = True
                m[:, _EXP:_EXP + 4] = True
    masks[_ZERO, :, :, 0] = False  # zeros are printed as "-0" before _SEP
    masks[_ZERO, :, 0, _SEP - 1] = True
    masks[_ZERO, :, 1, _SEP - 2:_SEP] = True
    return masks.reshape(-1, _ROW)


_MASKS = _layouts()
_EXP_DIGITS = np.array(  # the two ASCII digits of -k, for k < 0
    [[48 + (-k) // 10, 48 + (-k) % 10] for k in range(-11, 0)]
    + [[48, 48]] * 16, dtype=np.uint8)


def _scaled(m, e, k):
    """floor(m * 2**(e - 1075) * 10**(16 - k)), and the bits shifted out
    below it, left-aligned in a uint64 (0 when none are)."""
    p = 16 - k
    b = _POW5[p]
    b0, b1 = b & _LOW32, b >> _U64(32)
    a0, a1 = m & _LOW32, m >> _U64(32)
    low = a0 * b0
    mid1 = a1 * b0 + (low >> _U64(32))
    mid2 = a0 * b1 + (mid1 & _LOW32)
    hi = a1 * b1 + (mid1 >> _U64(32)) + (mid2 >> _U64(32))
    lo = m * b  # the product's low 64 bits
    shift = _U64(1075) - e - p.astype(np.uint64)  # wraps where it is <= 0
    left = _U64(64) - shift
    t, below = (hi << left) | (lo >> shift), lo << left
    exact = np.flatnonzero(shift - _U64(1) > _U64(62))  # |x| >= ~3e15
    t[exact] = lo[exact] << -shift[exact]
    below[exact] = 0
    return t, below


def _digits(a):
    """(D, k) of positive floats in (1e-11, 1e16): the 17 significant
    digits of each as an integer in [1e16, 1e17), and its exponent."""
    bits = a.view(np.uint64)
    m = (bits & _U64((1 << 52) - 1)) | _U64(1 << 52)
    e = bits >> _U64(52)
    k = np.clip(np.floor(np.log10(a)), -11, 15).astype(np.intp)
    t, below = _scaled(m, e, k)
    while True:  # log10 can miss k by one next to a power of ten
        off = (t < _U64(10 ** 16)).astype(np.intp) - (t >= _U64(10 ** 17))
        fix = np.flatnonzero(off)
        if not fix.size:
            break
        k[fix] -= off[fix]
        t[fix], below[fix] = _scaled(m[fix], e[fix], k[fix])
    half = _U64(1 << 63)
    d = t + ((below | (t & _U64(1))) > half)  # half to even
    carry = np.flatnonzero(d == _U64(10 ** 17))
    d[carry] = _U64(10 ** 16)
    k[carry] += 1
    return d, k


def _format_values(block) -> np.ndarray:
    """The ASCII bytes of ``_format_rows`` for a float64 block."""
    x = block.ravel()
    a = np.abs(x)
    negative = np.signbit(x)
    fast = (a > 1e-11) & (a < 1e16)
    picked = None if fast.all() else np.flatnonzero(fast)
    d, k = _digits(a if picked is None else a[picked])
    n = d.size
    lead = d // _U64(10 ** 16)
    rest = d - lead * _U64(10 ** 16)
    hi8 = (rest // _U64(10 ** 8)).astype(np.uint32)
    lo8 = (rest - hi8 * _U64(10 ** 8)).astype(np.uint32)
    quads = np.empty((n, 4), dtype=np.uint32)
    quads[:, 0] = hi8 // 10000
    quads[:, 1] = hi8 - quads[:, 0] * 10000
    quads[:, 2] = lo8 // 10000
    quads[:, 3] = lo8 - quads[:, 2] * 10000
    nd = _QUAD_LEN[quads[:, 3]] + 13
    short = np.flatnonzero(nd == 13)
    if short.size:  # the last quad is 0000: look further left
        lens = _QUAD_LEN[quads[short, :3]]
        nds = np.ones(short.size, dtype=np.intp)
        for i in range(3):
            nds = np.where(lens[:, i] > 0, lens[:, i] + 1 + 4 * i, nds)
        nd[short] = nds

    # rows 0..n-1 hold the fast values, rows n and n+1 hold 0 and -0
    key = np.empty(n + 2, dtype=np.intp)
    key[:n] = ((k + 11) * 18 + nd) * 2
    key[:n] += negative if picked is None else negative[picked]
    key[n:] = (_ZERO * 18 + 1) * 2 + np.arange(2)
    masks = _MASKS.take(key, axis=0)
    grid = np.empty((n + 2, _ROW), dtype=np.uint8)
    grid[:] = _TEMPLATE
    grid[:n, _INT] = lead.astype(np.uint8) + 48
    grid[:n, _INT + 1:_INT + 17] = _QUADS[quads].view(np.uint8)
    grid[:n, _FRAC:_FRAC + 17] = grid[:n, _INT:_INT + 17]
    grid[:n, _EXP + 2:_EXP + 4] = _EXP_DIGITS[k + 11]
    grid[n + 1, _SEP - 2] = ord("-")
    if picked is None:
        grid, masks = grid[:n], masks[:n]
    else:  # spread the rows back out; the other values get a zero's row
        rows = np.cumsum(fast) - 1
        np.copyto(rows, n + negative, where=~fast)
        grid = grid.view(f"V{_ROW}").ravel().take(rows).view(np.uint8)
        masks = masks.view(f"V{_ROW}").ravel().take(rows).view(bool)
        grid, masks = grid.reshape(-1, _ROW), masks.reshape(-1, _ROW)
    grid.reshape(block.shape + (_ROW,))[:, -1, _SEP] = ord("\n")
    for i in np.flatnonzero(~fast & (a != 0)):
        text = np.frombuffer(b"%.17g" % float(x[i]), dtype=np.uint8)
        grid[i, :text.size] = text
        grid[i, text.size] = grid[i, _SEP]
        masks[i] = np.arange(_ROW) <= text.size
    return grid.ravel()[masks.ravel()]


def _format_rows(block) -> str:
    """CSV text of a 2-D block, byte for byte what
    ``(row_fmt * rows) % tuple(block.ravel().tolist())`` gives with ``%.17g``
    cells (and ``np.savetxt(fmt="%.17g")`` writes), formatted in numpy."""
    block = np.asarray(block, dtype=np.float64)
    rows, cols = block.shape
    if not block.size:
        return "" if cols else "\n" * rows
    step = max(1, _FORMAT_VALUES // cols)
    return b"".join(_format_values(block[i:i + step]).tobytes()
                    for i in range(0, rows, step)).decode("ascii")


def _format_block(samples, start_time, dt, first_row) -> bytes:
    """The bytes a trace file holds for its sample rows ``samples``, which
    start at row ``first_row`` of a record starting at ``start_time``."""
    time = start_time + dt * np.arange(first_row, first_row + len(samples))
    return _format_rows(np.column_stack([time, samples])).encode("ascii")


def _pool_workers(n_tasks) -> int:
    """Worker processes for ``n_tasks`` pool tasks; 0 means in-process.

    A pool pays off only where workers can be forked (a spawned one would
    import numpy first; the pool asks for the fork start method whatever
    the default is) and at least two CPUs and tasks are available.  It is
    used only from a process with one thread: a forked child gets no copy
    of the other threads, only of the locks they may hold.
    """
    if ("fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1 or not hasattr(os, "sched_getaffinity")):
        return 0
    workers = min(len(os.sched_getaffinity(0)), n_tasks)
    return workers if workers >= 2 else 0


class _FileError(OSError):
    """A save or load that failed in a ``_write_behind`` scope; ``path``
    names its file."""

    def __init__(self, verb, path, reason):
        super().__init__(f"cannot {verb} {path}: {reason}")
        self.path = Path(path)

    # picklable like the StageError it becomes the cause of
    __reduce__ = RideComfortError.__reduce__


_DEAD = "a worker process ended abruptly"


def _write_hashed(fh, digest, data):
    """Write ``data`` to ``fh`` and add it to the file's running ``digest``."""
    fh.write(data)
    digest.update(data)


@dataclass(eq=False)
class _Save:
    """A trace file being written: its open file, its running sha256,
    whether rows may still follow, and the error that stopped its writes."""

    path: Path
    fh: object
    digest: object
    done: bool = False
    error: Exception | None = None


# queued blocks per worker a scope lets its saves have at a time; on 2
# cores, 3 or more let a curved run's rows held for the pool grow its heap
# by about 10 MB
_BLOCKS_IN_FLIGHT = 2
# a trace of fewer channels is formatted in-process even beside a pool: a
# block of 2 values per row costs more to hand to a worker (the pool's
# thread pickles it and reads the result back, under the interpreter lock)
# than to format; a curved run took about 10% longer with its two
# 1-channel traces on the pool
_POOL_MIN_CHANNELS = 2


class _Scope:
    """One fork pool for the saves and loads of a ``_write_behind`` scope,
    the saves not yet complete, and the sha256 of each file saved complete.

    The pool is opened by the first save or load large enough that
    ``_pool_workers`` allows one, and serves every later call; without
    it, each call does its work in-process, in order.  A save is opened
    with its header (``open``), handed its rows a chunk at a time
    (``append``) and told that no more follow (``done``).  With the pool,
    the blocks of every save wait in one queue in submission order, and
    the thread that owns the scope writes and hashes those at its head
    that are formatted, at each append and flush; at most
    ``_BLOCKS_IN_FLIGHT`` per worker wait, so an append waits for the
    oldest rather than holding a record's rows.  A failed block stops its
    save's writes and puts the save on ``failed``, in queue order.
    """

    def __init__(self):
        self.pool = None
        self.in_flight = 0  # blocks the queue may hold, once the pool is open
        self.queue = collections.deque()  # (save, future) of each unwritten block
        self.saves = []  # _Save of each file not yet complete, in save order
        self.failed = []  # _Save of each failed write, in queue order
        self.digests = {}  # Path of a complete file -> sha256 hex digest

    def _pool_for(self, n_tasks):
        """The pool, opened now when none is and ``n_tasks`` allow one."""
        if self.pool is None and (workers := _pool_workers(n_tasks)):
            self.pool = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"))
            self.in_flight = _BLOCKS_IN_FLIGHT * workers
        return self.pool

    def start(self, rows):
        """Open the pool for traces of about ``rows`` rows now, when they
        will use one, and fork its workers, so they share none of the
        records the caller makes next."""
        if self.pool is None and self._pool_for(-(-rows // _BLOCK_ROWS)) is not None:
            self.pool.submit(int)  # the pool forks its workers at its first task

    def _submit(self, fn, task, verb, path):
        try:
            return self.pool.submit(fn, *task)
        except BrokenProcessPool as exc:
            raise self.dead(verb, path) from exc

    def dead(self, verb, path) -> _FileError:
        """The OSError of a broken pool, named after the save of the oldest
        block it failed, or else after ``path``."""
        self.flush(wait=True)  # raises for such a save
        return _FileError(verb, path, _DEAD)

    def _write(self, save, rows):
        """Write and hash ``rows()``, the bytes of ``save``'s next block, and
        close the file after its last; a failure stops the save's writes,
        and the blocks of a stopped save are skipped."""
        if save.error is not None:
            return
        try:
            _write_hashed(save.fh, save.digest, rows())
        except Exception as exc:  # raised by append or flush
            save.error = exc
            self.failed.append(save)
        else:
            self._finish(save)

    def _drain(self, keep):
        """Write the formatted blocks at the head of the queue, in order,
        waiting for the oldest while more than ``keep`` are queued."""
        while self.queue and (len(self.queue) > keep or self.queue[0][1].done()):
            save, future = self.queue.popleft()
            self._write(save, future.result)

    def _finish(self, save):
        """Close and hash ``save``'s file once its last block is written."""
        if (save.done and save.error is None and save in self.saves
                and all(queued is not save for queued, _ in self.queue)):
            save.fh.close()
            self.digests[save.path] = save.digest.hexdigest()
            self.saves.remove(save)

    def flush(self, wait=False):
        """Write the formatted blocks at the head of the queue, with ``wait``
        every queued block, then raise the error of the earliest failed
        block's save (where a dead worker failed every block in flight, the
        oldest of them), if any."""
        self._drain(0 if wait else len(self.queue))
        if self.failed:
            self._raise(self.failed[0])

    @staticmethod
    def _raise(save):
        error = save.error
        if isinstance(error, (BrokenProcessPool, CancelledError)):
            raise _FileError("write", save.path, _DEAD) from error
        if isinstance(error, OSError):
            raise _FileError("write", save.path, error) from error
        raise error  # what the worker raised

    def open(self, path, header, rows) -> _Save:
        """Open ``path`` and write ``header`` for a trace of about ``rows``
        sample rows, which decide, as for a load, whether the pool opens."""
        self.flush()
        self._pool_for(-(-rows // _BLOCK_ROWS))
        save = _Save(Path(path), open(path, "wb"), hashlib.sha256())
        try:
            _write_hashed(save.fh, save.digest, (header + "\n").encode("utf-8"))
        except BaseException:
            save.fh.close()
            raise
        self.saves.append(save)
        return save

    def append(self, save, samples, start_time, dt, first_row):
        """Write the sample rows ``samples``, rows ``first_row`` on of a
        record starting at ``start_time``, in blocks of ``_BLOCK_ROWS``
        queued for the pool, or now without it, as for a trace of fewer
        than ``_POOL_MIN_CHANNELS`` channels; each block first writes the
        queue's formatted head (``_drain``).  The pool's tasks hold views of
        ``samples``, which must not change until they are written.  Raises
        for a failed write of this save; another save's failure is raised
        by its own next append, or by a later open, load or flush."""
        pooled = self.pool is not None and samples.shape[1] >= _POOL_MIN_CHANNELS
        for i in range(0, len(samples), _BLOCK_ROWS):
            block = (samples[i:i + _BLOCK_ROWS], start_time, dt, first_row + i)
            self._drain(self.in_flight - 1 if pooled else len(self.queue))
            if save.error is not None:
                break
            if pooled:
                self.queue.append((save, self._submit(_format_block, block, "write",
                                                      save.path)))
            else:
                self._write(save, lambda: _format_block(*block))
        if save.error is not None:
            self.flush()  # raises the earliest failure, which may be a dead worker's

    def done(self, save):
        """No rows follow: the file is complete, and hashed, once its last
        block is written (now, when none is queued)."""
        save.done = True
        self._finish(save)

    def discard(self, save):
        """Drop ``save``: its queued blocks go unwritten, and its file is
        closed and removed."""
        for saves in (self.saves, self.failed):
            if save in saves:
                saves.remove(save)
        save.error = save.error or CancelledError()
        save.fh.close()
        self.digests.pop(save.path, None)
        save.path.unlink(missing_ok=True)

    def results(self, fn, tasks, verb, path):
        """``fn(*task)`` for each task, in order, as each is needed."""
        self.flush()
        if self._pool_for(len(tasks)) is None:
            yield from itertools.starmap(fn, tasks)
            return
        futures = [self._submit(fn, task, verb, path) for task in tasks]
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
        for save in self.saves:
            with contextlib.suppress(OSError):
                save.fh.close()


_open_scope = threading.local()  # .scope: this thread's _Scope, if any


@contextlib.contextmanager
def _write_behind():
    """Yield this thread's open ``_Scope``, or a new one for the block.

    Inside it an append returns once its blocks are submitted, and each
    block is written at a later append or flush once it and the blocks
    queued before it are formatted; a later save or load first raises for
    a save whose writes failed.  A new scope writes every queued block at
    its end, also when the block raised, so earlier saves are complete
    before the error propagates; no worker outlives it.
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


def trace_header(channels) -> str:
    """The header line of a trace file with these (name, unit) channels."""
    return "time_s," + ",".join(f"{n}[{u}]" for n, u in channels)


def save_timeseries(ts: TimeSeries, path) -> None:
    """Write the CSV interchange format with full round-trip precision.

    Rows are formatted in blocks of ``_BLOCK_ROWS`` on the pool of the open
    ``_write_behind`` scope and written in order; an unwritable path is an
    OSError, and a worker that dies is an OSError naming the file.  The
    file is complete when this returns, and the scope's ``digests`` hold
    its sha256.
    """
    with _write_behind() as scope:
        save = scope.open(path, trace_header(ts.channels), ts.n_samples)
        scope.append(save, ts.samples, ts.start_time, ts.dt, 0)
        scope.done(save)
        scope.flush(wait=True)


def save_json(obj, path) -> None:
    """Write a JSON artifact; sorted keys make equal content equal bytes."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
