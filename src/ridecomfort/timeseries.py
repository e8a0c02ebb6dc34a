"""Uniformly sampled multi-channel signals and their CSV interchange format.

The CSV layout is the interchange format between pipeline stages: first
column ``time_s``, remaining header cells ``name[unit]`` (for example
``seat_acc_x[m/s^2]``), comma separated, decimal point, UTF-8, LF or CRLF.
JSON artifacts (summaries and reports) are written by ``save_json``.

Traces are written in a scope (``_Scope``, a context manager): a
pipeline chain opens one for its run, and ``save_timeseries`` one for its
file.  The rows of a long trace of several channels are formatted in
worker processes where the platform forks them (Linux); elsewhere, and for
a trace of one channel, in-process, and the bytes written are the same
either way.  One pool, opened at the first save that formats on it,
serves every save of the scope, and rows appended to a save
(``_Scope.append``) are formatted there while the caller computes; the
caller's thread writes each block, in order, at a later append or at
``_Scope.wait`` once it is formatted.  A failed write stops only its own
save, and only that save's append or check raises it, as an OSError
naming the file that failed; leaving a scope raises nothing.  The rows are
formatted by a numpy kernel (``_format_rows``) whose bytes equal those of
``'%.17g' %``.  ``load_timeseries`` parses the data rows of a file in
pieces, in-process, and names the line and column of a cell it cannot
parse.

The scope hashes each trace as it writes it: ``_Scope.digests`` maps each
complete file to the sha256 of its bytes, which a pipeline run records in
``report.json``.  A trace opened with a twin (``_Scope.open``) is also
written as ``<stem>.npy`` (see "binary twins" below), and ``load_twin``
reads a trace from its twin, without parsing text, when both files match
the digests given for them; its records equal those of ``load_timeseries``.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import itertools
import json
import multiprocessing
import os
import re
import threading
import tokenize
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
    RideComfortError,
)

_DT_RTOL = 1e-6
# Rows per block: of CSV rows formatted per task of the writer's pool, of a
# push of a run's chain, and of a chunk of simulate, perceive and accumulate.
# simulate's matrix products at this size run on one BLAS thread (8192 woke
# a spinning OpenBLAS worker on 2 cores).
_BLOCK_ROWS = 4096
_READ_SPAN_BYTES = 1 << 19  # bytes per piece of a CSV parsed or a file hashed
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


def _parse_rows(data) -> np.ndarray:
    """The data rows in CSV bytes ``data``, parsed by ``np.loadtxt``."""
    lines = _rows(data)
    if not lines:
        return np.empty((0, 1))  # what np.loadtxt gives, without its warning
    with warnings.catch_warnings():  # all lines may be comments
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, delimiter=",", ndmin=2)


def _parse_data(fh, path, cells, max_rows) -> np.ndarray:
    """The data rows of the rest of the binary file ``path``, whose header
    cells are ``cells``, parsed a piece of ``_chunks`` at a time and copied
    in order into one array of ``max_rows`` rows, so no piece's array
    outlives its copy.  A piece that ``np.loadtxt`` cannot parse, or whose
    rows are not as wide as the header, is parsed again a line at a time
    (``_unparseable``)."""
    body, n = np.empty((max_rows, len(cells))), 0
    start = fh.tell()
    fh.seek(0)
    line = 1 + fh.read(start).count(b"\n")  # the 1-based file line of each piece
    for piece in _chunks(fh):
        try:
            part = _parse_rows(piece)
        except UnicodeDecodeError:
            raise  # not UTF-8: no number problem
        except ValueError:
            part = None
        if part is None or len(part) and part.shape[1] != len(cells):
            raise _unparseable(piece, line, path, cells)
        body[n:n + len(part)] = part
        n += len(part)
        line += piece.count(b"\n")
    return body[:n]


def _is_number(cell) -> bool:
    """Whether ``np.loadtxt`` reads the CSV cell ``cell`` as one number."""
    try:
        return _parse_rows(cell.encode("utf-8")).shape == (1, 1)
    except ValueError:
        return False


def _unparseable(piece, first, path, cells) -> RideComfortError:
    """The error of the first line of ``piece``, file line ``first`` on,
    that ``np.loadtxt`` cannot parse on its own or that is not as wide as
    the header ``cells``: it names the file's 1-based line, and the column
    and cell that is not a number or else the line's width."""
    for line, raw in enumerate(piece.split(b"\n"), first):
        try:
            row = _parse_rows(raw)
        except ValueError:
            values = raw.decode("utf-8").removesuffix("\r").split(",")
            bad = [i for i, value in enumerate(values) if not _is_number(value)]
            if len(values) == len(cells) and bad:
                return RideComfortError(f"{path} line {line}, column {cells[bad[0]].strip()}: "
                                        f"{values[bad[0]]!r} is not a number")
            width = len(values)
        else:
            if not len(row) or row.shape[1] == len(cells):
                continue
            width = row.shape[1]
        return RideComfortError(f"{path} line {line}: the header has {len(cells)} "
                                f"columns, this line {width}")
    return RideComfortError(f"{path}: cannot parse the rows from line {first}")


def _line_of(path, row) -> int:
    """The 1-based line of sample row ``row`` in the CSV ``path``, its lines
    numbered as ``_unparseable`` numbers them and its rows counted as
    ``count_samples`` counts them; the file is read again only to name a
    bad sample."""
    with open(path, "rb") as fh:
        lines = ((n, text) for n, raw in enumerate(fh, 1) for text in _rows(raw))
        next(lines)  # the header
        data = (n for n, text in lines if not text.startswith("#"))
        return next(itertools.islice(data, row, None))


def load_timeseries(path, schema=None) -> TimeSeries:
    """Read and validate a TimeSeries CSV.

    `schema`, when given, is an iterable of (name, unit) pairs that must all
    be present (extra file channels are kept). dt is inferred from the time
    column, so at least 2 sample rows are needed, and must be uniform within
    a relative tolerance of 1e-6.

    Data rows are parsed in-process in pieces of about ``_READ_SPAN_BYTES``.
    A cell that is not a number, or a row of another width than the
    header, is an error naming the file's line, and the cell's column; a
    non-finite sample names its channel, its row and its line.
    """
    with open(path, "rb") as fh:
        header = _next_row(fh)
        if header is None:
            raise EmptyFile(f"{path} is empty")
        channels = _parse_header(header.split(","), path)
        start = fh.tell()
        lfs = sum(chunk.count(b"\n") for chunk in _chunks(fh))
        fh.seek(start)
        body = _parse_data(fh, path, header.split(","), lfs + 1)  # at most a row per line
    if not len(body):  # every line after the header is blank or a comment
        raise EmptyFile(f"{path} has a header but no samples")
    return _checked(path, body, channels, channels, schema)


def _checked(path, body, channels, kept, schema=None) -> TimeSeries:
    """The record of ``body``, the time column and then the ``kept``
    channels of the trace file ``path``, whose channels are ``channels``,
    once its values, its sample step and ``schema`` pass the checks of a
    load, from the CSV or from its twin."""
    t = body[:, 0]
    samples = body[:, 1:]

    # no mask of the whole record unless a value is bad, and no temporary of
    # more than one column below
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(samples.sum())
    if not finite and (bad := np.argwhere(~np.isfinite(samples))).size:
        row, col = (int(i) for i in bad[0])
        raise NonFiniteSample(kept[col][0], row, path, _line_of(path, row))
    if not np.isfinite(t).all():
        row = int(np.argwhere(~np.isfinite(t))[0][0])
        raise NonFiniteSample("time_s", row, path, _line_of(path, row))

    if len(t) < 2:
        raise InvalidRate(f"{path} has 1 sample row; a sample step needs at least 2")
    steps = np.diff(t)
    dt = float(np.median(steps, overwrite_input=True))  # reorders steps
    np.subtract(t[1:], t[:-1], out=steps)  # np.diff(t) again
    if dt <= 0:
        raise NonUniformSampling(int(np.argmin(steps)) + 1, dt, float(steps.min()))
    steps -= dt
    off = np.abs(steps, out=steps) > _DT_RTOL * dt
    del steps
    if off.any():
        row = int(np.argmax(off)) + 1
        raise NonUniformSampling(row, dt, float(t[row] - t[row - 1]))
    # snap to the step that reconstructs the parsed column best; grids
    # written by save_timeseries then round-trip to identical bytes
    candidates = (float(f"{dt:.12g}"), dt, (float(t[-1]) - float(t[0])) / (len(t) - 1))
    dt = min(candidates, key=lambda c: _grid_error(t, c))

    if schema is not None:
        names = [name for name, _ in channels]
        for name, _unit in schema:
            if name not in names:
                raise MissingChannel(name, path)

    return TimeSeries(float(t[0]), dt, tuple(kept), samples)


def _grid_error(t, step) -> float:
    """max |t[0] + step * k - t| over the rows k of the time column ``t``,
    summed in place in one array."""
    grid = np.arange(len(t), dtype=np.float64)
    grid *= step
    grid += t[0]
    grid -= t
    return float(np.max(np.abs(grid, out=grid)))


# -- binary twins --------------------------------------------------------
#
# A trace that a stage reads back is written with a twin, ``<stem>.npy``:
# the same rows, time column first, as a float64 structured array whose
# field names are the CSV header cells, in exactly the bytes ``np.save``
# writes of it.  Its header is written when the trace is opened and its
# rows as the CSV's blocks are handed over, so it needs no pool.


def twin_path(path) -> Path:
    """The twin of the trace file ``path``."""
    return Path(path).with_suffix(".npy")


def _twin_header(cells, rows) -> bytes:
    """The .npy header ``np.save`` writes for ``rows`` rows of float64
    fields named ``cells``."""
    dtype = np.dtype([(cell, np.float64) for cell in cells])
    fh = io.BytesIO()
    np.lib.format.write_array_header_1_0(fh, {
        "descr": np.lib.format.dtype_to_descr(dtype),
        "fortran_order": False, "shape": (rows,)})
    return fh.getvalue()


def _twin_rows(samples, start_time, dt, first_row) -> bytearray:
    """The bytes a twin holds for its sample rows ``samples``, which start
    at row ``first_row`` of a record starting at ``start_time``: per row
    its time, as ``_format_block`` computes it, and its samples."""
    data = bytearray(8 * samples.shape[0] * (samples.shape[1] + 1))
    rows = np.frombuffer(data).reshape(len(samples), -1)
    rows[:, 0] = start_time + dt * np.arange(first_row, first_row + len(samples))
    rows[:, 1:] = samples
    return data


def _twin_layout(fh):
    """(header cells, rows) of the twin that ``fh`` is at the start of,
    read past its header, or None when that is not a header ``np.save``
    writes for a table of float64 fields."""
    try:
        if np.lib.format.read_magic(fh) != (1, 0):
            return None
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    except (ValueError, TypeError, SyntaxError, RecursionError, tokenize.TokenError):
        return None  # what numpy's header parser raises on bytes of no header
    cells = dtype.names
    if (fortran_order or len(shape) != 1 or not cells or not shape[0]
            or dtype != np.dtype([(cell, np.float64) for cell in cells])):
        return None
    return list(cells), shape[0]


def _file_sha256(fh) -> str:
    """The sha256 hex digest of the rest of a binary file, read in pieces
    of ``_READ_SPAN_BYTES`` into one buffer."""
    digest, buffer = hashlib.sha256(), bytearray(_READ_SPAN_BYTES)
    view = memoryview(buffer)
    while n := fh.readinto(buffer):
        digest.update(view[:n])
    return digest.hexdigest()


def _read_twin(fh, digest, rows, width, cols):
    """Columns ``cols`` of the ``rows`` rows of ``width`` float64 fields
    that ``fh`` is at, read in blocks of ``_BLOCK_ROWS`` rows into one
    buffer and added to ``digest``; None when the file ends early or goes
    on."""
    body = np.empty((rows, len(cols)))
    block = np.empty((min(rows, _BLOCK_ROWS), width))
    for r in range(0, rows, _BLOCK_ROWS):
        part = block[:rows - r]
        view = memoryview(part).cast("B")
        if fh.readinto(view) != view.nbytes:
            return None
        digest.update(view)
        np.take(part, cols, axis=1, out=body[r:r + len(part)], mode="clip")
    return None if fh.read(1) else body


def load_twin(path, sha256, channels=None) -> TimeSeries | None:
    """The trace file ``path`` as ``load_timeseries`` reads it, read from
    its twin; None when the twin cannot stand in for the CSV.

    ``sha256`` holds the hex digests of the CSV and of its twin, as
    ``report.json`` records them.  The CSV is hashed in pieces, and the
    twin is read in blocks of ``_BLOCK_ROWS`` rows, each hashed and only
    its ``time_s`` and ``channels`` (names, all when None) kept.  The
    result is None when a file cannot be read, either digest differs, the
    twin is not one this module writes, or it lacks a channel asked for;
    the caller then parses the CSV.  Nothing read from the twin is checked
    before its digest matches, and then exactly what a CSV load checks, so
    both give equal records and raise the same errors.
    """
    try:
        with open(path, "rb") as fh:
            if _file_sha256(fh) != sha256[0]:
                return None
        with open(twin_path(path), "rb") as fh:
            layout = _twin_layout(fh)
            if layout is None:
                return None
            cells, rows = layout
            try:
                file_channels = _parse_header(cells, path)
            except MissingChannel:
                return None
            names = [name for name, _ in file_channels]
            wanted = names if channels is None else list(channels)
            if not set(wanted) <= set(names):
                return None
            cols = [0] + [names.index(name) + 1 for name in wanted]
            end = fh.tell()
            fh.seek(0)
            digest = hashlib.sha256(fh.read(end))
            body = _read_twin(fh, digest, rows, len(cells), cols)
    except OSError:
        return None
    if body is None or digest.hexdigest() != sha256[1]:
        return None
    return _checked(path, body, file_channels, [file_channels[c - 1] for c in cols[1:]])


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
    e = np.maximum(-k, 0).astype(np.uint8)  # its digits are masked out for k >= -4
    grid[:n, _EXP + 2] = e // 10 + 48
    grid[:n, _EXP + 3] = e % 10 + 48
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
    """A trace file whose write failed; ``path`` names it."""

    def __init__(self, path, reason):
        super().__init__(f"cannot write {path}: {reason}")
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
    """A trace file being written: its open file, its running sha256, its
    twin (a _Save of the .npy file) and the rows the twin's header declares
    that are not yet written, whether rows may still follow, and the error
    that stopped its writes."""

    path: Path
    fh: object
    digest: object
    twin: _Save | None = None
    twin_rows: int = 0
    done: bool = False
    error: Exception | None = None

    def files(self):
        """The save, and its twin if it has one."""
        return (self,) if self.twin is None else (self, self.twin)

    def fail(self, file, exc):
        """Stop the writes: ``exc`` failed those of ``file``, the save's own
        or its twin's.  An OSError, or a pool a dead worker broke (``_DEAD``),
        is kept as the ``_FileError`` of ``file``, any other error as it is."""
        self.error = exc
        if isinstance(exc, (OSError, BrokenProcessPool)):
            dead = isinstance(exc, BrokenProcessPool)
            self.error = _FileError(file.path, _DEAD if dead else exc)
            self.error.__cause__ = exc


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
    """One fork pool for the saves made in it, the saves not yet complete,
    and the sha256 of each file saved complete; a context manager whose
    end stops the pool and closes the files left open.

    A save is opened with its header (``open``), handed its rows a chunk
    at a time (``append``) and told that no more follow (``done``).  The
    pool is opened by the first save that will format on it and serves the
    later ones; without it, each save formats its rows in-process, in
    order.  A save with a twin writes the twin's rows of each block in the
    caller's thread as the block is handed over; the twin is removed and
    hashed with its CSV.  With the pool, the blocks of every save wait in
    one queue in submission order, and the thread that owns the scope
    writes and hashes those at its head that are formatted, at each append
    and at ``wait``; at most ``_BLOCKS_IN_FLIGHT`` per worker wait, so an
    append waits for the oldest rather than holding a record's rows.

    A failed write, the close's included, stops its save's writes and is
    kept on the save, as the ``_FileError`` of the file that failed; only
    that save's ``append`` and ``check`` raise it.
    """

    def __init__(self):
        self.pool = None
        self.in_flight = 0  # blocks the queue may hold, once the pool is open
        self.queue = collections.deque()  # (save, future) of each unwritten block
        self.saves = []  # _Save of each file not yet complete, in save order
        self.digests = {}  # Path of a complete file -> sha256 hex digest

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _submit(self, save, block):
        """Queue ``block`` of ``save`` to be formatted on the pool; a broken
        pool fails the save."""
        try:
            self.queue.append((save, self.pool.submit(_format_block, *block)))
        except BrokenProcessPool as exc:
            save.fail(save, exc)

    def _write(self, save, rows, file=None):
        """Write and hash ``rows()``, the bytes of ``save``'s next block, to
        ``file`` (the save's own, or its twin) and close the files after
        the last; a failure stops the save's writes, and the blocks of a
        stopped save are skipped."""
        if save.error is not None:
            return
        file = file or save
        try:
            _write_hashed(file.fh, file.digest, rows())
        except Exception as exc:  # kept for the save's append or check
            save.fail(file, exc)
        else:
            self._finish(save)

    def _drain(self, keep):
        """Write the formatted blocks at the head of the queue, in order,
        waiting for the oldest while more than ``keep`` are queued."""
        while self.queue and (len(self.queue) > keep or self.queue[0][1].done()):
            save, future = self.queue.popleft()
            self._write(save, future.result)

    def _finish(self, save):
        """Close and hash ``save``'s files once its last block is written."""
        if (save.done and save.error is None and save in self.saves
                and all(queued is not save for queued, _ in self.queue)):
            for file in save.files():
                try:
                    file.fh.close()
                except OSError as exc:  # writing out its last bytes; kept for the check
                    return save.fail(file, exc)
                self.digests[file.path] = file.digest.hexdigest()
            self.saves.remove(save)

    def wait(self):
        """Write every queued block, waiting for each; raises nothing."""
        self._drain(0)

    @staticmethod
    def check(save):
        """Raise the error that stopped ``save``'s writes, if any."""
        if save.error is not None:
            raise save.error

    def open(self, path, header, rows, twin=False) -> _Save:
        """Open ``path`` and write ``header`` for a trace of about ``rows``
        sample rows; with ``twin``, also its twin, whose header declares
        exactly ``rows`` rows.  A file opened here is removed again if the
        call fails.  The first trace of at least ``_POOL_MIN_CHANNELS``
        channels opens the pool, when ``_pool_workers`` allows one for its
        blocks."""
        if (self.pool is None and header.count(",") >= _POOL_MIN_CHANNELS
                and (workers := _pool_workers(-(-rows // _BLOCK_ROWS)))):
            self.pool = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"))
            self.in_flight = _BLOCKS_IN_FLIGHT * workers
        files = []

        def create(file, data):
            files.append(_Save(Path(file), open(file, "wb"), hashlib.sha256()))
            _write_hashed(files[-1].fh, files[-1].digest, data)

        try:
            create(path, (header + "\n").encode("utf-8"))
            if twin:
                create(twin_path(path), _twin_header(header.split(","), rows))
        except BaseException:
            for file in files:
                file.fh.close()
                file.path.unlink(missing_ok=True)
            raise
        save = files[0]
        if twin:
            save.twin, save.twin_rows = files[1], rows
        self.saves.append(save)
        return save

    def append(self, save, samples, start_time, dt, first_row):
        """Write the sample rows ``samples``, rows ``first_row`` on of a
        record starting at ``start_time``, in blocks of ``_BLOCK_ROWS``
        queued for the pool, or now without it, as for a trace of fewer
        than ``_POOL_MIN_CHANNELS`` channels; each block first writes the
        queue's formatted head (``_drain``), then its twin rows, if the save
        has a twin.  The pool's tasks hold views of ``samples``, which must
        not change until they are written.  Raises the error that stopped
        this save's writes, here or before; another save's failure is kept
        on that save."""
        pooled = self.pool is not None and samples.shape[1] >= _POOL_MIN_CHANNELS
        for i in range(0, len(samples), _BLOCK_ROWS):
            block = (samples[i:i + _BLOCK_ROWS], start_time, dt, first_row + i)
            self._drain(self.in_flight - 1 if pooled else len(self.queue))
            if save.twin is not None:
                save.twin_rows -= len(block[0])
                self._write(save, lambda: _twin_rows(*block), save.twin)
            if save.error is not None:
                break
            if pooled:
                self._submit(save, block)
            else:
                self._write(save, lambda: _format_block(*block))
        self.check(save)

    def done(self, save):
        """No rows follow: the file is complete, and hashed, once its last
        block is written (now, when none is queued).  A twin that did not
        get the rows its header declares fails the save."""
        save.done = True
        if save.twin_rows and save.error is None:
            save.error = _FileError(save.twin.path, (
                f"{abs(save.twin_rows)} rows "
                f"{'fewer' if save.twin_rows > 0 else 'more'} than its header declares"))
        self._finish(save)

    def discard(self, save):
        """Drop ``save``: its queued blocks go unwritten, and its file is
        closed and removed."""
        if save in self.saves:
            self.saves.remove(save)
        self.queue = collections.deque(item for item in self.queue if item[0] is not save)
        for file in save.files():
            with contextlib.suppress(OSError):  # its last rows are dropped with it
                file.fh.close()
            self.digests.pop(file.path, None)
            file.path.unlink(missing_ok=True)

    def close(self):
        """Stop the pool and close the files left open."""
        if self.pool is not None:
            self.pool.shutdown(cancel_futures=True)
        for save in self.saves:
            for file in save.files():
                with contextlib.suppress(OSError):
                    file.fh.close()


def trace_header(channels) -> str:
    """The header line of a trace file with these (name, unit) channels."""
    return "time_s," + ",".join(f"{n}[{u}]" for n, u in channels)


def save_timeseries(ts: TimeSeries, path) -> None:
    """Write the CSV interchange format with full round-trip precision.

    Rows are formatted in blocks of ``_BLOCK_ROWS`` in a scope of the
    file's own, on its pool where it opens one, and written in order; an
    unwritable path is an OSError, and a failed write, a worker that dies
    included, is an OSError naming the file.  The file is complete when
    this returns.
    """
    with _Scope() as scope:
        save = scope.open(path, trace_header(ts.channels), ts.n_samples)
        scope.append(save, ts.samples, ts.start_time, ts.dt, 0)
        scope.done(save)
        scope.wait()
        scope.check(save)


def save_json(obj, path) -> None:
    """Write a JSON artifact; sorted keys make equal content equal bytes."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
