"""Time-series container and CSV round trip."""

import errno
import hashlib
import io
import itertools
import json
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ridecomfort.errors import (
    EmptyFile, InvalidRate, MissingChannel, NonFiniteSample,
    NonUniformSampling, RideComfortError)
from ridecomfort import comfort, perception, timeseries
from ridecomfort.pipeline import parse_config, run_pipeline
from conftest import counted_pools, make_scenario
from ridecomfort.timeseries import (
    TimeSeries, count_samples, from_arrays, load_timeseries, save_timeseries)

BLOCK = timeseries._BLOCK_ROWS
POOLED = timeseries._pool_workers(2) >= 2  # 2+ blocks of 2+ channels use the pool
FORKS = "fork" in multiprocessing.get_all_start_methods()


def _save_in(scope, ts, path):
    """Hand ``ts`` to ``scope`` as ``save_timeseries`` does, without the wait."""
    save = scope.open(path, timeseries.trace_header(ts.channels), ts.n_samples)
    scope.append(save, ts.samples, ts.start_time, ts.dt, 0)
    scope.done(save)
    return save


def _demo(n=500, dt=0.001, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, 2))
    return from_arrays(dt, data, [("acc_x", "m/s^2"), ("acc_y", "m/s^2")])


def test_basic_properties():
    ts = _demo(n=400, dt=0.002)
    assert ts.n_samples == 400
    assert ts.duration == pytest.approx(0.798)
    assert ts.channel_names == ("acc_x", "acc_y")
    assert ts.unit("acc_y") == "m/s^2"
    assert ts.index("acc_y") == 1
    assert ts.time()[0] == 0.0
    assert ts.time()[-1] == pytest.approx(0.798)


def test_from_arrays_rejects_bad_input():
    with pytest.raises(InvalidRate):
        from_arrays(0.0, np.zeros((4, 1)), [("a", "1")])
    with pytest.raises(ValueError):
        from_arrays(0.01, np.zeros((4, 2)), [("a", "1")])  # channel count
    with pytest.raises(NonFiniteSample):
        from_arrays(0.01, np.array([[0.0], [np.nan]]), [("a", "1")])


def test_finite_values_whose_sum_overflows_are_accepted():
    big = from_arrays(0.01, np.array([[1e308], [1e308]]), [("a", "1")])
    assert big.samples[1, 0] == 1e308
    samples = np.full((5, 3), 1e308)
    samples[3, 2] = -np.inf
    samples[4, 1] = np.nan
    with pytest.raises(NonFiniteSample) as info:
        from_arrays(0.01, samples, [("a", "1"), ("b", "1"), ("c", "1")])
    assert (info.value.channel, info.value.row) == ("c", 3)


def test_select_preserves_order_and_units():
    ts = _demo()
    sel = ts.select(["acc_y"])
    assert sel.channel_names == ("acc_y",)
    assert np.array_equal(sel.channel("acc_y"), ts.channel("acc_y"))
    with pytest.raises(MissingChannel):
        ts.select(["missing"])


def test_save_load_round_trip_bytes(tmp_path):
    ts = _demo(n=1000)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    save_timeseries(ts, p1)
    back = load_timeseries(p1)
    save_timeseries(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.dt == ts.dt
    assert np.array_equal(back.samples, ts.samples)


def test_load_snaps_dt_to_generating_step(tmp_path):
    # accumulating k*0.001 by repeated addition drifts in the last bits;
    # the loader must recover the clean step from the printed column
    ts = _demo(n=2000, dt=0.001)
    path = tmp_path / "grid.csv"
    save_timeseries(ts, path)
    assert load_timeseries(path).dt == 0.001


def test_load_schema_enforced(tmp_path):
    path = tmp_path / "a.csv"
    save_timeseries(_demo(), path)
    loaded = load_timeseries(path, schema=[("acc_x", "m/s^2")])
    assert "acc_x" in loaded.channel_names
    with pytest.raises(MissingChannel):
        load_timeseries(path, schema=[("acc_z", "m/s^2")])


def test_load_rejects_malformed(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(EmptyFile):
        load_timeseries(empty)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("time_s,acc_x[m/s^2]\n0.0,1.0\n0.001\n")
    with pytest.raises(RideComfortError, match="line 3: the header has 2 columns, this line 1"):
        load_timeseries(ragged)

    jitter = tmp_path / "jitter.csv"
    jitter.write_text("time_s,acc_x[m/s^2]\n0.0,1.0\n0.001,1.0\n0.0025,1.0\n")
    with pytest.raises(NonUniformSampling):
        load_timeseries(jitter)


@pytest.mark.parametrize("bad, message", [
    (b"abc", "line 251, column acc_y[m/s^2]: 'abc' is not a number"),
    (b"", "line 251, column acc_y[m/s^2]: '' is not a number"),
    (b"1,2", "line 251: the header has 3 columns, this line 4"),
], ids=["text", "empty", "wide"])
def test_an_unparseable_cell_names_its_line_and_column(tmp_path, monkeypatch, bad,
                                                       message):
    # CRLF ends, and a blank and a comment line before the data: the line
    # counts every line of the file.  With small pieces the bad row is in a
    # late one, and only the piece that fails is parsed again, a line and
    # then a cell at a time
    lines = [b"time_s,acc_x[m/s^2],acc_y[m/s^2]", b"", b"# a comment"]
    lines += [b"%r,%d,-0.5" % (0.001 * i, i) for i in range(300)]
    lines[250] = lines[250].rsplit(b",", 1)[0] + b"," + bad  # line 251
    path = tmp_path / "demo.csv"
    path.write_bytes(b"\r\n".join(lines) + b"\r\n")
    monkeypatch.setattr(timeseries, "_READ_SPAN_BYTES", 512)
    parsed = []
    parse_rows = timeseries._parse_rows

    def spy(data):
        parsed.append(data)
        return parse_rows(data)

    monkeypatch.setattr(timeseries, "_parse_rows", spy)
    with pytest.raises(RideComfortError) as info:
        load_timeseries(path)
    assert str(info.value) == f"{path} {message}"
    pieces = [data for data in parsed if data.count(b"\n") > 1]
    assert len(pieces) == len(set(pieces)) > 8  # no piece is parsed twice
    assert len(parsed) - len(pieces) <= pieces[-1].count(b"\n") + 3


def test_count_samples_follows_the_load_rule(tmp_path):
    # CRLF and bare CR line ends, blank and whitespace-only lines, no final
    # newline: the streamed count equals the rows load_timeseries returns
    path = tmp_path / "odd.csv"
    text = ("time_s,acc_x[m/s^2]\r\n0,1\r\n\r\n   \n0.001,2\n\t\n"
            "0.002,3\r\n\r\r\n0.003,4")
    path.write_bytes(text.encode("utf-8"))
    assert count_samples(path) == load_timeseries(path).n_samples == 4

    save_timeseries(_demo(n=37), tmp_path / "demo.csv")
    assert count_samples(tmp_path / "demo.csv") == 37
    (tmp_path / "header_only.csv").write_text("time_s,acc_x[m/s^2]\n\n")
    assert count_samples(tmp_path / "header_only.csv") == 0
    # lines that start with "#" are comments to np.loadtxt, not samples
    (tmp_path / "comments.csv").write_text(
        "time_s,acc_x[m/s^2]\n#0,1\n0,1\n# x\n0.5,2 # y\n#\n")
    assert count_samples(tmp_path / "comments.csv") == \
        load_timeseries(tmp_path / "comments.csv").n_samples == 2
    (tmp_path / "comments_only.csv").write_text("time_s\n# one\n#two\n")
    assert count_samples(tmp_path / "comments_only.csv") == 0


def test_streamed_reader_keeps_the_load_rules(tmp_path):
    def load(name, content):
        path = tmp_path / name
        path.write_bytes(content)
        return lambda: load_timeseries(path)

    with pytest.raises(EmptyFile, match="is empty"):
        load("blank.csv", b"\n  \r\n\t\n")()
    with pytest.raises(EmptyFile, match="has a header but no samples"):
        load("header.csv", b"\ntime_s,acc_x[m/s^2]\r\n\r\n")()
    # only comments after the header: no samples either, and np.loadtxt's
    # "input contained no data" warning does not reach the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for header in (b"time_s", b"time_s,a[1]"):
            with pytest.raises(EmptyFile, match="has a header but no samples"):
                load("comments.csv", header + b"\n# one\n#two\r\n")()
    # a row of another width than the header's, or a cell that is not a
    # number, is named by its line in the file, and the cell by its column
    with pytest.raises(RideComfortError,
                       match=r"narrow.csv line 2: the header has 3 columns, this line 2$"):
        load("narrow.csv", b"time_s,a[1],b[1]\n0,1\n0.1,2\n")()
    with pytest.raises(RideComfortError,
                       match=r"text.csv line 3, column a\[1\]: 'x' is not a number$"):
        load("text.csv", b"time_s,a[1]\n\n0,x\n")()
    with pytest.raises(UnicodeDecodeError):
        load("latin1.csv", b"time_s,a[1]\n0,1\n0.1,\xff\n")()
    # one CR before each LF is dropped, as the whole-text reader did
    two = load("crcrlf.csv", b"time_s,a[1]\r\n0,1\r\r\n0.1,2\n")()
    assert two.samples.tolist() == [[1.0], [2.0]]
    # a blank line before the header, CRLF and a negative zero
    crlf = load("crlf.csv", b"\r\ntime_s,a[1]\r\n2.5,-0\r\n2.75,1\r\n")()
    assert crlf.start_time == 2.5 and crlf.dt == 0.25 and crlf.n_samples == 2
    assert np.signbit(crlf.samples[0, 0])
    # one sample row defines no sample step
    with pytest.raises(InvalidRate, match="has 1 sample row"):
        load("one.csv", b"\r\ntime_s,a[1]\r\n2.5,-0\r\n")()


def _savetxt_writer(ts, path):
    """The writer before the parallel one, kept as the byte oracle."""
    header = "time_s," + ",".join(f"{n}[{u}]" for n, u in ts.channels)
    data = np.column_stack([ts.time(), ts.samples])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        np.savetxt(fh, data, delimiter=",", fmt="%.17g", newline="\n")


_SPECIAL = [-0.0, 5e-324, 1e-300, 1e300, 1 / 3, 0.0, 1.0, -7.0, 123456789.0,
            2.0 ** 53, -2.5e-7]


@pytest.mark.parametrize("n_channels", [1, 30])
@pytest.mark.parametrize("n_rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 2])
def test_writer_bytes_equal_savetxt(tmp_path, n_rows, n_channels):
    rng = np.random.default_rng(n_rows * 31 + n_channels)
    data = rng.standard_normal((n_rows, n_channels)) * 10.0 ** rng.integers(
        -8, 9, size=(n_rows, n_channels))
    flat = data.reshape(-1)
    flat[::7][:len(_SPECIAL)] = _SPECIAL[:len(flat[::7])]
    for start_time in (0.0, -12.345):
        ts = TimeSeries(start_time, 0.001, tuple((f"c{i}", "m/s^2")
                        for i in range(n_channels)), data)
        save_timeseries(ts, tmp_path / "new.csv")
        assert multiprocessing.active_children() == []
        _savetxt_writer(ts, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "old.csv").read_bytes()
    if n_rows == 1:  # one row defines no sample step: the reader refuses it
        with pytest.raises(InvalidRate):
            load_timeseries(tmp_path / "new.csv")
        return
    back = load_timeseries(tmp_path / "new.csv")
    assert np.array_equal(back.samples, data)
    assert np.array_equal(np.signbit(back.samples), np.signbit(data))


def _percent_rows(block):
    """The row formatter before the numpy kernel, kept as its byte oracle."""
    row_fmt = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return (row_fmt * block.shape[0]) % tuple(block.ravel().tolist())


def _assert_formats_like_percent(block):
    got, want = timeseries._format_rows(block), _percent_rows(block)
    if got != want:  # name the first value that differs
        for g, w in zip(got.split("\n"), want.split("\n")):
            for gc, wc in zip(g.split(","), w.split(",")):
                assert gc == wc
    assert got == want


def _near(x, n=50):
    """The 2n + 1 floats nearest a positive float, x in the middle."""
    bits = np.float64(x).view(np.int64) + np.arange(-n, n + 1)
    return bits.view(np.float64)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(block=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                     max_side=12),
                        elements=st.floats(allow_nan=False,
                                           allow_infinity=False)))
def test_row_formatter_equals_percent_on_any_floats(block):
    _assert_formats_like_percent(block)


def test_row_formatter_equals_percent_at_the_edges(monkeypatch):
    rng = np.random.default_rng(7)
    # next to every power of ten the kernel's log10 guess can be one off
    near_powers = np.concatenate([_near(float(f"1e{p}"))
                                  for p in range(-14, 18)])
    # both sides of the kernel's range and of the switch to d.ddde-XX
    edges = np.concatenate([_near(x, 2) for x in (1e-11, 1e-4, 1e16)])
    tie = 2.0 ** -25  # 2.98023223876953125e-08: half to even keeps ...12
    assert timeseries._format_rows(np.array([[tie]])) == \
        "2.9802322387695312e-08\n"
    special = np.array([0.0, -0.0, 5e-324, 2.5e-320, 2.2250738585072014e-308,
                        1.7976931348623157e308, tie, 1.0, 0.1, 1e15, 2.0 ** 53,
                        9999999999999998.0, 0.00011, 123456.75])
    dense = rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-12, 17, 20000)
    values = np.concatenate([near_powers, edges, special, dense])
    values = np.concatenate([values, -values])
    _assert_formats_like_percent(values[:, None])  # one column
    _assert_formats_like_percent(values[None, :])  # one row
    _assert_formats_like_percent(values[:len(values) // 7 * 7].reshape(-1, 7))
    wide = values[:4000].reshape(-1, 20)
    _assert_formats_like_percent(wide[::3, 1::2])  # not contiguous
    _assert_formats_like_percent(np.asfortranarray(wide))
    _assert_formats_like_percent(np.zeros((3, 0)))
    _assert_formats_like_percent(np.zeros((0, 3)))
    # several kernel passes per block, also less than a row per pass
    for values_per_pass in (7, 32):
        monkeypatch.setattr(timeseries, "_FORMAT_VALUES", values_per_pass)
        _assert_formats_like_percent(wide)


def test_writer_formats_in_process_beside_other_threads(tmp_path):
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert timeseries._pool_workers(2) == 0
        ts = _demo(n=2 * BLOCK + 1)
        save_timeseries(ts, tmp_path / "new.csv")
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    _savetxt_writer(ts, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _die(block):
    os._exit(1)


@pytest.mark.skipif(not POOLED, reason="rows are formatted in-process here")
def test_writer_worker_death_is_an_os_error(tmp_path, monkeypatch):
    monkeypatch.setattr(timeseries, "_format_rows", _die)
    path = tmp_path / "dead.csv"
    with pytest.raises(OSError, match="dead.csv"):
        save_timeseries(_demo(n=2 * BLOCK), path)
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not POOLED, reason="rows are formatted in-process here")
def test_finished_blocks_are_written_before_the_scope_ends(tmp_path, monkeypatch):
    ts = _demo(n=3 * BLOCK + 5, dt=0.002)
    ts = TimeSeries(1.25, ts.dt, ts.channels, ts.samples)  # rows start off zero
    _savetxt_writer(ts, tmp_path / "old.csv")
    want = (tmp_path / "old.csv").read_bytes()
    path, next_path = tmp_path / "eager.csv", tmp_path / "next.csv"
    with timeseries._Scope() as scope:
        save = _save_in(scope, ts, path)
        scope.wait()
        # the file is complete, closed and hashed once its blocks are
        # written, in the scope
        assert path.read_bytes() == want and save.fh.closed
        assert scope.digests[path] == hashlib.sha256(want).hexdigest()
        _save_in(scope, ts, next_path)
        scope.wait()
    assert multiprocessing.active_children() == []
    assert scope.digests[path] == hashlib.sha256(want).hexdigest()
    assert path.read_bytes() == want == next_path.read_bytes()

    monkeypatch.setattr(timeseries, "_pool_workers", lambda n: 0)
    save_timeseries(ts, tmp_path / "in_process.csv")
    assert (tmp_path / "in_process.csv").read_bytes() == want


def _die_first_on_the_later_block(block):
    if block[0, 0] == 0:  # the first save's block, which starts at t = 0
        time.sleep(1)
    os._exit(1)


@pytest.mark.skipif(not FORKS, reason="no fork pool on this platform")
def test_a_dead_worker_fails_each_save_with_a_block_on_the_pool(tmp_path, monkeypatch):
    # two wide saves have a block in flight each; the worker formatting the
    # second save's block dies first, which breaks the pool and fails both.
    # Each save keeps its own failure, and a save handed to the broken pool
    # later fails too
    monkeypatch.setattr(timeseries, "_pool_workers", lambda n: 2)
    monkeypatch.setattr(timeseries, "_format_rows", _die_first_on_the_later_block)
    ts = _demo(n=BLOCK)
    header = timeseries.trace_header(ts.channels)
    with timeseries._Scope() as scope:
        first, second = (scope.open(tmp_path / name, header, 2 * BLOCK)
                         for name in ("first.csv", "second.csv"))
        scope.append(first, ts.samples, 0.0, ts.dt, 0)
        scope.append(second, ts.samples, 1.0, ts.dt, 0)
        assert [save for save, _ in scope.queue] == [first, second]
        scope.done(first)
        scope.done(second)
        scope.wait()  # raises for no save
        for save in (first, second):
            with pytest.raises(timeseries._FileError,
                               match=f"{save.path.name}: a worker process ended abruptly") \
                    as info:
                scope.check(save)
            assert info.value.path == save.path
        later = scope.open(tmp_path / "later.csv", header, BLOCK)
        with pytest.raises(timeseries._FileError,
                           match="later.csv: a worker process ended abruptly"):
            scope.append(later, ts.samples, 2.0, ts.dt, 0)
    assert multiprocessing.active_children() == []
    assert all(save.fh.closed for save in (first, second, later))
    assert scope.digests == {}


@pytest.mark.skipif(not FORKS, reason="no fork pool on this platform")
def test_many_eager_saves_write_every_block_once_in_order(tmp_path, monkeypatch):
    # more workers than cores, small blocks and frequent thread switches:
    # the pool's threads settle futures while this one queues and writes blocks
    monkeypatch.setattr(timeseries, "_BLOCK_ROWS", 16)
    monkeypatch.setattr(timeseries, "_pool_workers", lambda n: 4)
    records = [_demo(n=200 + i, seed=i) for i in range(20)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with timeseries._Scope() as scope:
            for i, ts in enumerate(records):
                _save_in(scope, ts, tmp_path / f"{i}.csv")
            scope.wait()
    finally:
        sys.setswitchinterval(interval)
    assert multiprocessing.active_children() == []
    for i, ts in enumerate(records):
        _savetxt_writer(ts, tmp_path / "old.csv")
        want = (tmp_path / "old.csv").read_bytes()
        assert (tmp_path / f"{i}.csv").read_bytes() == want
        assert scope.digests[tmp_path / f"{i}.csv"] == hashlib.sha256(want).hexdigest()


@pytest.mark.skipif(not FORKS, reason="no fork pool on this platform")
def test_appends_and_discards_across_saves_keep_every_kept_block_in_order(
        tmp_path, monkeypatch):
    # as above, with each file appended a few rows at a time, the saves
    # interleaved, and every third file discarded halfway
    monkeypatch.setattr(timeseries, "_BLOCK_ROWS", 16)
    monkeypatch.setattr(timeseries, "_pool_workers", lambda n: 4)
    records = [_demo(n=150 + i, seed=i) for i in range(12)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with timeseries._Scope() as scope:
            saves = [scope.open(tmp_path / f"{i}.csv",
                                timeseries.trace_header(ts.channels), ts.n_samples)
                     for i, ts in enumerate(records)]
            for a in range(0, 200, 23):
                for i, (ts, save) in enumerate(zip(records, saves)):
                    if a == 69 and i % 3 == 0:
                        scope.discard(save)
                    elif a < ts.n_samples and not (a > 69 and i % 3 == 0):
                        scope.append(save, ts.samples[a:a + 23], ts.start_time, ts.dt, a)
            for i, save in enumerate(saves):
                if i % 3:
                    scope.done(save)
            scope.wait()
    finally:
        sys.setswitchinterval(interval)
    assert multiprocessing.active_children() == []
    for i, ts in enumerate(records):
        path = tmp_path / f"{i}.csv"
        if i % 3 == 0:
            assert not path.exists() and path not in scope.digests
            continue
        _savetxt_writer(ts, tmp_path / "old.csv")
        want = (tmp_path / "old.csv").read_bytes()
        assert path.read_bytes() == want
        assert scope.digests[path] == hashlib.sha256(want).hexdigest()


@pytest.mark.skipif(not FORKS, reason="no fork pool on this platform")
def test_an_append_raises_only_for_its_own_save(tmp_path, monkeypatch):
    # a pipeline run appends each stage's rows to its own file: one file's
    # failed write must not cost the rows another file is being handed
    monkeypatch.setattr(timeseries, "_pool_workers", lambda n: 2)
    write = timeseries._write_hashed

    def disk_full(fh, digest, data):
        if fh.name.endswith("full.csv") and not data.startswith(b"time_s"):
            raise OSError("no space left on device")
        write(fh, digest, data)

    monkeypatch.setattr(timeseries, "_write_hashed", disk_full)
    ts = _demo(n=2 * BLOCK)
    header = timeseries.trace_header(ts.channels)
    with timeseries._Scope() as scope:
        ok, full = (scope.open(tmp_path / name, header, ts.n_samples)
                    for name in ("ok.csv", "full.csv"))
        for save in (ok, full):
            scope.append(save, ts.samples[:BLOCK], ts.start_time, ts.dt, 0)
        for _, future in scope.queue:  # both blocks formatted: the next
            future.result(timeout=30)  # append writes them, and fails full's
        scope.append(ok, ts.samples[BLOCK:], ts.start_time, ts.dt, BLOCK)
        assert ok.error is None
        assert str(full.error).endswith("full.csv: no space left on device")
        scope.done(ok)
        with pytest.raises(timeseries._FileError, match="full.csv: no space left"):
            scope.append(full, ts.samples[BLOCK:], ts.start_time, ts.dt, BLOCK)
        scope.wait()
        scope.check(ok)
        with pytest.raises(timeseries._FileError, match="full.csv: no space left"):
            scope.check(full)
    assert multiprocessing.active_children() == []
    _savetxt_writer(ts, tmp_path / "old.csv")
    assert (tmp_path / "ok.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert list(scope.digests) == [tmp_path / "ok.csv"]


class _FullAtClose:
    """A file whose close fails as it writes out the bytes it buffered."""

    def __init__(self, fh):
        self.fh, self.write = fh, fh.write

    @property
    def closed(self):
        return self.fh.closed

    def close(self):
        if not self.fh.closed:
            self.fh.close()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("pooled", [True, False], ids=["pooled", "in-process"])
def test_a_close_that_fails_fails_only_its_own_save(tmp_path, monkeypatch, pooled):
    # the close of a save's file may come at its done, at another save's
    # append or at wait; none of those raises, and its check does
    if pooled and not FORKS:
        pytest.skip("no fork pool on this platform")
    monkeypatch.setattr(timeseries, "_pool_workers", lambda n: 2 if pooled else 0)
    ts = _demo(n=BLOCK + 3)
    header = timeseries.trace_header(ts.channels)
    with timeseries._Scope() as scope:
        full, ok = (scope.open(tmp_path / name, header, ts.n_samples)
                    for name in ("full.csv", "ok.csv"))
        full.fh = _FullAtClose(full.fh)
        for save in (full, ok):
            scope.append(save, ts.samples, ts.start_time, ts.dt, 0)
            scope.done(save)
        scope.wait()
        scope.check(ok)
        with pytest.raises(timeseries._FileError,
                           match=r"full.csv: \[Errno %d\]" % errno.ENOSPC) as info:
            scope.check(full)
        assert info.value.path == full.path
    assert multiprocessing.active_children() == []
    assert list(scope.digests) == [ok.path]
    _savetxt_writer(ts, tmp_path / "old.csv")
    assert ok.path.read_bytes() == (tmp_path / "old.csv").read_bytes()


def _formatter_bug(block):
    raise TypeError("a formatter bug")


@pytest.mark.parametrize("pooled", [True, False], ids=["pooled", "in-process"])
def test_a_formatter_bug_is_raised_as_itself(tmp_path, monkeypatch, pooled):
    # only an OSError, or a dead worker, is a failed write of the file
    if pooled and not POOLED:
        pytest.skip("rows are formatted in-process here")
    if not pooled:
        monkeypatch.setattr(timeseries, "_pool_workers", lambda n: 0)
    monkeypatch.setattr(timeseries, "_format_rows", _formatter_bug)
    with pytest.raises(TypeError, match="a formatter bug"):
        save_timeseries(_demo(n=2 * BLOCK), tmp_path / "bug.csv")
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not POOLED, reason="rows are formatted in-process here")
def test_failed_eager_write_is_an_os_error_naming_its_file(tmp_path, monkeypatch):
    write = timeseries._write_hashed

    def disk_full(fh, digest, data):
        if fh.name.endswith("full.csv") and not data.startswith(b"time_s"):
            raise OSError("no space left on device")
        write(fh, digest, data)

    monkeypatch.setattr(timeseries, "_write_hashed", disk_full)
    ts = _demo(n=2 * BLOCK)
    save_timeseries(ts, tmp_path / "ok.csv")
    with pytest.raises(timeseries._FileError,
                       match="cannot write .*full.csv: no space left") as info:
        save_timeseries(ts, tmp_path / "full.csv")
    assert info.value.path == tmp_path / "full.csv"
    save_timeseries(ts, tmp_path / "after.csv")  # a later save is not failed by it
    assert multiprocessing.active_children() == []
    _savetxt_writer(ts, tmp_path / "old.csv")
    for name in ("ok.csv", "after.csv"):
        assert (tmp_path / name).read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.skipif(not FORKS or not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="no fork pool on this platform")
def test_a_forkserver_default_still_gets_the_fork_pool(tmp_path, monkeypatch):
    # Python 3.14 made forkserver the default start method on Linux; the
    # pool asks for fork itself, so the default does not matter
    monkeypatch.setattr(multiprocessing, "get_start_method",
                        lambda allow_none=False: "forkserver")
    assert timeseries._pool_workers(2) == 2
    opened = []

    class CountedPool(timeseries.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs["mp_context"].get_start_method())
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(timeseries, "ProcessPoolExecutor", CountedPool)
    ts = _demo(n=2 * BLOCK + 1)
    save_timeseries(ts, tmp_path / "pooled.csv")
    assert opened == ["fork"]
    assert multiprocessing.active_children() == []
    _savetxt_writer(ts, tmp_path / "old.csv")
    assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("pooled", [True, False], ids=["pooled", "in-process"])
def test_appended_rows_write_the_bytes_of_one_save(tmp_path, monkeypatch, pooled):
    if pooled and not FORKS:
        pytest.skip("no fork pool on this platform")
    ts = _demo(n=3 * BLOCK + 5, dt=0.002)
    ts = TimeSeries(1.25, ts.dt, ts.channels, ts.samples)
    _savetxt_writer(ts, tmp_path / "old.csv")
    want = (tmp_path / "old.csv").read_bytes()
    monkeypatch.setattr(timeseries, "_pool_workers", lambda n: 2 if pooled else 0)
    submitted = []
    submit = timeseries._Scope._submit

    def counted(scope, *args):
        submitted.append(len(scope.queue))
        return submit(scope, *args)

    monkeypatch.setattr(timeseries._Scope, "_submit", counted)
    path = tmp_path / "appended.csv"
    with timeseries._Scope() as scope:
        save = scope.open(path, timeseries.trace_header(ts.channels), ts.n_samples)
        cuts = [0, 1, 8, 10, BLOCK + 3, 2 * BLOCK, ts.n_samples]
        for a, b in zip(cuts, cuts[1:]):
            scope.append(save, ts.samples[a:b], ts.start_time, ts.dt, a)
        scope.done(save)
        scope.wait()
    assert path.read_bytes() == want
    assert scope.digests[path] == hashlib.sha256(want).hexdigest()
    assert multiprocessing.active_children() == []
    # a block is handed to the pool only while fewer than the cap are unwritten
    assert len(submitted) == (7 if pooled else 0)
    assert all(n < timeseries._BLOCKS_IN_FLIGHT * 2 for n in submitted)


@pytest.mark.skipif(not FORKS, reason="no fork pool on this platform")
def test_a_one_channel_trace_is_formatted_beside_the_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(timeseries, "_pool_workers", lambda n: 2)
    submitted = []
    submit = timeseries._Scope._submit

    def counted(scope, save, block):
        submitted.append(save.path.name)
        return submit(scope, save, block)

    monkeypatch.setattr(timeseries._Scope, "_submit", counted)
    wide = _demo(n=2 * BLOCK + 1)
    narrow = TimeSeries(0.0, wide.dt, wide.channels[:1], wide.samples[:, :1])
    with timeseries._Scope() as scope:
        for name, ts in (("wide.csv", wide), ("narrow.csv", narrow)):
            _save_in(scope, ts, tmp_path / name)
        assert scope.pool is not None
        scope.wait()
    assert submitted == ["wide.csv"] * 3
    for name, ts in (("wide.csv", wide), ("narrow.csv", narrow)):
        _savetxt_writer(ts, tmp_path / "old.csv")
        assert (tmp_path / name).read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("pooled", [True, False], ids=["pooled", "in-process"])
def test_a_discarded_save_leaves_no_file(tmp_path, monkeypatch, pooled):
    if pooled and not FORKS:
        pytest.skip("no fork pool on this platform")
    monkeypatch.setattr(timeseries, "_pool_workers", lambda n: 2 if pooled else 0)
    ts = _demo(n=2 * BLOCK)
    with timeseries._Scope() as scope:
        kept = scope.open(tmp_path / "kept.csv", timeseries.trace_header(ts.channels), 1)
        gone = scope.open(tmp_path / "gone.csv", timeseries.trace_header(ts.channels), 1)
        for save in (kept, gone):
            scope.append(save, ts.samples, ts.start_time, ts.dt, 0)
        scope.discard(gone)
        scope.done(kept)
        scope.wait()
    assert not (tmp_path / "gone.csv").exists()
    assert sorted(p.name for p in scope.digests) == ["kept.csv"]
    save_timeseries(ts, tmp_path / "whole.csv")
    assert (tmp_path / "kept.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def _streamed_lines(fh):
    """The line rule before the span reader: non-blank lines, LF or CRLF cut."""
    for ln in fh:
        ln = ln.removesuffix("\n").removesuffix("\r")
        if ln.strip():
            yield ln


def _streamed_count(path):
    """count_samples before the span reader, kept as its oracle, with the
    comment rule of np.loadtxt: a line that starts with "#" is no sample."""
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        lines = _streamed_lines(fh)
        if next(lines, None) is None:
            return 0
        return sum(not ln.startswith("#") for ln in lines)


def _streamed_reader(path):
    """The reader before the span-parallel one, kept as the value oracle."""
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        rows = _streamed_lines(fh)
        header = next(rows, None)
        if header is None:
            raise EmptyFile(f"{path} is empty")
        channels = timeseries._parse_header(header.split(","), path)
        first = next(rows, None)
        if first is None:
            raise EmptyFile(f"{path} has a header but no samples")
        try:
            body = np.loadtxt(itertools.chain((first,), rows), delimiter=",",
                              ndmin=2)
        except UnicodeDecodeError:
            raise
        except ValueError:
            raise _first_bad_line(path, header) from None
    if not len(body):  # every line after the header is a comment
        raise EmptyFile(f"{path} has a header but no samples")
    if body.shape[1] != len(channels) + 1:
        raise _first_bad_line(path, header)
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
    off = np.abs(steps - dt) > timeseries._DT_RTOL * dt
    if off.any():
        row = int(np.argwhere(off)[0][0]) + 1
        raise NonUniformSampling(row, dt, float(steps[row - 1]))
    k = np.arange(len(t))
    candidates = (float(f"{dt:.12g}"), dt, (float(t[-1]) - float(t[0])) / (len(t) - 1))
    dt = min(candidates,
             key=lambda c: float(np.max(np.abs(t[0] + c * k - t))))
    return TimeSeries(float(t[0]), dt, tuple(channels), samples)


def _first_bad_line(path, header):
    """The oracle's error for rows that do not parse: the file's first
    line after the header that np.loadtxt cannot parse on its own, or whose
    width is not the header's, named by its line number and, for a cell
    that float() cannot read (after any comment), by its column."""
    cells = header.split(",")
    lines = path.read_bytes().decode("utf-8").split("\n")
    after = next(i for i, ln in enumerate(lines) if ln.strip()) + 1
    for number, ln in enumerate(lines[after:], after + 1):
        ln = ln.removesuffix("\r")
        if not ln.strip():
            continue
        try:
            width = np.loadtxt([ln], delimiter=",", ndmin=2).shape[1]
        except ValueError:
            values = ln.split(",")
            for column, value in enumerate(values if len(values) == len(cells) else ()):
                try:
                    float(value.split("#", 1)[0])
                except ValueError:
                    return RideComfortError(f"{path} line {number}, column "
                                            f"{cells[column].strip()}: {value!r} is not a number")
            width = len(values)
        if width != len(cells) and not ln.lstrip().startswith("#"):
            return RideComfortError(f"{path} line {number}: the header has {len(cells)} "
                                    f"columns, this line {width}")
    raise AssertionError("no line at fault")


def _outcome(load, path):
    try:
        return load(path)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return exc


def _assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want), (got, want)
        if not isinstance(want, UnicodeDecodeError):  # positions differ
            assert str(got) == str(want)
        return
    if isinstance(want, int):
        assert got == want
        return
    assert isinstance(got, TimeSeries), got
    assert np.array_equal(got.samples, want.samples)
    assert got.samples.tobytes() == want.samples.tobytes()
    assert (got.dt, got.start_time, got.channels) == \
        (want.dt, want.start_time, want.channels)


_CELLS = ["1", "-0", "0.25", "1e-300", "5e-324", "-7.5e3", " 2 ", "3.0000000000000004"]
_FAULTS = ["none"] * 5 + ["ragged", "text", "latin1", "more_columns",
                         "fewer_columns", "nan", "jitter", "comments_only"]


@st.composite
def _odd_csvs(draw):
    """CSV bytes with odd line ends, blank lines and comments, and at most
    one fault, so the error the oracle names is unambiguous."""
    n_channels = draw(st.integers(1, 3))
    n_rows = draw(st.integers(0, 24))
    fault = draw(st.sampled_from(_FAULTS))
    lines = ["time_s," + ",".join(f"c{i}[m/s^2]" for i in range(n_channels))]
    for r in range(n_rows):
        cells = [repr(-1.5 + 0.125 * r)] + [
            draw(st.sampled_from(_CELLS)) for _ in range(n_channels)]
        if draw(st.integers(0, 9)) == 0:
            cells[-1] += " # trailing comment"
        lines.append(",".join(cells))
    data_rows = list(range(1, len(lines)))
    if data_rows and fault != "none":
        at = draw(st.sampled_from(data_rows))
        if fault == "ragged":
            lines[at] = lines[at].rsplit(",", 1)[0]
        elif fault == "text":
            lines[at] = lines[at].rsplit(",", 1)[0] + ",x"
        elif fault == "more_columns":  # every row from here on has one more
            for i in range(at, len(lines)):
                lines[i] += ",4"
        elif fault == "fewer_columns":  # ... or one fewer
            for i in range(at, len(lines)):
                lines[i] = lines[i].rsplit(",", 1)[0]
        elif fault == "nan":
            lines[at] = lines[at].rsplit(",", 1)[0] + ",nan"
        elif fault == "jitter":
            head, rest = lines[at].split(",", 1)
            lines[at] = f"{float(head) + 0.01!r},{rest}"
        elif fault == "comments_only":
            lines[1:] = ["#" + ln for ln in lines[1:]]
    # blank and whitespace-only lines anywhere, the header included
    for _ in range(draw(st.integers(0, 6))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", " ", "\t", "  \t ", "\r"])))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r\r\n"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # no final LF
    data = "".join(ln + end for ln, end in zip(lines, ends)).encode("utf-8")
    if fault == "latin1" and data_rows:
        # a byte that is not UTF-8, inside a late sample row
        cut = data.rfind(b",", 0, max(data.rfind(b"\n", 0, len(data) - 1), 1))
        data = data[:cut + 1] + b"\xff" + data[cut + 1:]
    return data


@pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=_odd_csvs(), span=st.sampled_from([8, 16, 37, 64]))
# a later piece of one column would broadcast into a wider array
@example(data=b"time_s,a[1]\n0,1\n0.5,2\n1\n1.5\n", span=8)
@example(data=b"time_s,a[1]\r\n0,1\r\n\r\n0.5,2\r\r\n  \n1,3", span=8)
def test_span_reader_equals_the_streamed_reader(tmp_path_factory, data, span):
    path = tmp_path_factory.mktemp("odd") / "odd.csv"
    path.write_bytes(data)
    want = _outcome(_streamed_reader, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(timeseries, "_READ_SPAN_BYTES", span)
        _assert_same_outcome(_outcome(load_timeseries, path), want)
        _assert_same_outcome(_outcome(count_samples, path),
                             _outcome(_streamed_count, path))


def test_span_reader_equals_the_streamed_reader_on_shipped_runs(tmp_path):
    examples = Path(timeseries.__file__).parent / "data" / "examples"
    for name in ("scenario_default", "scenario_curved"):
        out = tmp_path / name
        run_pipeline(parse_config(examples / f"{name}.json"), out)
        csvs = sorted(out.glob("*.csv"))
        assert len(csvs) == 5
        for path in csvs:
            got, want = load_timeseries(path), _streamed_reader(path)
            assert multiprocessing.active_children() == []
            _assert_same_outcome(got, want)
            assert hashlib.sha256(got.samples.tobytes()).digest() == \
                hashlib.sha256(want.samples.tobytes()).digest(), path.name


def test_a_load_of_many_pieces_opens_no_pool(tmp_path, monkeypatch):
    path = tmp_path / "demo.csv"
    ts = _demo(n=2 * BLOCK)
    save_timeseries(ts, path)
    monkeypatch.setattr(timeseries, "_READ_SPAN_BYTES", 1 << 14)
    monkeypatch.setattr(timeseries, "_pool_workers", lambda n: 2)
    opened = counted_pools(monkeypatch)
    pieces = []
    parse_rows = timeseries._parse_rows

    def spy(data):
        pieces.append(len(data))
        return parse_rows(data)

    monkeypatch.setattr(timeseries, "_parse_rows", spy)
    back = load_timeseries(path)
    assert len(pieces) > 8 and opened == []
    assert np.array_equal(back.samples, ts.samples) and back.dt == ts.dt


@pytest.mark.skipif(not FORKS, reason="no fork pool on this platform")
def test_only_a_save_of_several_channels_opens_the_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(timeseries, "_pool_workers", lambda n: 2 if n >= 2 else 0)
    opened = counted_pools(monkeypatch)
    wide = _demo(n=2 * BLOCK + 1)
    narrow = TimeSeries(0.0, wide.dt, wide.channels[:1], wide.samples[:, :1])
    with timeseries._Scope() as scope:
        _save_in(scope, narrow, tmp_path / "narrow.csv")
        _save_in(scope, wide.rows(0, BLOCK), tmp_path / "one_block.csv")
        assert opened == [] and scope.pool is None
        _save_in(scope, wide, tmp_path / "wide.csv")
        assert opened == [1]
        scope.wait()
    assert multiprocessing.active_children() == []


def test_reader_parses_in_process_beside_other_threads(tmp_path, monkeypatch):
    path = tmp_path / "demo.csv"
    ts = _demo(n=200)
    save_timeseries(ts, path)
    monkeypatch.setattr(timeseries, "_READ_SPAN_BYTES", 256)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was opened beside another thread")

    monkeypatch.setattr(timeseries, "ProcessPoolExecutor", no_pool)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        back = load_timeseries(path)
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert np.array_equal(back.samples, ts.samples) and back.dt == ts.dt


def _vouched_run(tmp_path, tiny_config):
    """A pipeline directory and the sha256 its report records per file."""
    out = tmp_path / "run"
    run_pipeline(parse_config(tiny_config), out)
    artifacts = json.loads((out / "report.json").read_text())["artifacts"]
    return out, {name: entry["sha256"] for name, entry in artifacts.items()}


def _vouched(sha256, name):
    """The digests of the trace ``name`` and of its twin, as recorded."""
    return sha256[name], sha256[timeseries.twin_path(name).name]


TWINS = ["body_response.npy", "conflict.npy", "seat_motion.npy"]


def test_report_records_each_trace_sha256_rows_and_dt(tmp_path, tiny_config,
                                                     monkeypatch):
    out, _ = _vouched_run(tmp_path, tiny_config)
    report = json.loads((out / "report.json").read_text())
    traces = [p.name for p in out.glob("*.csv")]
    assert sorted(p.name for p in out.glob("*.npy")) == TWINS
    assert sorted(report["artifacts"]) == sorted(traces + TWINS)
    for name, entry in report["artifacts"].items():
        path = out / name
        assert entry["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        rows = count_samples(path) if name.endswith(".csv") else len(np.load(path))
        assert entry["rows"] == rows == 3001
        assert entry["dt"] == load_timeseries(path.with_suffix(".csv")).dt == 0.002
    # the in-process writer hashes the same bytes
    monkeypatch.setattr(timeseries, "_pool_workers", lambda n: 0)
    run_pipeline(parse_config(tiny_config), tmp_path / "serial")
    assert (tmp_path / "serial" / "report.json").read_bytes() == \
        (out / "report.json").read_bytes()


def _assert_twins_are_np_save_of_their_csvs(out):
    assert sorted(p.name for p in out.glob("*.npy")) == TWINS
    for name in TWINS:
        csv = (out / name).with_suffix(".csv")
        cells = csv.read_text(encoding="utf-8").split("\n", 1)[0].split(",")
        parsed = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        table = np.empty(len(parsed), np.dtype([(cell, np.float64) for cell in cells]))
        for i, cell in enumerate(cells):
            table[cell] = parsed[:, i]
        saved = io.BytesIO()
        np.save(saved, table)
        assert (out / name).read_bytes() == saved.getvalue(), name


@pytest.mark.parametrize("fixture, key", [("default_runs", 0), ("curved_runs", "off1"),
                                          ("curved_runs", "on")],
                         ids=["default", "curved", "curved-vision"])
def test_each_twin_is_np_save_of_the_table_its_csv_parses_to(request, fixture, key):
    _assert_twins_are_np_save_of_their_csvs(request.getfixturevalue(fixture)[key])


def test_a_csv_input_run_writes_twins_of_np_save_bytes(tmp_path):
    # a seat record of two blocks and a few rows, of values over many decades
    rng = np.random.default_rng(7)
    seat = rng.standard_normal((2 * BLOCK + 5, 3)) * 10.0 ** rng.integers(-3, 2, (1, 3))
    save_timeseries(from_arrays(0.002, seat, [(f"seat_acc_{a}", "m/s^2") for a in "xyz"]),
                    tmp_path / "seat.csv")
    raw = make_scenario()
    raw["input"] = {"kind": "csv", "path": "seat.csv"}
    (tmp_path / "scenario.json").write_text(json.dumps(raw))
    out = tmp_path / "run"
    run_pipeline(parse_config(tmp_path / "scenario.json"), out)
    _assert_twins_are_np_save_of_their_csvs(out)
    assert len(np.load(out / "seat_motion.npy")) == 2 * BLOCK + 5


@pytest.mark.parametrize("pooled", [True, False], ids=["pooled", "in-process"])
def test_vouched_projected_load_equals_the_full_load(tmp_path, tiny_config,
                                                    monkeypatch, pooled):
    # twins written with and without the writer's pool, each read in blocks
    # of 700 rows, the CSV parsed in 16 KiB pieces
    if not pooled:
        monkeypatch.setattr(timeseries, "_pool_workers", lambda n: 0)
    out, sha256 = _vouched_run(tmp_path, tiny_config)
    path = out / "body_response.csv"
    monkeypatch.setattr(timeseries, "_READ_SPAN_BYTES", 1 << 14)
    monkeypatch.setattr(timeseries, "_BLOCK_ROWS", 700)
    assert path.stat().st_size > 8 * timeseries._READ_SPAN_BYTES
    full = load_timeseries(path)
    for names in (perception.BODY_CHANNELS, comfort.BODY_CHANNELS, None):
        got = timeseries.load_twin(path, _vouched(sha256, path.name), names)
        assert got.channel_names == (full.channel_names if names is None else names)
        _assert_same_outcome(got, full if names is None else full.select(names))
    for name in ("seat_motion.csv", "conflict.csv"):
        _assert_same_outcome(timeseries.load_twin(out / name, _vouched(sha256, name)),
                             load_timeseries(out / name))
    assert multiprocessing.active_children() == []


def _flipped(data, at):
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


def test_projection_needs_a_matching_digest(tmp_path, tiny_config, monkeypatch):
    out, sha256 = _vouched_run(tmp_path, tiny_config)
    path = out / "body_response.csv"
    csv_digest, twin_digest = digests = _vouched(sha256, path.name)
    full = load_timeseries(path)
    parsed = []
    parse_data = timeseries._parse_data

    def spy(fh, max_rows):
        parsed.append(Path(fh.name).name)
        return parse_data(fh, max_rows)

    monkeypatch.setattr(timeseries, "_parse_data", spy)
    names = comfort.BODY_CHANNELS
    assert timeseries.load_twin(path, digests, names).channel_names == names
    # no channels, or all of them: every channel, from the twin as well
    for channels in (None, full.channel_names):
        _assert_same_outcome(timeseries.load_twin(path, digests, channels), full)
    # each of these leaves the CSV to a full parse by the caller
    for wrong, channels in ((("0" * 64, twin_digest), names),    # another CSV digest
                            ((csv_digest, "0" * 64), names),     # another twin digest
                            ((twin_digest, csv_digest), names),  # the two swapped
                            (digests, names + ("nope",))):       # a channel it lacks
        assert timeseries.load_twin(path, wrong, channels) is None, (wrong, channels)
    twin = timeseries.twin_path(path)
    data = twin.read_bytes()
    header = data.index(b"\n") + 1
    for name, edit in (("missing", None), ("cut short", data[:-8]),
                       ("extended", data + bytes(8)),
                       ("a header byte flipped", _flipped(data, 20)),
                       ("a row byte flipped", _flipped(data, (header + len(data)) // 2)),
                       ("a directory", "dir")):
        twin.unlink(missing_ok=True)
        if edit == "dir":
            twin.mkdir()
        elif edit is not None:
            twin.write_bytes(edit)
        assert timeseries.load_twin(path, digests, names) is None, name
        if edit == "dir":
            twin.rmdir()
    twin.write_bytes(data)
    # an edited CSV is never stood in for by its twin
    csv = path.read_bytes()
    path.write_bytes(_flipped(csv, len(csv) // 2))
    assert timeseries.load_twin(path, digests, names) is None
    path.write_bytes(csv)
    _assert_same_outcome(timeseries.load_twin(path, digests, names), full.select(names))
    assert parsed == []  # a twin load parses no text


def test_a_twin_load_peaks_at_its_result_plus_about_one_block(curved_runs):
    out = curved_runs["off1"]
    sha256 = {name: entry["sha256"] for name, entry in
              json.loads((out / "report.json").read_text())["artifacts"].items()}
    path = out / "body_response.csv"
    names = perception.BODY_CHANNELS
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ts = timeseries.load_twin(path, _vouched(sha256, path.name), names)
        held, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert ts.channel_names == names
    result = ts.n_samples * (len(names) + 1) * 8  # the time column and the channels
    block = BLOCK * (24 + 1) * 8  # one block of the twin's rows, 0.8 MB
    assert (out / "body_response.npy").stat().st_size > 20 * block
    assert result <= held < result + (64 << 10)
    assert peak < result + block + (64 << 10), (peak - result) / block
