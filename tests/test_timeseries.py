"""Time-series container and CSV round trip."""

import hashlib
import itertools
import multiprocessing
import os
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ridecomfort.errors import (
    EmptyFile, InvalidRate, MissingChannel, NonFiniteSample,
    NonUniformSampling)
from ridecomfort import timeseries
from ridecomfort.pipeline import parse_config, run_pipeline
from ridecomfort.timeseries import (
    TimeSeries, count_samples, from_arrays, load_timeseries, save_timeseries)

BLOCK = timeseries._BLOCK_ROWS
POOLED = timeseries._pool_workers(2) >= 2  # 2+ blocks or spans use the pool
FORKS = "fork" in multiprocessing.get_all_start_methods()


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
    with pytest.raises(NonFiniteSample):
        load_timeseries(ragged)

    jitter = tmp_path / "jitter.csv"
    jitter.write_text("time_s,acc_x[m/s^2]\n0.0,1.0\n0.001,1.0\n0.0025,1.0\n")
    with pytest.raises(NonUniformSampling):
        load_timeseries(jitter)


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
    with pytest.raises(MissingChannel, match="expected 3 columns, got 2"):
        load("narrow.csv", b"time_s,a[1],b[1]\n0,1\n0.1,2\n")()
    with pytest.raises(NonFiniteSample, match="<unparseable>"):
        load("text.csv", b"time_s,a[1]\n0,x\n")()
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


def _streamed_lines(fh):
    """The line rule before the span reader: non-blank lines, LF or CRLF cut."""
    for ln in fh:
        ln = ln.removesuffix("\n").removesuffix("\r")
        if ln.strip():
            yield ln


def _streamed_count(path):
    """count_samples before the span reader, kept as its oracle."""
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        return max(sum(1 for _ in _streamed_lines(fh)) - 1, 0)


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
    off = np.abs(steps - dt) > timeseries._DT_RTOL * dt
    if off.any():
        row = int(np.argwhere(off)[0][0]) + 1
        raise NonUniformSampling(row, dt, float(steps[row - 1]))
    k = np.arange(len(t))
    candidates = (float(f"{dt:.12g}"), dt, (float(t[-1]) - float(t[0])) / (len(t) - 1))
    dt = min(candidates,
             key=lambda c: float(np.max(np.abs(t[0] + c * k - t))))
    return TimeSeries(float(t[0]), dt, tuple(channels), samples)


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


@pytest.mark.skipif(not FORKS, reason="the pooled reader needs fork")
@pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=_odd_csvs(), span=st.sampled_from([8, 16, 37, 64]))
# a later span of one column would broadcast into a wider array
@example(data=b"time_s,a[1]\n0,1\n0.5,2\n1\n1.5\n", span=8)
@example(data=b"time_s,a[1]\r\n0,1\r\n\r\n0.5,2\r\r\n  \n1,3", span=8)
def test_span_reader_equals_the_streamed_reader(tmp_path_factory, data, span):
    path = tmp_path_factory.mktemp("odd") / "odd.csv"
    path.write_bytes(data)
    want = _outcome(_streamed_reader, path)
    for workers in (lambda n: 0, lambda n: 2 if n >= 2 else 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(timeseries, "_READ_SPAN_BYTES", span)
            mp.setattr(timeseries, "_pool_workers", workers)
            _assert_same_outcome(_outcome(load_timeseries, path), want)
            _assert_same_outcome(_outcome(count_samples, path),
                                 _outcome(_streamed_count, path))
        assert multiprocessing.active_children() == []


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


def _die_parsing(path, lo, hi):
    os._exit(1)


@pytest.mark.skipif(not POOLED, reason="spans are parsed in-process here")
def test_reader_worker_death_is_an_os_error(tmp_path, monkeypatch):
    path = tmp_path / "dead.csv"
    save_timeseries(_demo(n=200), path)
    monkeypatch.setattr(timeseries, "_READ_SPAN_BYTES", 256)
    monkeypatch.setattr(timeseries, "_parse_span", _die_parsing)
    with pytest.raises(OSError, match="cannot read .*dead.csv: a worker"):
        load_timeseries(path)
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
