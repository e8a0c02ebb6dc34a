"""Time-series container, CSV round trip and resampling."""

import multiprocessing
import os
import threading

import numpy as np
import pytest

from ridecomfort.errors import (
    EmptyFile, InvalidRate, MissingChannel, NonFiniteSample,
    NonUniformSampling)
from ridecomfort import timeseries
from ridecomfort.timeseries import (
    TimeSeries, count_samples, from_arrays, load_timeseries, resample,
    save_timeseries)

BLOCK = timeseries._BLOCK_ROWS
POOLED = timeseries._pool_workers(2) >= 2  # saves of 2+ blocks use the pool


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
    with pytest.raises(MissingChannel, match="expected 3 columns, got 2"):
        load("narrow.csv", b"time_s,a[1],b[1]\n0,1\n0.1,2\n")()
    with pytest.raises(NonFiniteSample, match="<unparseable>"):
        load("text.csv", b"time_s,a[1]\n0,x\n")()
    with pytest.raises(UnicodeDecodeError):
        load("latin1.csv", b"time_s,a[1]\n0,1\n0.1,\xff\n")()
    # one CR before each LF is dropped, as the whole-text reader did
    two = load("crcrlf.csv", b"time_s,a[1]\r\n0,1\r\r\n0.1,2\n")()
    assert two.samples.tolist() == [[1.0], [2.0]]
    # a blank line before the header, CRLF and one sample
    one = load("one.csv", b"\r\ntime_s,a[1]\r\n2.5,-0\r\n")()
    assert one.start_time == 2.5 and one.n_samples == 1
    assert np.signbit(one.samples[0, 0])


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


def test_resample_preserves_signal():
    dt = 0.001
    t = np.arange(4000) * dt
    x = np.sin(2 * np.pi * 3.0 * t)
    ts = from_arrays(dt, x[:, None], [("acc_z", "m/s^2")])
    down = resample(ts, 0.004)
    assert down.dt == 0.004
    t2 = down.time()
    ref = np.sin(2 * np.pi * 3.0 * t2)
    assert np.max(np.abs(down.channel("acc_z") - ref)) < 0.02
