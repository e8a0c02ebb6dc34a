"""The streaming chain: seat rows in, every stage's rows out.

Any push size gives the bits of a whole run, and a push of 10 ms of seat
motion takes well under 10 ms.
"""

import json
import time
from dataclasses import asdict, is_dataclass

import numpy as np
import pytest

from conftest import EXAMPLES, make_scenario
from ridecomfort.cli import _STAGE_COMMANDS
from ridecomfort.pipeline import (
    _RESONANCE_CHANNELS, STAGES, Chain, build_config, parse_config, run_stages, stage_input)
from ridecomfort.timeseries import TimeSeries, load_timeseries

_TRACES = ("body_response.csv", "perceived.csv", "conflict.csv", "sickness.csv")
_SUMMARIES = ("resonances.json", "sickness_summary.json", "comfort.json")
# rows per push over the first _SMALL rows, then 4096 per push; None
# pushes the whole record at once
_PUSHES = (1, 7, 10, 4096, None)
_SMALL = 1500


def _cuts(n, size):
    if size is None:
        return [0, n]
    return list(range(0, _SMALL, size)) + list(range(_SMALL, n, 4096)) + [n]


def _json(record):
    return json.loads(json.dumps(asdict(record) if is_dataclass(record) else record))


@pytest.mark.parametrize("vision", ["off", "on"])
def test_every_push_size_gives_the_run_bits(curved_runs, vision):
    run = curved_runs["off1" if vision == "off" else "on"]
    config = parse_config(EXAMPLES / "scenario_curved.json", vision=vision)
    (seat,) = stage_input(config)
    want = {name: load_timeseries(run / name) for name in _TRACES}
    for size in _PUSHES:
        chain = Chain(config, seat.n_samples)
        got = {name: np.empty_like(ts.samples) for name, ts in want.items()}
        cuts = _cuts(seat.n_samples, size)
        for a, b in zip(cuts, cuts[1:]):
            rows = chain.push(seat.rows(a, b))
            for name in _TRACES:
                assert rows[name].n_samples == b - a
                got[name][a:b] = rows[name].samples
        records = chain.close()
        for name, ts in want.items():
            assert records[name].n_samples == ts.n_samples, (size, name)
            assert np.array_equal(got[name], ts.samples), (size, name)
        for name in _SUMMARIES:
            assert _json(records[name]) == json.loads((run / name).read_text()), \
                (size, name)


def test_ten_row_pushes_stay_within_the_real_time_budget():
    # 10 rows at 1 kHz are 10 ms of seat motion: a push through body,
    # perception and sickness must take less than that, without the writer
    config = parse_config(EXAMPLES / "scenario_curved.json")
    (seat,) = stage_input(config)
    assert seat.dt == 0.001
    chain = Chain(config, seat.n_samples, ("body", "perception", "sickness"))
    walls = []
    for i in range(0, 20_000, 10):
        t = time.perf_counter()
        chain.push(seat.rows(i, i + 10))
        walls.append(time.perf_counter() - t)
    assert np.percentile(walls, 99) < 10e-3, np.percentile(walls, [50, 99])


def test_a_push_in_another_channel_order_is_refused():
    # the body core would read its carried lead row in the new order
    config = parse_config(EXAMPLES / "scenario_default.json")
    (seat,) = stage_input(config)
    chain = Chain(config, seat.n_samples)
    chain.push(seat.rows(0, 100))
    zyx = [name for name, _ in reversed(seat.channels)]
    with pytest.raises(ValueError, match="channels"):
        chain.push(seat.rows(100, 200).select(zyx))
    assert chain.n == 100


def test_a_push_that_skips_rows_is_refused():
    config = parse_config(EXAMPLES / "scenario_default.json")
    (seat,) = stage_input(config)
    chain = Chain(config, seat.n_samples)
    chain.push(seat.rows(0, 100))
    with pytest.raises(ValueError, match="continue"):
        chain.push(seat.rows(1100, 1200))
    # within a millionth of a row of where the rows before ended
    late = seat.rows(100, 200)
    chain.push(TimeSeries(late.start_time + 1e-7 * seat.dt, seat.dt, seat.channels,
                          late.samples))
    assert chain.n == 200


def test_the_records_kept_whole_are_those_stages_declares(tmp_path):
    config, errors = build_config(make_scenario())
    assert errors == []
    kept = {"seat_motion.csv": ("seat_acc_x", "seat_acc_y", "seat_acc_z"),
            "body_response.csv": _RESONANCE_CHANNELS, "perceived.csv": (),
            "conflict.csv": (), "sickness.csv": ("msi",)}

    def load(name, channels):
        ts = load_timeseries(tmp_path / name)
        return ts.select(channels) if channels else ts

    runs = {"pipeline": tuple(STAGES)}
    runs.update((command, stages) for command, (stages, _) in _STAGE_COMMANDS.items())
    n = None
    for command, stages in runs.items():
        records = run_stages(config, tmp_path, stages, load)[0]
        traces = {name: ts for name, ts in records.items() if name.endswith(".csv")}
        assert set(traces) == {name for stage in stages for name in STAGES[stage].writes
                               if name.endswith(".csv")}, command
        for name, ts in traces.items():
            n = n or ts.n_samples
            assert ts.channel_names == kept[name], (command, name)
            assert ts.n_samples == n, (command, name)
