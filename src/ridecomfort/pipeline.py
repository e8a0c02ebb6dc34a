"""Configuration-driven scenario runner chaining the simulation stages.

A scenario JSON file describes the seat-motion input, the body model and
posture, perception and accumulation parameters, and metric selection.
``STAGES`` declares what each stage reads and writes, and the whole
records its JSON files are made from.  ``run_stages`` runs stages as one
``Chain``, fed the trace its first stage reads a chunk of rows at a time:
the body, perception and sickness stages each open a core that advances
by a push of rows with the state it carries, and each push hands every
trace's rows to the trace writer under the file name ``STAGES`` gives it.
The chain keeps whole only the channels that ``STAGES`` declares whole;
at close it makes the JSON records from them (the resonances, the
sickness summary and the comfort report) and writes them;
``stage_errors`` makes any failure a StageError of one stage.
``run_pipeline`` runs all five stages in order (input, body,
perception, sickness, metrics), as stage commands run some, through
``run_stages``, and writes a deterministic ``report.json`` (the manifest,
the summary, and each trace's sample rows, dt and sha256) plus a volatile
``timing.json`` holding wall clocks (each stage's total and the part of
it spent writing artifacts, summed over pushes, and the wait at the end
for traces still being written), realtime factors and peak memory.
Keeping timing out of the report makes two runs of the same scenario
byte-identical.  Each trace that some stage reads is written with a binary
twin (``timeseries.twin_path``), which the report records like a trace,
so that a stage command can resume from it without parsing text.

A ``Chain`` with an output directory writes through a writer scope of its
own (``timeseries._Scope``): a push returns once its rows are handed to
the writer's worker processes, which format them while later pushes
compute (the run's thread writes them), and a run holds a few chunks of
rows rather than whole body, perceived and conflict records.  The pool
opens at the first trace of several channels that the run saves, so a run
that saves none (``sickness``, ``metrics``) forks no worker; the traces a
stage command reads are parsed in-process.  A failed trace write fails the
stage that owns the file, since only that file's save raises it.

Each config section is read by ``schema.read`` as the parameter
dataclass behind it, which decides its keys, types, defaults and the JSON
path of every problem, so none of them is restated here.
"""

from __future__ import annotations

import contextlib
import json
import resource
import time
import typing
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

import numpy as np

from .body import BodyParams, PostureConfig, build_model
from .body.integrate import simulate
from .comfort import BODY_CHANNELS as _COMFORT_CHANNELS
from .comfort import MetricsOptions, comfort_report, settling_rows
from .errors import (
    ConfigError, IoError, NonFiniteSample, NonFiniteState, RideComfortError, StageError)
from .excitation import SEAT_CHANNELS, ExcitationSpec, generate_excitation
from .perception import BODY_CHANNELS as _PERCEPTION_CHANNELS
from .perception import PerceptionState, VestibularParams, perceive
from .schema import INVALID, read, read_fields
from .sickness import AccumulatorParams, AccumulatorState, accumulate, summarize
from .spectral import resonance_scan
from .stht import STHTOptions, default_welch_params
from .timeseries import (
    _BLOCK_ROWS, TimeSeries, _Scope, count_samples, load_timeseries, save_json,
    trace_header, twin_path)
# not called here: benchmarks/spans.py getattr-wraps these names on this module
from .spectral import detect_peaks, estimate_frf  # noqa: F401
from .timeseries import save_timeseries  # noqa: F401

SCHEMA_VERSION = 1

# channels scanned for resonance peaks in the run report
_RESONANCE_CHANNELS = (
    "head_acc_x", "head_acc_y", "head_acc_z",
    "head_rotvel_roll", "head_rotvel_pitch", "head_rotvel_yaw",
)
_DEFAULT_RESONANCE_BAND = (0.5, 10.0)
_QUIET_INPUT_RMS = 1e-10

# Longest synthetic input in samples: 10 000 s at 1 kHz, 111 times the
# 90 001 samples of scenario_curved.  A `pipeline` run streams the body,
# perception and sickness records a chunk at a time, and its peak RSS grows
# by about 113 B per sample (scenario_default at 20 s against 200 s, 2-core
# Linux; about 1.1 GB at the cap), so a typo such as duration_s: 1e12 is
# refused before anything is allocated.
MAX_INPUT_SAMPLES = 10_000_000


# -- configuration ------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: every field ready for the stage functions."""

    input_kind: str                     # "excitation" | "csv"
    excitation: ExcitationSpec | None
    input_path: Path | None
    body: BodyParams
    posture: PostureConfig
    perception: VestibularParams
    accumulator: AccumulatorParams
    metrics: MetricsOptions
    stht: STHTOptions
    output_dir: Path | None
    seed: int | None


@dataclass(frozen=True)
class _Model:
    """The ``model`` section: a shipped preset plus BodyParams overrides."""

    preset: str = "default"
    overrides: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _CsvInput:
    """The ``input`` section of kind ``csv``."""

    path: str


@dataclass(frozen=True)
class _Scenario:
    """Top-level keys of a scenario file.

    ``input`` stays raw: its key ``kind`` selects the dataclass it is read
    as, so it has a reader below.
    """

    schema_version: int
    input: dict
    seed: int | None = None
    model: _Model = field(default_factory=_Model)
    posture: PostureConfig = field(default_factory=PostureConfig)
    perception: VestibularParams = field(default_factory=VestibularParams)
    accumulator: AccumulatorParams = field(default_factory=AccumulatorParams)
    metrics: MetricsOptions = field(default_factory=MetricsOptions)
    stht: STHTOptions = field(default_factory=STHTOptions)
    output_dir: str | None = None


def load_config(path):
    """Read a scenario JSON file; IoError on unreadable, ConfigError on bad JSON."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError([("", f"not valid UTF-8: {exc}")]) from exc
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError([("", f"not valid JSON: {exc}")]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([("", "top level must be a JSON object")])
    return raw


def apply_cli_overrides(raw, seed=None, axis=None, vision=None):
    """Fold command-line overrides into a raw config dict (returns a copy)."""
    raw = json.loads(json.dumps(raw))
    if isinstance(raw.get("input"), dict) and raw["input"].get("kind") == "csv":
        errors = [(flag, "applies to an excitation input; a csv input brings "
                   "its own seat motion")
                  for flag, value in (("--seed", seed), ("--axis", axis)) if value is not None]
        if errors:
            raise ConfigError(errors)
    if seed is not None:
        raw["seed"] = seed
        if isinstance(raw.get("input"), dict) and \
                raw["input"].get("kind") == "excitation":
            raw["input"]["seed"] = seed
    if axis is not None and isinstance(raw.get("input"), dict):
        raw["input"]["axis"] = axis  # read only for an excitation input
    if vision is not None:
        per = raw.setdefault("perception", {})
        if isinstance(per, dict):
            vis = per.setdefault("vision", {})
            if isinstance(vis, dict):
                vis["enabled"] = vision == "on"
    return raw


def _read_input(raw, base_dir, seed, errors):
    """(ExcitationSpec, csv path, record length in samples).

    Either the spec or the path is set, as ``input.kind`` selects; the
    length is None when the input is invalid.  The config key ``signal``
    holds the ExcitationSpec field ``kind``, and a top-level ``seed`` fills
    in a missing ``input.seed``.
    """
    raw = dict(raw)
    kind = raw.pop("kind", None)
    if kind == "csv":
        csv = read(_CsvInput, raw, "input", errors)
        if csv is INVALID:
            return None, None, None
        path = base_dir / csv.path
        try:
            if not path.is_file():
                raise IoError(f"file not found: {path}")
            n_samples = count_samples(path)
            if n_samples < 2:  # the input stage would refuse it; say why now
                load_timeseries(path)
        except (OSError, UnicodeDecodeError, RideComfortError) as exc:
            errors.append(("input.path", _unreadable(path, exc)))
            return None, None, None
        if n_samples > MAX_INPUT_SAMPLES:
            errors.append(("input.path", f"{n_samples} samples exceed the budget "
                           f"of {MAX_INPUT_SAMPLES} samples"))
            return None, path.resolve(), None
        return None, path.resolve(), n_samples
    if kind != "excitation":
        errors.append(("input.kind", "must be 'excitation' or 'csv'"))
        return None, None, None
    if seed is not None:
        raw.setdefault("seed", seed)
    elif "seed" not in raw:
        errors.append(("input.seed", "a seed is required for synthetic "
                       "excitation (here or at the top level)"))
    spec = read(ExcitationSpec, raw, "input", errors, keys={"kind": "signal"})
    if spec is INVALID:
        return None, None, None
    if spec.duration_s / spec.dt_s > MAX_INPUT_SAMPLES:
        errors.append(("input.duration_s",
                       f"{spec.duration_s:g} s at dt_s = {spec.dt_s:g} s "
                       f"exceeds the budget of {MAX_INPUT_SAMPLES} samples"))
        return None, None, None
    return spec, None, spec.n_samples


def build_config(raw, base_dir="."):
    """Validate a raw config dict; returns (ScenarioConfig | None, errors)."""
    if not isinstance(raw, dict):
        return None, [("", "top level must be a JSON object")]
    errors = []
    top = read_fields(_Scenario, raw, "", errors)
    version, seed = top.get("schema_version"), top.get("seed")
    if version is not None and version != SCHEMA_VERSION:
        errors.append(("schema_version",
                       f"unsupported version {version}, expected {SCHEMA_VERSION}"))
    if seed is not None and seed < 0:
        errors.append(("seed", "must be >= 0"))
    spec, input_path, n_samples = \
        _read_input(top["input"], Path(base_dir), seed, errors) \
        if "input" in top else (None, None, None)
    welch = top["stht"].welch if "stht" in top else None
    if n_samples is not None and welch is not None \
            and welch.n_segments(n_samples) < 2:
        errors.append(("stht.welch.segment_length",
                       f"{welch.segment_length} leaves fewer than 2 Welch "
                       f"segments in the {n_samples}-sample input record"))
    metrics = top.get("metrics")
    if spec is not None and metrics is not None:
        errors += _settle_errors(metrics, spec.dt_s, n_samples)
    body = None
    if "model" in top:
        try:
            body = BodyParams.from_preset(top["model"].preset, top["model"].overrides)
        except ConfigError as exc:
            errors.extend(exc.errors)
    if body is not None and "posture" in top:
        try:  # a valid parameter set can still be unstable or singular
            with np.errstate(all="ignore"):
                build_model(body, top["posture"])
        except (RideComfortError, ValueError, ArithmeticError) as exc:
            errors.append(("model", f"no usable model: {exc}"))
    if errors:
        return None, errors
    out_dir = top["output_dir"]
    config = ScenarioConfig(
        input_kind="excitation" if spec else "csv", excitation=spec,
        input_path=input_path, body=body, posture=top["posture"],
        perception=top["perception"], accumulator=top["accumulator"],
        metrics=metrics, stht=top["stht"],
        output_dir=Path(out_dir) if out_dir else None, seed=seed)
    return config, []


def _settle_errors(metrics, dt, n_samples):
    """The error at ``metrics.settle_s`` for a record of ``n_samples`` rows
    at ``dt``, by the rule the metrics stage applies, as a list."""
    if metrics.weighted_rms or metrics.msdv:
        try:
            settling_rows(metrics.settle_s, dt, n_samples)
        except ValueError as exc:
            return [("metrics.settle_s", str(exc))]
    return []


def _unreadable(path, exc):
    """What ``validate`` says at ``input.path`` of the csv input ``path``,
    whose read raised ``exc``."""
    return str(exc) if isinstance(exc, RideComfortError) else f"cannot read {path}: {exc}"


def validate_config(path):
    """All validation errors for a config file; empty list means ok.

    A valid ``csv`` input is then read as the input stage reads it, so a
    cell that stage would refuse is reported at ``input.path``, and
    ``metrics.settle_s`` is checked against the record's sample step and
    rows.  ``parse_config`` only counts the rows, so a run parses its seat
    once."""
    try:
        config = parse_config(path)
    except ConfigError as exc:
        return exc.errors
    if config.input_kind != "csv":
        return []
    try:
        (seat,) = stage_input(config)
    except (OSError, UnicodeDecodeError, RideComfortError) as exc:
        return [("input.path", _unreadable(config.input_path, exc))]
    return _settle_errors(config.metrics, seat.dt, seat.n_samples)


def parse_config(path, seed=None, axis=None, vision=None):
    """Load, override and validate; raises ConfigError listing every problem."""
    raw = apply_cli_overrides(load_config(path), seed, axis, vision)
    config, errors = build_config(raw, Path(path).parent)
    if errors:
        raise ConfigError(errors)
    return config


# -- stages -------------------------------------------------------------------

@contextlib.contextmanager
def stage_errors(stage):
    """Run the block as stage ``stage``: a toolkit, value or OS error in it
    becomes a StageError of that stage, a failed trace write included,
    since only the save of the file that failed raises it.  StageError and
    ConfigError pass through unchanged."""
    try:
        yield
    except (StageError, ConfigError):
        raise
    except (RideComfortError, ValueError, OSError) as exc:
        raise StageError(stage, exc) from exc


@contextlib.contextmanager
def _rows_from(first, t0, dt):
    """Errors of a push of the rows of a record from its row ``first`` on,
    numbered in that record, which starts at ``t0``: a bad sample by its
    row in the push, a diverged state by its time, since the body core
    simulates from the row before its push."""
    try:
        yield
    except NonFiniteSample as exc:
        raise NonFiniteSample(exc.channel, first + exc.row) from None
    except NonFiniteState as exc:
        row = round((exc.time - t0) / dt)
        raise NonFiniteState(t0 + row * dt, exc.coordinate, row) from None


def stage_input(config):
    """The seat motion, generated or loaded and normalized."""
    if config.input_kind == "excitation":
        seat = generate_excitation(config.excitation)
    else:
        seat = load_timeseries(config.input_path, schema=SEAT_CHANNELS)
        seat = seat.select([name for name, _ in SEAT_CHANNELS])
    return (seat,)


def _resonance_scan(config, seat, body):
    """Peaks of measured head FRFs against the dominant input axis, by
    ``resonance_scan``'s rule; channels without peaks are left out, and a
    quiet input gives an empty table."""
    rms = {axis: float(np.sqrt(np.mean(seat.channel(f"seat_acc_{axis}") ** 2)))
           for axis in ("x", "y", "z")}
    axis = max(rms, key=rms.get)
    if rms[axis] < _QUIET_INPUT_RMS:
        return {"axis_used": None, "band_hz": None, "peaks": {}}
    welch = config.stht.welch or default_welch_params(seat.n_samples, seat.dt)
    band = config.stht.band_hz or _DEFAULT_RESONANCE_BAND
    drive = f"seat_acc_{axis}"
    scan = resonance_scan(seat.channel(drive),
                          [(name, body.channel(name)) for name in _RESONANCE_CHANNELS],
                          seat.dt, welch, band, config.stht.min_prominence, drive)
    peaks = {name: [[f, g] for f, g in found]
             for name, (_, found) in scan.items() if found}
    return {"axis_used": axis, "band_hz": list(band), "peaks": peaks}


# A core is one stage run a push at a time: called with the rows of the
# trace the stage reads, it returns the rows of each trace the stage
# writes, in STAGES order, from the state it carries from push to push.

def stage_body(config):
    """Open the body core: seat rows in, body-response rows out.  A push
    runs ``simulate`` from the ``BodyState`` at the last seat row of the
    push before, on that row and the new ones, and drops the row given
    already."""
    model = build_model(config.body, config.posture)
    state = last = None  # the BodyState at the last seat row, and that row

    def push(seat):
        nonlocal state, last
        start, lead = seat.start_time, int(last is not None)
        if lead:
            seat = TimeSeries(start - seat.dt, seat.dt, seat.channels,
                              np.vstack([last, seat.samples]))
        body = simulate(model, seat, initial_state=state)
        state, last = body.meta["final_state"], seat.samples[-1:].copy()
        return (TimeSeries(start, body.dt, body.channels, body.samples[lead:]),)
    return push


def stage_perception(config):
    """Open the perception core: body-response rows in, perceived and
    conflict rows out, with a ``PerceptionState``."""
    params, state = config.perception, PerceptionState()
    return lambda body: perceive(body, params, state=state)


def stage_sickness(config):
    """Open the sickness core: conflict rows in, MSI rows out, with an
    ``AccumulatorState``."""
    params, state = config.accumulator, AccumulatorState()
    return lambda conflict: (accumulate(conflict, params, state=state),)


def stage_metrics(config, seat, body):
    return (comfort_report(seat, body, config.metrics.settle_s,
                           config.metrics.weighted_rms, config.metrics.msdv),)


class Stage(typing.NamedTuple):
    """What a stage reads, what it writes, and what its JSON files are made of."""

    reads: tuple   # (trace file, the channels it uses or None for all), in order
    writes: tuple  # its files, traces first, in the order it makes them
    whole: tuple = ()  # the whole records its JSON files are made from, as reads


_METRICS_READS = (("seat_motion.csv", None), ("body_response.csv", _COMFORT_CHANNELS))
STAGES = {
    "input": Stage((), ("seat_motion.csv",)),
    "body": Stage((("seat_motion.csv", None),),
                  ("body_response.csv", "resonances.json"),
                  (("seat_motion.csv", None), ("body_response.csv", _RESONANCE_CHANNELS))),
    "perception": Stage((("body_response.csv", _PERCEPTION_CHANNELS),),
                        ("perceived.csv", "conflict.csv")),
    "sickness": Stage((("conflict.csv", None),),
                      ("sickness.csv", "sickness_summary.json"), (("sickness.csv", None),)),
    "metrics": Stage(_METRICS_READS, ("comfort.json",), _METRICS_READS),
}
_STAGE_FILES = {stage: spec.writes for stage, spec in STAGES.items()}
# the traces some stage reads, each written with its twin
_TWINNED = frozenset(name for spec in STAGES.values() for name, _ in spec.reads)
# the stages run by a core, a push at a time; each reads one trace
_STREAMED = ("body", "perception", "sickness")
# stage -> its JSON records, in STAGES order, from the records its ``whole`` lists
_CLOSE = {
    "body": lambda config, seat, body: (_resonance_scan(config, seat, body),),
    "sickness": lambda config, msi: (summarize(msi, config.accumulator.threshold_percent),),
    "metrics": lambda config, seat, body: stage_metrics(config, seat, body),
}


def _traces(stage):
    return tuple(name for name in STAGES[stage].writes if name.endswith(".csv"))


class Chain:
    """The stages of a run, fed the rows of their first trace a push at a time.

    ``Chain(config, rows, stages, out, seat)`` runs ``stages`` (names in
    STAGES, in order) on a record of at most ``rows`` rows.  ``push(rows)``
    takes the next rows of the trace the first stage reads, as a TimeSeries
    (seat rows for a chain from ``input`` or ``body``) with the channels of
    the first push, starting where the rows before them ended.  It advances
    the body, perception and sickness cores by them, and returns every
    trace's rows for those samples by file name; with an output directory
    ``out``, it also hands each trace's rows to the chain's own writer
    scope (``scope``, a context manager that the caller keeps open over
    the pushes and ``close``), which may read them after the push returns.

    What the chain keeps whole is what ``STAGES`` declares: of each trace
    it is fed or its stages make, the channels that any of its stages lists
    in ``whole``, in one array of ``rows`` rows, or in the seat record
    passed as ``seat``, whose rows the caller then pushes.  For a whole run
    that is the seat, the six resonance channels of the body response and
    the MSI trace.  ``close(load)`` makes each stage's JSON records from
    those whole records, with ``load(file, channels)`` giving the ones no
    stage of the chain makes, writes them to ``out``, and returns every
    record by file name: each JSON record, and each trace as a TimeSeries
    of the channels kept whole (none for the perceived and conflict
    traces).

    A stage that fails stops, and so does every stage after it, and their
    files are removed; the stages before it run on, so their files
    complete.  A failed trace write is a failure of the stage that owns
    the file: its save raises it at that stage's next append, or when
    ``close``, having waited for the last rows, checks each save under its
    own stage.  ``error`` is the first failure, a StageError, which
    ``close`` raises.  ``wall`` and ``write`` hold each stage's time and
    the part of it spent writing, summed over pushes and close; ``wait``
    the wait at close for trace rows still being written.
    """

    def __init__(self, config, rows, stages=("body", "perception", "sickness", "metrics"),
                 out=None, seat=None):
        self.config, self.rows, self.stages = config, rows, tuple(stages)
        self.out = None if out is None else Path(out)
        self.wall = dict.fromkeys(self.stages, 0.0)
        self.write = dict.fromkeys(self.stages, 0.0)
        self.wait, self.error = 0.0, None
        self.live = len(self.stages)  # stages[:live] still run
        self.n = 0  # rows pushed
        self.grid = self.channels = None  # (start_time, dt) and channels of the first push
        # fed seat rows, or the trace its first stage reads
        self.head = "seat_motion.csv" if self.stages[0] in ("input", "body") else \
            STAGES[self.stages[0]].reads[0][0]
        made = {self.head, *(name for stage in self.stages for name in _traces(stage))}
        self.keep = {}  # trace -> the channels kept whole, None for all
        for stage in self.stages:
            for name, channels in STAGES[stage].whole:
                if name in made:
                    kept = self.keep.get(name, ())
                    self.keep[name] = None if None in (kept, channels) else \
                        tuple(dict.fromkeys(kept + channels))
        self.whole = {}  # trace -> (its whole samples, their columns in a push, channels)
        if seat is not None and self.head in self.keep:
            self.whole[self.head] = (seat.samples, None, seat.channels)
        self.saves, self.json = {}, []  # trace file -> its save; JSON files written
        # opens no file or pool until the first trace is saved
        self.scope = None if out is None else _Scope()
        self.cores = {}
        for stage in self.stages:
            if stage in _STREAMED:
                with self._stage(stage):
                    # looked up at each call: a replaced stage function is the one run
                    self.cores[stage] = globals()[f"stage_{stage}"](config)

    @contextlib.contextmanager
    def _stage(self, stage):
        """Run the block as ``stage``, whose failure stops it and the stages
        after it."""
        try:
            with stage_errors(stage):
                yield
        except StageError as exc:
            self.error = self.error or exc
            first = self.stages.index(stage)
            for dead in self.stages[first:self.live]:
                for name in STAGES[dead].writes:
                    if name in self.saves:
                        self.scope.discard(self.saves.pop(name))
                    elif name in self.json:
                        (self.out / name).unlink(missing_ok=True)
            self.live = min(self.live, first)

    def push(self, rows):
        """Advance the stages still running by ``rows``; returns the rows of
        each trace they write, by file name."""
        first, m = self.n, rows.n_samples
        if first + m > self.rows:
            raise ValueError(f"{first + m} rows pushed to a chain of {self.rows}")
        if self.grid is None:
            self.grid, self.channels = (rows.start_time, rows.dt), rows.channels
        elif rows.channels != self.channels:
            raise ValueError(f"rows of channels {list(rows.channel_names)}, the chain's "
                             f"are {[name for name, _ in self.channels]}")
        elif rows.dt != self.grid[1]:
            raise ValueError(f"rows at dt={rows.dt}, the chain at dt={self.grid[1]}")
        elif abs(rows.start_time - (self.grid[0] + first * rows.dt)) > 1e-6 * rows.dt:
            raise ValueError(f"rows from t={rows.start_time:.9g} s do not continue "
                             f"the chain's {first} rows from t={self.grid[0]:.9g} s")
        traces = {self.head: rows}
        self._keep(self.head, rows, first)
        for i, stage in enumerate(self.stages):
            if i >= self.live:
                break
            t = time.perf_counter()
            if stage in self.cores:
                with self._stage(stage), _rows_from(first, *self.grid):
                    fed = traces[STAGES[stage].reads[0][0]]
                    traces.update(zip(_traces(stage), self.cores[stage](fed)))
                    for name in _traces(stage):
                        self._keep(name, traces[name], first)
            t_write = time.perf_counter()
            if self.out is not None:
                for name in _traces(stage):
                    if i < self.live:
                        with self._stage(stage):
                            self._append(name, traces[name], first)
            done = time.perf_counter()
            self.wall[stage] += done - t
            self.write[stage] += done - t_write
        self.n += m
        return {name: traces[name] for stage in self.stages[:self.live]
                for name in _traces(stage)}

    def _keep(self, name, ts, first):
        """Copy the kept channels of ``ts``, rows ``first`` on of trace
        ``name``, into its whole record; a seat passed whole holds them."""
        if name not in self.keep:
            return
        if name not in self.whole:
            cols = [ts.index(c) for c in self.keep[name] or ts.channel_names]
            self.whole[name] = (np.empty((self.rows, len(cols))), cols,
                               [ts.channels[c] for c in cols])
        samples, cols, _ = self.whole[name]
        if cols is not None:
            samples[first:first + ts.n_samples] = ts.samples[:, cols]

    def _append(self, name, ts, first):
        if name not in self.saves:
            self.saves[name] = self.scope.open(self.out / name, trace_header(ts.channels),
                                               self.rows, twin=name in _TWINNED)
        self.scope.append(self.saves[name], ts.samples, *self.grid, first)

    def close(self, load=None):
        """Finish the stages still running and write their JSON records;
        returns every record by file name, or raises the first failure."""
        records = self._close(load)
        if self.error is not None:
            raise self.error
        return records

    def _close(self, load):
        if self.cores and not self.n:
            raise ValueError("the chain was closed before any push")
        for save in self.saves.values():  # no rows follow
            self.scope.done(save)
        grid = None if not self.n else TimeSeries(*self.grid, (), np.empty((self.n, 0)))
        # the records every push reached: the fed trace and those of the stages running
        made = {self.head, *(name for stage in self.stages[:self.live]
                             for name in _traces(stage))}
        records = {name: TimeSeries(*self.grid, channels, samples[:self.n])
                   for name, (samples, _, channels) in self.whole.items() if name in made}
        for i, stage in enumerate(self.stages):
            if i >= self.live:
                break
            if stage not in _CLOSE:
                continue
            # read outside the stage, as a stage command's inputs
            inputs = [records[name] if name in records else load(name, channels)
                      for name, channels in STAGES[stage].whole]
            t = time.perf_counter()
            with self._stage(stage):
                files = STAGES[stage].writes[len(_traces(stage)):]  # after its traces
                records.update(zip(files, _CLOSE[stage](self.config, *inputs)))
                t_write = time.perf_counter()
                for name in files:
                    if self.out is not None:
                        record = records[name]
                        save_json(asdict(record) if is_dataclass(record) else record,
                                  self.out / name)
                        self.json.append(name)
                self.write[stage] += time.perf_counter() - t_write
            self.wall[stage] += time.perf_counter() - t
        t = time.perf_counter()
        if self.scope is not None:
            self.scope.wait()
        self.wait = time.perf_counter() - t
        for name, save in list(self.saves.items()):  # a failed save stops its own stage
            with self._stage(next(s for s in self.stages if name in STAGES[s].writes)):
                self.scope.check(save)
        return {name: records.get(name, grid) for stage in self.stages
                for name in STAGES[stage].writes}


def run_stages(config, out, stages, load=None):
    """Run ``stages``, names in STAGES in order, as one Chain writing to
    ``out``.

    The chain is fed the trace its first stage reads, whole, in pushes of
    ``_BLOCK_ROWS`` rows: the seat record ``stage_input`` makes, or else
    ``load(file, channels)``, which also gives the whole records that no
    stage of this call makes.  The chain's writer scope ends once every
    trace is written, also when a stage fails; a failure is a StageError of
    the stage that failed, a failed write one of the stage that owns the
    file.  Returns the records by file name, as ``Chain.close`` does, each
    stage's wall time and the part of it spent writing, the wait at the
    end for trace writes, and the sha256 of each trace (the chain scope's
    ``digests``).
    """
    t = time.perf_counter()
    head = None
    if stages[0] == "input":
        with stage_errors("input"):
            (head,) = stage_input(config)
    elif stages[0] in _STREAMED:
        head = load(*STAGES[stages[0]].reads[0])
    rows = 0 if head is None else head.n_samples
    chain = Chain(config, rows, stages, out, head if stages[0] == "input" else None)
    with chain.scope:  # ends once every trace is written, also when a push raises
        if stages[0] == "input":
            chain.wall["input"] += time.perf_counter() - t
        for c0 in range(0, rows, _BLOCK_ROWS):
            chain.push(head.rows(c0, c0 + _BLOCK_ROWS))
        head = None  # the chain keeps what it needs
        records = chain.close(load)
    return records, chain.wall, chain.write, chain.wait, chain.scope.digests


# -- pipeline -----------------------------------------------------------------

@dataclass(frozen=True)
class RunReport:
    """Everything one scenario run produced, plus where and how fast."""

    out_dir: Path
    manifest: dict                      # stage -> relative file names
    summary: dict
    stage_wall_s: dict
    stage_write_s: dict                 # the part of stage_wall_s spent writing
    write_wait_s: float                 # the wait at the end for trace writes
    body_realtime_factor: float
    pipeline_realtime_factor: float
    peak_rss_mb: float                  # this process, so far (MB = 1e6 B)
    children_peak_rss_mb: float         # its largest finished worker process
    artifact_bytes: dict                # trace file -> its size on disk
    artifacts: dict                     # trace or twin file -> {"rows", "dt", "sha256"}

    def as_dict(self):
        return {"schema_version": SCHEMA_VERSION,
                "manifest": {k: list(v) for k, v in self.manifest.items()},
                "artifacts": self.artifacts,
                "summary": self.summary}

    def timing_dict(self):
        return {"stage_wall_s": dict(self.stage_wall_s),
                "stage_write_s": dict(self.stage_write_s),
                "write_wait_s": self.write_wait_s,
                "body_realtime_factor": self.body_realtime_factor,
                "pipeline_realtime_factor": self.pipeline_realtime_factor,
                "faster_than_realtime": self.body_realtime_factor > 1.0,
                "peak_rss_mb": self.peak_rss_mb,
                "children_peak_rss_mb": self.children_peak_rss_mb,
                "artifact_bytes": dict(self.artifact_bytes),
                "artifact_rows": {name: entry["rows"] for name, entry
                                  in self.artifacts.items()}}


def output_dir(config, out):
    """The output directory, created if missing: ``out`` when given, else
    the config's.  ConfigError when neither names one, IoError when it
    cannot be created."""
    out = Path(out) if out else config.output_dir
    if out is None:
        raise ConfigError([("output_dir",
                            "required (config key or --out option)")])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out}: "
                      f"{exc.strerror or exc}") from exc
    return out


def run_pipeline(config, out_dir=None):
    """Execute every stage in order and persist all artifacts.

    Returns a RunReport.  ``report.json`` contains only deterministic
    content, each trace's sha256 included; wall clocks and realtime
    factors go to ``timing.json`` so the artifact tree is byte-identical
    across runs of the same scenario.  Both are written after every trace
    is on disk and every writer process has ended.
    """
    out = output_dir(config, out_dir)
    t0 = time.perf_counter()
    records, wall, write, wait, digests = run_stages(config, out, tuple(STAGES))
    total_wall = time.perf_counter() - t0
    seat, body = records["seat_motion.csv"], records["body_response.csv"]
    sick = records["sickness_summary.json"]
    traces = {name: ts for name, ts in records.items() if name.endswith(".csv")}
    # every trace and twin file, with the record whose rows it holds
    files = traces | {twin_path(name).name: traces[name] for name in _TWINNED}
    body_compute = wall["body"] - write["body"]  # simulate, the kept rows and the scan

    head_rms = {axis: float(np.sqrt(np.mean(
        body.channel(f"head_acc_{axis}") ** 2))) for axis in ("x", "y", "z")}
    summary = {
        "duration_s": seat.duration,
        "head_rms_m_s2": head_rms,
        "resonances": records["resonances.json"],
        "final_msi_percent": sick.final_percent,
        "peak_msi_percent": sick.peak_percent,
        "comfort": records["comfort.json"].as_dict(),
    }
    report = RunReport(
        out_dir=out,
        manifest=dict(_STAGE_FILES),
        summary=summary,
        stage_wall_s=wall,
        stage_write_s=write,
        write_wait_s=wait,
        body_realtime_factor=seat.duration / body_compute if body_compute > 0
        else float("inf"),
        pipeline_realtime_factor=seat.duration / max(total_wall, 1e-12),
        # ru_maxrss counts KiB on Linux
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        children_peak_rss_mb=resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6,
        # every trace is complete, and hashed, now that the scope has ended
        artifact_bytes={name: (out / name).stat().st_size for name in files},
        artifacts={name: {"rows": ts.n_samples, "dt": ts.dt,
                          "sha256": digests[out / name]}
                   for name, ts in files.items()},
    )
    save_json(report.as_dict(), out / "report.json")
    save_json(report.timing_dict(), out / "timing.json")
    return report
