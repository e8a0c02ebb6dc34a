"""Configuration-driven scenario runner chaining the simulation stages.

A scenario JSON file describes the seat-motion input, the body model and
posture, perception and accumulation parameters, and metric selection.
``run_pipeline`` executes the stages in order (input, body, perception,
sickness, metrics), persists every intermediate trace to the output
directory, and writes a deterministic ``report.json`` plus a volatile
``timing.json`` holding wall clocks (each stage's total, the part of it
spent writing artifacts, and the wait at the end for traces still being
written), realtime factors and peak memory.  Keeping timing out of the
report makes two runs of the same scenario byte-identical.

A run, like each stage command, is one ``write_behind`` scope: a trace
save returns once its rows are handed to the writer's worker processes,
so they are formatted while later stages compute.

The config reader is derived from the parameter dataclasses: each key's
type is its field's annotation and each omitted key takes the field's
default, so no default is restated here.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .body import BodyParams, PostureConfig, build_model
from .body.integrate import simulate
from .comfort import comfort_report
from .errors import ConfigError, IoError, RideComfortError, StageError
from .excitation import SEAT_CHANNELS, ExcitationSpec, generate_excitation
from .perception import VestibularParams, perceive
from .sickness import AccumulatorParams, accumulate, summarize
from .spectral import detect_peaks, estimate_frf
from .stht import STHTOptions, default_welch_params
from .timeseries import (
    _FileError, _write_behind, count_samples, load_timeseries, save_json,
    save_timeseries)

SCHEMA_VERSION = 1

STAGE_ORDER = ("input", "body", "perception", "sickness", "metrics")

# channels scanned for resonance peaks in the run report
_RESONANCE_CHANNELS = (
    "head_acc_x", "head_acc_y", "head_acc_z",
    "head_rotvel_roll", "head_rotvel_pitch", "head_rotvel_yaw",
)
_DEFAULT_RESONANCE_BAND = (0.5, 10.0)
_QUIET_INPUT_RMS = 1e-10

# Longest synthetic input in samples: 10 000 s at 1 kHz, 111 times the
# 90 001 samples of scenario_curved.  The body response alone holds 24
# float64 channels per sample (about 1.9 GB at the cap), so a typo such as
# duration_s: 1e12 is refused before anything is allocated.
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
    metrics_rms: bool
    metrics_msdv: bool
    metrics_settle_s: float
    stht: STHTOptions
    output_dir: Path | None
    seed: int | None


@dataclass(frozen=True)
class _Metrics:
    """The ``metrics`` section."""

    weighted_rms: bool = True
    msdv: bool = True
    settle_s: float = 0.0

    def validate(self):
        if self.settle_s < 0:
            raise ValueError("settle_s must be >= 0")


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

    ``input`` and ``perception`` stay raw: each has a key that is not a
    dataclass field (``kind``, ``anticipation``), so each has a reader below.
    """

    schema_version: int
    input: dict
    seed: int | None = None
    model: _Model = field(default_factory=_Model)
    posture: PostureConfig = field(default_factory=PostureConfig)
    perception: dict = field(default_factory=dict)
    accumulator: AccumulatorParams = field(default_factory=AccumulatorParams)
    metrics: _Metrics = field(default_factory=_Metrics)
    stht: STHTOptions = field(default_factory=STHTOptions)
    output_dir: str | None = None


# Python types that each annotation accepts; a JSON number may be an integer
_ACCEPTS = {bool: bool, int: int, float: (int, float), str: str,
            tuple: list, dict: dict}

_INVALID = object()  # a value whose problems are already in the error list
_hints = cache(typing.get_type_hints)  # one entry per dataclass read here


def _fail(errors, path, message):
    errors.append((path, message))
    return _INVALID


def _value(hint, value, path, errors):
    """``value`` checked against the annotation ``hint``, or _INVALID.

    JSON arrays become tuples and JSON objects under a dataclass annotation
    become instances.  Every problem is reported at its leaf path.
    """
    args = typing.get_args(hint)
    if type(None) in args:  # an optional field: X | None
        if value is None:
            return None
        hint, args = args[0], typing.get_args(args[0])
    kind = dict if is_dataclass(hint) else typing.get_origin(hint) or hint
    if not isinstance(value, _ACCEPTS[kind]) or (
            isinstance(value, bool) and kind is not bool):
        wanted = "number" if kind is float else _ACCEPTS[kind].__name__
        return _fail(errors, path,
                     f"expected {wanted}, got {type(value).__name__}")
    if is_dataclass(hint):
        return _read(hint, value, path, errors)
    # also false for NaN and for integers too large for a float
    if kind is float and not abs(value) <= sys.float_info.max:
        return _fail(errors, path, "must be a finite number")
    if kind is tuple:
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            return _fail(errors, path,
                         f"expected {len(args)} elements, got {len(value)}")
        items = tuple(_value(t, v, f"{path}[{i}]", errors)
                      for i, (t, v) in enumerate(zip(args, value)))
        return _INVALID if any(v is _INVALID for v in items) else items
    if kind is dict and args:
        items = {k: _value(args[1], v, f"{path}.{k}", errors)
                 for k, v in value.items()}
        return _INVALID if any(v is _INVALID for v in items.values()) else items
    return value


def _fields(cls, raw, path, errors, keys={}, partial=False):
    """Checked constructor arguments of dataclass ``cls`` from the dict ``raw``.

    A field's config key is its name unless ``keys`` renames it, and its
    type is the field's annotation.  Omitted keys take the field's default;
    a field without one is required unless ``partial``.  Unknown keys are
    errors.  Keys with a problem are left out of the result.
    """
    hints, kwargs = _hints(cls), {}
    known = {keys.get(f.name, f.name) for f in fields(cls)}
    for f in fields(cls):
        key = keys.get(f.name, f.name)
        leaf = f"{path}.{key}" if path else key
        if key in raw:
            value = _value(hints[f.name], raw[key], leaf, errors)
            if value is not _INVALID:
                kwargs[f.name] = value
        elif f.default is not MISSING:
            kwargs[f.name] = f.default
        elif f.default_factory is not MISSING:
            kwargs[f.name] = f.default_factory()
        elif not partial:
            errors.append((leaf, "required key is missing"))
    for key in sorted(set(raw) - known, key=str):
        errors.append((f"{path}.{key}" if path else str(key), "unknown key"))
    return kwargs


def _read(cls, raw, path, errors, keys={}):
    """Instance of dataclass ``cls`` from the dict ``raw``, or _INVALID.

    After the type checks, the class's own ``validate()`` checks ranges.  A
    ConfigError from it carries full paths; another error goes to the key
    its message starts with, or else to ``path``.
    """
    kwargs = _fields(cls, raw, path, errors, keys)
    if len(kwargs) < len(fields(cls)):  # a field is missing or invalid
        return _INVALID
    try:
        obj = cls(**kwargs)
        if hasattr(obj, "validate"):
            obj.validate()
    except ConfigError as exc:
        errors.extend(exc.errors)
        return _INVALID
    except (RideComfortError, ValueError) as exc:
        name = str(exc).split(" ", 1)[0]
        if name in kwargs:
            path = f"{path}.{keys.get(name, name)}"
        return _fail(errors, path, str(exc))
    return obj


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
    if seed is not None:
        raw["seed"] = seed
        if isinstance(raw.get("input"), dict) and \
                raw["input"].get("kind") == "excitation":
            raw["input"]["seed"] = seed
    if axis is not None and isinstance(raw.get("input"), dict) and \
            raw["input"].get("kind") == "excitation":
        raw["input"]["axis"] = axis
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
        csv = _read(_CsvInput, raw, "input", errors)
        if csv is _INVALID:
            return None, None, None
        path = base_dir / csv.path
        if not path.is_file():
            return None, _fail(errors, "input.path", f"file not found: {path}"), None
        try:
            n_samples = count_samples(path)
        except (OSError, UnicodeDecodeError) as exc:
            return None, _fail(errors, "input.path", f"cannot read {path}: {exc}"), None
        if n_samples < 2:  # the input stage would refuse it; say why now
            try:
                load_timeseries(path)
            except RideComfortError as exc:
                return None, _fail(errors, "input.path", str(exc)), None
        if n_samples > MAX_INPUT_SAMPLES:
            errors.append(("input.path", f"{n_samples} samples exceed the budget "
                           f"of {MAX_INPUT_SAMPLES} samples"))
            return None, path.resolve(), None
        return None, path.resolve(), n_samples
    if kind != "excitation":
        return None, _fail(errors, "input.kind", "must be 'excitation' or 'csv'"), None
    if seed is not None:
        raw.setdefault("seed", seed)
    elif "seed" not in raw:
        errors.append(("input.seed", "a seed is required for synthetic "
                       "excitation (here or at the top level)"))
    spec = _read(ExcitationSpec, raw, "input", errors, keys={"kind": "signal"})
    if spec is _INVALID:
        return spec, None, None
    if spec.duration_s / spec.dt_s > MAX_INPUT_SAMPLES:
        errors.append(("input.duration_s",
                       f"{spec.duration_s:g} s at dt_s = {spec.dt_s:g} s "
                       f"exceeds the budget of {MAX_INPUT_SAMPLES} samples"))
        return spec, None, None
    return spec, None, spec.n_samples


def _read_model(model, errors):
    """BodyParams from a ``model`` section: its preset with the overrides."""
    overrides = _fields(BodyParams, model.overrides, "model.overrides",
                        errors, partial=True)
    try:
        return BodyParams.from_preset(model.preset, overrides)
    except ConfigError as exc:
        for path, msg in exc.errors:
            leaf = path.rsplit(".", 1)[-1]
            if leaf in overrides and not path.startswith("model.overrides"):
                path = f"model.overrides.{leaf}"
            errors.append((path, msg))


def build_config(raw, base_dir="."):
    """Validate a raw config dict; returns (ScenarioConfig | None, errors)."""
    if not isinstance(raw, dict):
        return None, [("", "top level must be a JSON object")]
    errors = []
    top = _fields(_Scenario, raw, "", errors)
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
    body = _read_model(top["model"], errors) if "model" in top else None
    if body is not None and "posture" in top:
        try:  # a valid parameter set can still be unstable or singular
            with np.errstate(all="ignore"):
                build_model(body, top["posture"])
        except (RideComfortError, ValueError, ArithmeticError) as exc:
            errors.append(("model", f"no usable model: {exc}"))
    perception = dict(top.get("perception", {}))
    if perception.pop("anticipation", False) is not False:
        errors.append(("perception.anticipation",
                       "anticipatory expectation is not implemented; "
                       "must be false"))
    perception = _read(VestibularParams, perception, "perception", errors)
    if errors:
        return None, errors
    metrics, out_dir = top["metrics"], top["output_dir"]
    config = ScenarioConfig(
        input_kind="excitation" if spec else "csv", excitation=spec,
        input_path=input_path, body=body, posture=top["posture"],
        perception=perception, accumulator=top["accumulator"],
        metrics_rms=metrics.weighted_rms, metrics_msdv=metrics.msdv,
        metrics_settle_s=float(metrics.settle_s), stht=top["stht"],
        output_dir=Path(out_dir) if out_dir else None, seed=seed)
    return config, []


def validate_config(path):
    """All validation errors for a config file; empty list means ok."""
    try:
        parse_config(path)
    except ConfigError as exc:
        return exc.errors
    return []


def parse_config(path, seed=None, axis=None, vision=None):
    """Load, override and validate; raises ConfigError listing every problem."""
    raw = apply_cli_overrides(load_config(path), seed, axis, vision)
    config, errors = build_config(raw, Path(path).parent)
    if errors:
        raise ConfigError(errors)
    return config


# -- stages -------------------------------------------------------------------

# Wall time spent in artifact writers since import: the caller's blocked
# time, which for a trace save in a write_behind scope is its submission.
# run_pipeline reads it only as a difference across one stage call, so it
# is never reset.
_write_s = 0.0


def _timed_save(save, obj, path):
    """``save(obj, path)``, with its wall time added to ``_write_s``."""
    global _write_s
    t = time.perf_counter()
    try:
        save(obj, path)
    finally:
        _write_s += time.perf_counter() - t


def _saver(exc, stage):
    """``stage``, or the earlier stage that saved the file a failed trace
    write names: it completes behind the run, so it can fail in a later
    stage's call."""
    if not isinstance(exc, _FileError):
        return stage
    done = STAGE_ORDER[:STAGE_ORDER.index(stage) + 1]
    return next((s for s in done if exc.path.name in _STAGE_FILES[s]), stage)


def _wrap(stage):
    def deco(fn):
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except (RideComfortError, ValueError, OSError) as exc:
                if isinstance(exc, StageError):
                    raise
                raise StageError(_saver(exc, stage), exc) from exc
        return run
    return deco


@contextlib.contextmanager
def write_behind():
    """One scope of trace saves for a run or a stage command.

    Inside it ``save_timeseries`` returns once the rows are submitted to
    the writer's pool; they are written by later saves and loads and at
    the end of the scope, which waits for all of them, also when a stage
    fails.  A save that fails behind is a StageError of the stage that
    saved the file.
    """
    try:
        with _write_behind():
            yield
    except _FileError as exc:
        raise StageError(_saver(exc, STAGE_ORDER[-1]), exc) from exc


@_wrap("input")
def stage_input(config, out_dir):
    """Generate or load the seat motion and persist the normalized record."""
    if config.input_kind == "excitation":
        seat = generate_excitation(config.excitation)
    else:
        seat = load_timeseries(config.input_path, schema=SEAT_CHANNELS)
        seat = seat.select([name for name, _ in SEAT_CHANNELS])
    _timed_save(save_timeseries, seat, Path(out_dir) / "seat_motion.csv")
    return seat


def _resonance_scan(config, seat, body):
    """Peaks of measured head FRFs against the dominant input axis.

    Quiet inputs, or inputs without broadband content, yield no valid bins
    and therefore an empty peak table.
    """
    rms = {axis: float(np.sqrt(np.mean(seat.channel(f"seat_acc_{axis}") ** 2)))
           for axis in ("x", "y", "z")}
    axis = max(rms, key=rms.get)
    if rms[axis] < _QUIET_INPUT_RMS:
        return {"axis_used": None, "band_hz": None, "peaks": {}}
    welch = config.stht.welch or default_welch_params(seat.n_samples, seat.dt)
    band = config.stht.band_hz or _DEFAULT_RESONANCE_BAND
    x = seat.channel(f"seat_acc_{axis}")
    peaks = {}
    lo, hi = band
    for name in _RESONANCE_CHANNELS:
        frf = estimate_frf(x, body.channel(name), seat.dt, welch,
                           input_channel=f"seat_acc_{axis}",
                           output_channel=name)
        lo_c = max(lo, float(frf.freqs[1]))
        hi_c = min(hi, float(frf.freqs[-1]))
        if lo_c >= hi_c:
            continue
        in_band = frf.band(lo_c, hi_c)
        if np.count_nonzero(frf.valid & in_band) < 0.5 * np.count_nonzero(in_band):
            continue
        found = detect_peaks(frf, (lo_c, hi_c), config.stht.min_prominence)
        if found:
            peaks[name] = [[f, g] for f, g in found]
    return {"axis_used": axis, "band_hz": [lo, hi], "peaks": peaks}


@_wrap("body")
def stage_body(config, out_dir, seat):
    """Simulate the seated-body response and scan it for resonances."""
    model = build_model(config.body, config.posture)
    body = simulate(model, seat)
    _timed_save(save_timeseries, body, Path(out_dir) / "body_response.csv")
    resonances = _resonance_scan(config, seat, body)
    _timed_save(save_json, resonances, Path(out_dir) / "resonances.json")
    return body, resonances


@_wrap("perception")
def stage_perception(config, out_dir, body):
    perceived, conflict = perceive(body, config.perception)
    _timed_save(save_timeseries, perceived, Path(out_dir) / "perceived.csv")
    _timed_save(save_timeseries, conflict, Path(out_dir) / "conflict.csv")
    return perceived, conflict


@_wrap("sickness")
def stage_sickness(config, out_dir, conflict):
    trace = accumulate(conflict, config.accumulator)
    _timed_save(save_timeseries, trace, Path(out_dir) / "sickness.csv")
    summary = summarize(trace)
    _timed_save(save_json, asdict(summary), Path(out_dir) / "sickness_summary.json")
    return trace, summary


@_wrap("metrics")
def stage_metrics(config, out_dir, seat, body):
    report = comfort_report(seat, body, config.metrics_settle_s,
                            config.metrics_rms, config.metrics_msdv)
    _timed_save(save_json, report.as_dict(), Path(out_dir) / "comfort.json")
    return report


_STAGE_FILES = {
    "input": ("seat_motion.csv",),
    "body": ("body_response.csv", "resonances.json"),
    "perception": ("perceived.csv", "conflict.csv"),
    "sickness": ("sickness.csv", "sickness_summary.json"),
    "metrics": ("comfort.json",),
}


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

    def as_dict(self):
        return {"schema_version": SCHEMA_VERSION,
                "manifest": {k: list(v) for k, v in self.manifest.items()},
                "summary": self.summary}

    def timing_dict(self):
        return {"stage_wall_s": dict(self.stage_wall_s),
                "stage_write_s": dict(self.stage_write_s),
                "write_wait_s": self.write_wait_s,
                "body_realtime_factor": self.body_realtime_factor,
                "pipeline_realtime_factor": self.pipeline_realtime_factor,
                "faster_than_realtime": self.body_realtime_factor > 1.0,
                "peak_rss_mb": self.peak_rss_mb,
                "children_peak_rss_mb": self.children_peak_rss_mb}


def run_pipeline(config, out_dir=None):
    """Execute every stage in order and persist all artifacts.

    Returns a RunReport.  ``report.json`` contains only deterministic
    content; wall clocks and realtime factors go to ``timing.json`` so the
    artifact tree is byte-identical across runs of the same scenario.  Both
    are written after every trace is on disk and every writer process has
    ended.
    """
    out = Path(out_dir) if out_dir is not None else config.output_dir
    if out is None:
        raise ConfigError([("output_dir",
                            "required (config key or --out option)")])
    out.mkdir(parents=True, exist_ok=True)
    wall, write = {}, {}

    def run(stage, fn, *args):
        t, written = time.perf_counter(), _write_s
        result = fn(*args)
        wall[stage] = time.perf_counter() - t
        write[stage] = _write_s - written
        return result

    t0 = time.perf_counter()
    with write_behind():
        seat = run("input", stage_input, config, out)
        body, resonances = run("body", stage_body, config, out, seat)
        _, conflict = run("perception", stage_perception, config, out, body)
        _, sick = run("sickness", stage_sickness, config, out, conflict)
        comfort = run("metrics", stage_metrics, config, out, seat, body)
        t_wait = time.perf_counter()
    t_end = time.perf_counter()
    total_wall = t_end - t0

    head_rms = {axis: float(np.sqrt(np.mean(
        body.channel(f"head_acc_{axis}") ** 2))) for axis in ("x", "y", "z")}
    summary = {
        "duration_s": seat.duration,
        "head_rms_m_s2": head_rms,
        "resonances": resonances,
        "final_msi_percent": sick.final_percent,
        "peak_msi_percent": sick.peak_percent,
        "comfort": comfort.as_dict(),
    }
    report = RunReport(
        out_dir=out,
        manifest={stage: _STAGE_FILES[stage] for stage in STAGE_ORDER},
        summary=summary,
        stage_wall_s=wall,
        stage_write_s=write,
        write_wait_s=t_end - t_wait,
        body_realtime_factor=float(body.meta["realtime_factor"]),
        pipeline_realtime_factor=seat.duration / max(total_wall, 1e-12),
        # ru_maxrss counts KiB on Linux
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        children_peak_rss_mb=resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6,
    )
    save_json(report.as_dict(), out / "report.json")
    save_json(report.timing_dict(), out / "timing.json")
    return report
