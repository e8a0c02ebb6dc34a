"""Command-line front end: run whole scenarios or single stages.

Every subcommand reads the same scenario config.  `pipeline` chains all
stages; the stage subcommands (simulate, perceive, sickness, metrics) each
run one stage against the artifacts already present in the output
directory, so running them in sequence reproduces `pipeline` exactly.  Each
of them, like a pipeline run, reads and writes its traces in one
``write_behind`` scope: one writer pool, and every file complete when the
command returns.  They read every trace through ``load_timeseries``
below: `perceive` and `metrics` parse only the body-response channels
they use when the file matches the sha256 that ``report.json`` in the
output directory records for it; otherwise they read it whole.
Exit codes: 0 success, 1 configuration error, 2 stage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import pipeline as pl
from .body import build_model
from .comfort import BODY_CHANNELS as COMFORT_CHANNELS
from .errors import ConfigError, IoError, RideComfortError, StageError
from .perception import BODY_CHANNELS as PERCEPTION_CHANNELS
from .stht import RESPONSE_CHANNELS, run_stht, save_stht_result
from .timeseries import load_timeseries as _load_file


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ridecomfort",
        description="Seated-body vibration, perception and motion-sickness "
                    "simulation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "pipeline": "run every stage in order",
        "simulate": "seat-motion input and body-response stages only",
        "stht": "seat-to-head transmissibility sweep on the configured model",
        "perceive": "perception stage on an existing body_response.csv",
        "sickness": "accumulation stage on an existing conflict.csv",
        "metrics": "weighted comfort metrics on existing motion CSVs",
        "validate": "check a config file and list every problem",
    }
    for name, help_text in commands.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", action="append", required=True,
                        metavar="PATH", help="scenario config JSON "
                        "(repeatable for pipeline batches)")
        if name == "validate":
            continue
        sp.add_argument("--out", metavar="DIR",
                        help="output directory (overrides config output_dir)")
        sp.add_argument("--seed", type=int, metavar="N",
                        help="override the scenario seed")
        sp.add_argument("--axis", choices=("x", "y", "z"),
                        help="override the excitation axis")
        sp.add_argument("--vision", choices=("on", "off"),
                        help="override the visual-channel flag")
        if name == "pipeline":
            sp.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                            help="parallel workers for config batches")
    return parser


def _parse(args, path=None):
    return pl.parse_config(path or args.config[0], seed=args.seed,
                           axis=args.axis, vision=args.vision)


def _out_dir(config, args, create=True):
    out = Path(args.out) if args.out else config.output_dir
    if out is None:
        raise ConfigError([("output_dir",
                            "required (config key or --out option)")])
    if create:
        out.mkdir(parents=True, exist_ok=True)
    return out


def _single_config(args):
    if len(args.config) != 1:
        raise ConfigError([("--config",
                            "this subcommand takes exactly one config")])


def _recorded_sha256(path):
    """The sha256 that ``report.json`` beside the trace ``path`` records
    for it, or None: a missing or malformed report vouches for nothing."""
    try:
        report = json.loads((path.parent / "report.json").read_text(encoding="utf-8"))
        digest = report["artifacts"][path.name]["sha256"]
    except (OSError, ValueError, LookupError, TypeError, RecursionError):
        return None
    return digest if isinstance(digest, str) else None


def load_timeseries(path, channels=None):
    """The trace at ``path`` as a stage command reads it: only ``time_s``
    and ``channels`` (names), when given and the file matches the sha256
    that ``report.json`` beside it records, else all of it."""
    path = Path(path)
    sha256 = _recorded_sha256(path) if channels else None
    return _load_file(path, channels=channels, sha256=sha256)


def _load_artifact(out, name, hint, channels=None):
    """``load_timeseries`` of the trace ``name`` in ``out``, with a missing
    or unreadable file as an IoError."""
    path = Path(out) / name
    if not path.is_file():
        raise IoError(f"{path} not found; run `{hint}` first")
    try:
        return load_timeseries(path, channels)
    except UnicodeDecodeError as exc:
        raise IoError(f"{path} is not UTF-8 text ({exc.reason})") from exc
    except OSError as exc:
        message = str(exc)
        raise IoError(message if str(path) in message
                      else f"cannot read {path}: {message}") from exc


def _run_batch_entry(job):
    path, out, seed, axis, vision = job
    config = pl.parse_config(path, seed=seed, axis=axis, vision=vision)
    report = pl.run_pipeline(config, out)
    return report.summary["final_msi_percent"], str(report.out_dir)


def cmd_pipeline(args):
    if len(args.config) == 1:
        config = _parse(args)
        report = pl.run_pipeline(config, Path(args.out) if args.out else None)
        print(f"pipeline: wrote {report.out_dir} "
              f"(final MSI {report.summary['final_msi_percent']:.3g}%, "
              f"body realtime factor {report.body_realtime_factor:.1f})")
        return 0
    jobs = []
    for path in args.config:
        out = Path(args.out) / Path(path).stem if args.out else None
        # validate everything before launching any work
        pl.parse_config(path, seed=args.seed, axis=args.axis,
                        vision=args.vision)
        jobs.append((path, out, args.seed, args.axis, args.vision))
    with ProcessPoolExecutor(max_workers=args.jobs) as pool:
        for path, (msi, out) in zip(args.config,
                                    pool.map(_run_batch_entry, jobs)):
            print(f"pipeline: {path} -> {out} (final MSI {msi:.3g}%)")
    return 0


def cmd_simulate(args):
    _single_config(args)
    config = _parse(args)
    out = _out_dir(config, args)
    with pl.write_behind():
        seat = pl.stage_input(config, out)
        body, resonances = pl.stage_body(config, out, seat)
    n_peaks = sum(len(v) for v in resonances["peaks"].values())
    print(f"simulate: wrote {out / 'body_response.csv'} "
          f"({body.n_samples} samples, {n_peaks} resonance peaks)")
    return 0


def cmd_stht(args):
    _single_config(args)
    config = _parse(args)
    if config.input_kind != "excitation":
        raise ConfigError([("input.kind",
                            "stht needs a synthetic excitation input")])
    out = _out_dir(config, args)
    try:
        model = build_model(config.body, config.posture)
        result = run_stht(model, config.excitation,
                          welch=config.stht.welch,
                          band_hz=config.stht.band_hz,
                          min_prominence=config.stht.min_prominence,
                          channels=config.stht.channels or RESPONSE_CHANNELS)
    except (RideComfortError, ValueError) as exc:
        if isinstance(exc, (StageError, ConfigError)):
            raise
        raise StageError("stht", exc) from exc
    files = save_stht_result(result, out)
    print(f"stht: axis {result.axis}, {len(files)} files in {out} "
          f"(runtime {result.runtime_s:.2f} s)")
    return 0


def cmd_perceive(args):
    _single_config(args)
    config = _parse(args)
    out = _out_dir(config, args)
    with pl.write_behind():
        body = _load_artifact(out, "body_response.csv", "ridecomfort simulate",
                              PERCEPTION_CHANNELS)
        _, conflict = pl.stage_perception(config, out, body)
    print(f"perceive: wrote {out / 'conflict.csv'} "
          f"({conflict.n_samples} samples)")
    return 0


def cmd_sickness(args):
    _single_config(args)
    config = _parse(args)
    out = _out_dir(config, args)
    with pl.write_behind():
        conflict = _load_artifact(out, "conflict.csv", "ridecomfort perceive")
        _, summary = pl.stage_sickness(config, out, conflict)
    print(f"sickness: final MSI {summary.final_percent:.3g}% "
          f"(peak {summary.peak_percent:.3g}%)")
    return 0


def cmd_metrics(args):
    _single_config(args)
    config = _parse(args)
    out = _out_dir(config, args)
    with pl.write_behind():
        seat, body = (_load_artifact(out, name, "ridecomfort simulate", channels)
                      if (out / name).is_file() else None
                      for name, channels in (("seat_motion.csv", None),
                                             ("body_response.csv", COMFORT_CHANNELS)))
        if seat is None and body is None:
            raise IoError(f"no seat_motion.csv or body_response.csv in {out}")
        report = pl.stage_metrics(config, out, seat, body)
    print(f"metrics: wrote {out / 'comfort.json'} "
          f"(MSDV {report.msdv_m_s15:.3g} m/s^1.5)")
    return 0


def cmd_validate(args):
    status = 0
    for path in args.config:
        errors = pl.validate_config(path)
        if errors:
            status = 1
            print(f"{path}: {len(errors)} problem(s)")
            for field, message in errors:
                print(f"  {field or '(top level)'}: {message}")
        else:
            print(f"{path}: ok")
    return status


_COMMANDS = {
    "pipeline": cmd_pipeline,
    "simulate": cmd_simulate,
    "stht": cmd_stht,
    "perceive": cmd_perceive,
    "sickness": cmd_sickness,
    "metrics": cmd_metrics,
    "validate": cmd_validate,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print("configuration error:", file=sys.stderr)
        for field, message in exc.errors:
            print(f"  {field or '(top level)'}: {message}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RideComfortError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
