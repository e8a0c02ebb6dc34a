"""Command-line front end: run whole scenarios or single stages.

Every subcommand reads the same scenario config.  `pipeline` chains all
stages.  The stage commands (simulate, perceive, sickness, metrics) run the
stages ``_STAGE_COMMANDS`` names through ``pipeline.run_stages``, like a
run: at most one writer pool, and every file complete when the command returns.
Traces their stages read and do not write come from the output directory,
as ``pipeline.STAGES`` lists them, so running the commands in sequence
reproduces `pipeline` exactly.  ``load_timeseries`` below reads each: from
its binary twin, only the channels its stage uses, when ``report.json``
there records the sha256 of both files and both match, otherwise by parsing
the whole CSV.
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
from .errors import ConfigError, IoError, RideComfortError
from .stht import RESPONSE_CHANNELS, run_stht, save_stht_result
from .timeseries import load_timeseries as _load_file
from .timeseries import load_twin, twin_path


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


def _single_config(args):
    if len(args.config) != 1:
        raise ConfigError([("--config",
                            "this subcommand takes exactly one config")])


def _recorded_sha256(path):
    """The sha256 digests that ``report.json`` beside the trace ``path``
    records for it and for its twin, or None: a missing or malformed report
    vouches for nothing."""
    try:
        report = json.loads((path.parent / "report.json").read_text(encoding="utf-8"))
        digests = tuple(report["artifacts"][name]["sha256"]
                        for name in (path.name, twin_path(path).name))
    except (OSError, ValueError, LookupError, TypeError, RecursionError):
        return None
    return digests if all(isinstance(d, str) for d in digests) else None


def load_timeseries(path, channels=None):
    """The trace at ``path`` as a stage command reads it: ``time_s`` and
    ``channels`` (names, all when None) from its twin, when ``report.json``
    beside it vouches for both files and both match, else the whole CSV."""
    path = Path(path)
    sha256 = _recorded_sha256(path)
    ts = None if sha256 is None else load_twin(path, sha256, channels)
    return _load_file(path) if ts is None else ts


def _load_artifact(path, channels):
    """``load_timeseries`` of the trace at ``path``, with a missing or
    unreadable file as an IoError; a missing one names the stage command
    that writes it."""
    if not path.is_file():
        stage = next(s for s, spec in pl.STAGES.items() if path.name in spec.writes)
        command = next(c for c, (stages, _) in _STAGE_COMMANDS.items() if stage in stages)
        raise IoError(f"{path} not found; run `ridecomfort {command}` first")
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
        report = pl.run_pipeline(config, args.out)
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
    status = 0
    with ProcessPoolExecutor(max_workers=args.jobs) as pool:
        # every job's result or error, reported in config order
        futures = [pool.submit(_run_batch_entry, job) for job in jobs]
        for path, future in zip(args.config, futures):
            try:
                msi, out = future.result()
            except RideComfortError as exc:
                print(f"error: {path}: {exc}", file=sys.stderr)
                status = 2
            else:
                print(f"pipeline: {path} -> {out} (final MSI {msi:.3g}%)")
    return status


def cmd_stht(args):
    _single_config(args)
    config = _parse(args)
    if config.input_kind != "excitation":
        raise ConfigError([("input.kind",
                            "stht needs a synthetic excitation input")])
    out = pl.output_dir(config, args.out)
    with pl.stage_errors("stht"):
        model = build_model(config.body, config.posture)
        result = run_stht(model, config.excitation,
                          welch=config.stht.welch,
                          band_hz=config.stht.band_hz,
                          min_prominence=config.stht.min_prominence,
                          channels=config.stht.channels or RESPONSE_CHANNELS)
        files = save_stht_result(result, out)
    print(f"stht: axis {result.axis}, {len(files)} files in {out} "
          f"(runtime {result.runtime_s:.2f} s)")
    return 0


# stage command -> (the stages it runs, its report from the output
# directory and the records by file name)
_STAGE_COMMANDS = {
    "simulate": (("input", "body"), lambda out, r: (
        f"wrote {out / 'body_response.csv'} ({r['body_response.csv'].n_samples} "
        f"samples, {sum(map(len, r['resonances.json']['peaks'].values()))} "
        "resonance peaks)")),
    "perceive": (("perception",), lambda out, r: (
        f"wrote {out / 'conflict.csv'} ({r['conflict.csv'].n_samples} samples)")),
    "sickness": (("sickness",), lambda out, r: (
        f"final MSI {r['sickness_summary.json'].final_percent:.3g}% "
        f"(peak {r['sickness_summary.json'].peak_percent:.3g}%)")),
    "metrics": (("metrics",), lambda out, r: (
        f"wrote {out / 'comfort.json'} "
        f"(MSDV {r['comfort.json'].msdv_m_s15:.3g} m/s^1.5)")),
}


def cmd_stage(args):
    _single_config(args)
    config = _parse(args)
    out = pl.output_dir(config, args.out)
    stages, report = _STAGE_COMMANDS[args.command]
    present = {name for stage in stages for name, _ in pl.STAGES[stage].reads
               if (out / name).is_file()}

    def load(name, channels):
        # the stages run on those of their traces that exist, and need one:
        # only metrics reads two, and it weights whichever it gets
        if present and name not in present:
            return None
        return _load_artifact(out / name, channels)

    records = pl.run_stages(config, out, stages, load)[0]
    print(f"{args.command}: {report(out, records)}")
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
    **dict.fromkeys(_STAGE_COMMANDS, cmd_stage),
    "stht": cmd_stht,
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
    except RideComfortError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
