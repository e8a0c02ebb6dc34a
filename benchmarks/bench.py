"""ridecomfort benchmark: one workload per process, closed loop, one caller.

Run from the repository root:

    python3 benchmarks/bench.py --workload pipeline_curved --seed 1 --seconds 30 --trace 0

The benchmark imports ``ridecomfort`` from ``src/`` next to this directory
and nothing else.  It sets up the workload, then runs ops back to back for
``--seconds`` seconds (at least ``min_ops`` of them), checks every op's
outputs and prints human-readable lines followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` even-numbered ops are
traced and the metrics are the per-layer ones, derived from those ops, with
the untraced odd-numbered ops giving the tracing overhead.  Runs leave
their spans and a full result record under ``.bench_out/``.  See README.md
for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
MB = 1e6

END_TO_END_UNITS = {
    "setup_s": "s",
    "realtime_factor": "sim-s/wall-s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "body.simulate_s": "s",
    "body.steps": "count",
    "body.steps_per_s": "1/s",
    "body.build_model_s": "s",
    "perception.subjective_vertical_s": "s",
    "perception.sv_samples": "count",
    "perception.sv_samples_per_s": "1/s",
    "timeseries.save_s": "s",
    "timeseries.bytes_written": "B",
    "timeseries.rows_written": "count",
    "timeseries.write_mb_per_s": "MB/s",
    "timeseries.load_s": "s",
    "timeseries.bytes_read": "B",
    "timeseries.read_mb_per_s": "MB/s",
    "spectral.frf_calls": "count",
    "comfort.design_weighting_calls": "count",
    **{f"pipeline.stage_self_s.{s}": "s"
       for s in ("input", "body", "perception", "sickness", "metrics")},
    "pipeline.parse_config_s": "s",
    **{f"{layer}.{kind}": unit
       for layer in ("body", "perception", "timeseries", "spectral", "excitation",
                     "sickness", "comfort", "pipeline", "cli")
       for kind, unit in (("busy_s", "s"), ("self_s", "s"), ("ops_failed", "count"))},
    "check.ops_failed": "count",
    "trace.op_wall_s": "s",
    "trace.layer_self_sum_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "1",
    "trace.realtime_factor": "sim-s/wall-s",
    "trace.untraced_realtime_factor": "sim-s/wall-s",
}

# Failures are summed over the traced ops, not medians: one failure must show.
# Other counts take the low median, so they stay whole numbers.
_SUMMED = {name for name in PER_LAYER_UNITS if name.endswith(".ops_failed")}
_COUNTS = {name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "B")}


def import_program():
    """Import ridecomfort from this checkout's src/ and the benchmark modules."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ridecomfort
    where = Path(ridecomfort.__file__).resolve().parent
    if where != SRC / "ridecomfort":
        raise ImportError(f"ridecomfort imported from {where}, not from {SRC}")
    import spans
    import workloads
    return workloads, spans


def environment():
    """Machine and library versions, recorded with every result."""
    import numpy
    import scipy
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "cpu_model": platform.processor() or platform.machine(),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), env["cpu_model"])
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            env["caches"][f"L{level}{suffix}"] = size
    except OSError:
        pass
    return env


def percentile(values, q):
    """Inclusive-method percentile q (0-100) of a non-empty list."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def probe_setup(name, seed, probe_dir):
    """Seconds from spawning a fresh workload process to its first timed op."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe", str(probe_dir),
            "--workload", name, "--seed", str(seed)]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - t0


def _rate(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(tracer, spans_mod, traced_ops, untraced_ops):
    """Per-layer metrics: medians over traced ops, failures summed."""
    by_op = {}
    for index, rec in enumerate(tracer.spans):
        by_op.setdefault(rec[spans_mod.OP], []).append(index)
    per_op = [spans_mod.op_layer_metrics(tracer.spans, by_op[r["op"]])
              for r in traced_ops]
    m = {}
    for name in per_op[0]:
        values = [p[name] for p in per_op]
        if name in _SUMMED:
            m[name] = sum(values)
        elif name in _COUNTS:
            m[name] = statistics.median_low(values)
        else:
            m[name] = statistics.median(values)
    m["trace.layer_self_sum_s"] = statistics.median(
        sum(p[f"{layer}.self_s"] for layer in spans_mod.LAYERS) for p in per_op)
    m["body.steps_per_s"] = _rate(m["body.steps"], m["body.simulate_s"])
    m["perception.sv_samples_per_s"] = _rate(m["perception.sv_samples"],
                                             m["perception.subjective_vertical_s"])
    m["timeseries.write_mb_per_s"] = _rate(m["timeseries.bytes_written"] / MB,
                                           m["timeseries.save_s"])
    m["timeseries.read_mb_per_s"] = _rate(m["timeseries.bytes_read"] / MB,
                                          m["timeseries.load_s"])
    m["check.ops_failed"] = sum(1 for r in traced_ops + untraced_ops if r["problems"])
    traced_wall = [r["wall"] for r in traced_ops]
    plain_wall = [r["wall"] for r in untraced_ops] or traced_wall
    m["trace.overhead_s"] = statistics.median(traced_wall) - statistics.median(plain_wall)
    m["trace.overhead_ratio"] = m["trace.overhead_s"] / statistics.median(plain_wall)
    m["trace.realtime_factor"] = realtime_factor(traced_ops)
    m["trace.untraced_realtime_factor"] = realtime_factor(untraced_ops or traced_ops)
    return {name: m[name] for name in PER_LAYER_UNITS}


def realtime_factor(ops):
    return _rate(sum(r["sim_s"] for r in ops), sum(r["wall"] for r in ops))


def run_ops(workload, seconds, tracer):
    """The timed closed loop; returns one record per op."""
    ops = []
    t_begin = time.perf_counter()
    i = 0
    while i < workload.min_ops or time.perf_counter() - t_begin < seconds:
        rec = {"op": i, "traced": tracer is not None and i % 2 == 0,
               "sim_s": 0.0, "written": 0, "problems": []}
        result = None
        t0 = time.perf_counter()
        try:
            if rec["traced"]:
                with tracer.op(i) as root:
                    result = root(lambda: workload.op(i))
            else:
                result = workload.op(i)
        except Exception as exc:  # an op that raises is a failed op
            rec["problems"].append(f"raised {type(exc).__name__}: {exc}")
        rec["wall"] = time.perf_counter() - t0
        if result is not None:
            rec["sim_s"] = result.sim_seconds
            try:
                problems, rec["written"] = workload.check(i, result)
                rec["problems"] += problems
            except Exception as exc:  # a check that cannot read the output fails it
                rec["problems"].append(f"check raised {type(exc).__name__}: {exc}")
        for problem in rec["problems"][:5]:
            print(f"FAILED op {i}: {problem}", file=sys.stderr)
        ops.append(rec)
        i += 1
    return ops


def run(name, seed, seconds, trace, out_root=OUT_ROOT, probes=SETUP_PROBES):
    """Set up, run and check one workload; returns the full result record."""
    workloads, spans_mod = import_program()
    run_dir = Path(out_root) / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_samples = [probe_setup(name, seed, run_dir / f"probe{k}")
                         for k in range(probes)]
        workload = workloads.WORKLOADS[name](seed, run_dir / "main",
                                             workloads.load_reference())
        workload.setup()
        fixture_problems = workload.prepare() or []
        tracer = spans_mod.Tracer() if trace else None
        ops = run_ops(workload, seconds, tracer)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in fixture_problems:
        print(f"FAILED fixture: {problem}", file=sys.stderr)

    traced = [r for r in ops if r["traced"]]
    plain = [r for r in ops if not r["traced"]]
    walls = [r["wall"] for r in plain]
    failed = len(ops) if fixture_problems else sum(1 for r in ops if r["problems"])
    end_to_end = {
        "setup_s": statistics.median(setup_samples) if setup_samples else 0.0,
        "realtime_factor": realtime_factor(plain),
        "op_s_p50": statistics.median(walls) if walls else 0.0,
        "op_s_p90": percentile(walls, 90) if walls else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
    }
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(), "working_set_mb": workload.working_set,
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "ops_failed_ratio": failed / len(ops),
        "written_mb": statistics.median(r["written"] for r in ops) / MB,
        "setup_samples_s": setup_samples,
        "untraced_ops": len(plain), "traced_ops": len(traced),
        "end_to_end": end_to_end,
        "per_layer": layer_metrics(tracer, spans_mod, traced, plain) if traced else {},
        "fixture_problems": fixture_problems,
        "ops": ops,
    }
    Path(out_root).mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        tracer.write(Path(out_root) / f"spans-{stem}.jsonl")
    with open(Path(out_root) / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def report_lines(result):
    """Human-readable lines: environment, every metric by name with its unit."""
    env = result["environment"]
    lines = [f"# {result['workload']} seed {result['seed']}: {result['attempted']} ops "
             f"({result['untraced_ops']} untraced, {result['traced_ops']} traced) "
             f"in {result['seconds']} s, one caller, closed loop",
             f"# environment: nproc {env['nproc']} (affinity {env['affinity']}), "
             f"{env['cpu_model']}, caches {env['caches']}, Python {env['python']}, "
             f"numpy {env['numpy']}, scipy {env['scipy']}",
             f"# working set per op (MB): {result['working_set_mb']}"]
    n = result["untraced_ops"]
    notes = {"op_s_p50": f"n={n}", "op_s_p90": f"n={n}, {n // 10} beyond",
             "setup_s": f"median of {len(result['setup_samples_s'])} fresh processes"}
    for name, value in result["end_to_end"].items():
        lines.append(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}"
                     + (f"  ({notes[name]})" if name in notes else ""))
    lines.append(f"written_mb = {result['written_mb']:.6g} MB/op")
    lines.append(f"ops_failed_ratio = {result['ops_failed_ratio']:.6g} 1"
                 f"  ({result['failed']} of {result['attempted']})")
    for name, value in result["per_layer"].items():
        lines.append(f"{name} = {value:.6g} {PER_LAYER_UNITS[name]}")
    return lines


def final_line(result):
    """The one-line JSON result: end-to-end or per-layer metrics."""
    if result["trace"]:
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                   for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in result["end_to_end"].items()}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline_curved", "sweep_compute", "resume_stages"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        workloads, _ = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.probe:
        workloads.WORKLOADS[args.workload](args.seed, args.probe).setup()
        print(time.monotonic())
        return 0
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(report_lines(result)))
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
