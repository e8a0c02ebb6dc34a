"""Record the reference summaries that the benchmark's output check compares to.

Run from the repository root, on the commit whose outputs are the reference:

    python3 benchmarks/record_reference.py

It runs every input the workloads can generate (each curved excitation seed
and each sweep pool point) once and writes benchmarks/reference.json.
Re-record only when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

import bench


def main():
    workloads, _ = bench.import_program()
    work_dir = bench.OUT_ROOT / "record"
    work_dir.mkdir(parents=True, exist_ok=True)
    reference = {"pipeline_curved": {}, "sweep_compute": {}}
    try:
        for seed in range(workloads.CURVED_SEED_PERIOD):
            path = workloads.write_curved_config(seed, work_dir / "scenario.json")
            config = workloads.pipeline.parse_config(path)
            report = workloads.pipeline.run_pipeline(config, work_dir / "out")
            reference["pipeline_curved"][str(seed)] = workloads.pipeline_summary(report.summary)
            shutil.rmtree(work_dir / "out")
            print(f"curved seed {seed}", file=sys.stderr)
        for index in range(workloads.SWEEP_POOL_SIZE):
            point = workloads.sweep_point(index)
            record, _ = workloads.run_sweep_point(point)
            reference["sweep_compute"][str(index)] = {"point": point, "summary": record}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(dumps(reference), encoding="utf-8")
    return 0


def dumps(reference):
    """JSON text with one line per recorded input, so diffs show which changed."""
    sections = []
    for section, entries in sorted(reference.items()):
        rows = [f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
                for key, value in sorted(entries.items(), key=lambda kv: int(kv[0]))]
        sections.append(f"{json.dumps(section)}: {{\n" + ",\n".join(rows) + "\n}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
