"""Record the sha256 of every artifact the digest cases write.

Run from the repository root, on the commit whose artifacts are the
reference:

    PYTHONPATH=src python tests/record_digests.py

It runs each case in ``CASES`` once in a temporary directory and rewrites
tests/artifact_digests.json: the numpy and scipy versions, and per case the
sha256 of every file except ``timing.json`` plus the values that
tests/test_artifact_digests.py compares within 1e-12 on other numpy or
scipy versions.  Re-record only when a change is meant to alter artifact
bytes, and name the files that moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from ridecomfort import cli
from ridecomfort.pipeline import parse_config, run_pipeline

EXAMPLES = Path(__file__).resolve().parents[1] / "src" / "ridecomfort" / "data" / "examples"
DIGESTS = Path(__file__).with_name("artifact_digests.json")
SCENARIOS = ("scenario_default", "scenario_curved")

# case -> (command, shipped scenario, --vision of a pipeline or --axis of stht)
CASES = {
    **{f"pipeline {s} vision {v}": ("pipeline", s, v)
       for s in SCENARIOS for v in ("off", "on")},
    **{f"stht {s} axis {a}": ("stht", s, a) for s in SCENARIOS for a in "xyz"},
}


def run_case(case, out):
    """Write the artifacts of ``case`` to the directory ``out``."""
    command, scenario, option = CASES[case]
    path = EXAMPLES / f"{scenario}.json"
    if command == "pipeline":
        run_pipeline(parse_config(path, vision=option), out)
    elif cli.main(["stht", "--config", str(path), "--axis", option,
                   "--out", str(out)]) != 0:
        raise RuntimeError(f"{case}: stht failed")


def file_digests(out):
    """{file name: sha256} of the files in ``out``, ``timing.json`` aside."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out).iterdir()) if p.name != "timing.json"}


def case_values(case, out):
    """The numbers of a case that other library versions must reproduce:
    the ``report.json`` summary of a run, the resonance JSON of stht."""
    command, _, option = CASES[case]
    name = "report.json" if command == "pipeline" else f"stht_{option}_resonances.json"
    record = json.loads((Path(out) / name).read_text(encoding="utf-8"))
    return record["summary"] if command == "pipeline" else record


def main():
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            out = Path(tmp) / case.replace(" ", "_")
            run_case(case, out)
            cases[case] = {"sha256": file_digests(out), "values": case_values(case, out)}
    recorded = {"numpy": np.__version__, "scipy": scipy.__version__, "cases": cases}
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {DIGESTS} ({len(cases)} cases)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
