"""The benchmark's workloads and the checks on their outputs.

Each workload is one closed loop: a single caller runs an operation, waits
for it, checks its outputs and starts the next.  A workload object holds
what one benchmark process needs: ``setup`` (the part users pay on every
process start, timed as ``setup_s``), ``prepare`` (fixture artifacts,
untimed), ``op`` (one timed operation) and ``check`` (output checks,
untimed).

Inputs come from the workload seed only.  ``pipeline_curved`` and
``resume_stages`` run the shipped ``scenario_curved.json`` with excitation
seed ``seed % CURVED_SEED_PERIOD``; ``sweep_compute`` visits points of a
fixed pool in a seed-dependent order.  ``reference.json`` holds the
summaries this code produced for every one of those inputs, so every op of
every seed is checked against a recorded value.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from ridecomfort import cli, comfort, excitation, perception, pipeline, sickness, spectral
from ridecomfort.body import BodyParams, PostureConfig
from ridecomfort.body import build as body_build
from ridecomfort.body import integrate as body_integrate
from ridecomfort.stht import default_welch_params

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
SCENARIO = Path(pipeline.__file__).parent / "data" / "examples" / "scenario_curved.json"

CURVED_SEED_PERIOD = 64
SWEEP_POOL_SIZE = 512
SWEEP_POOL_TAG = 20230629
SWEEP_DURATION_S = 12.0
SWEEP_DT_S = 0.001
SWEEP_SETTLE_S = 2.0
SWEEP_MIN_PROMINENCE = 0.1
PROP_DELAYS_S = (0.015, 0.025, 0.04)

RESONANCE_CHANNELS = (
    "head_acc_x", "head_acc_y", "head_acc_z",
    "head_rotvel_roll", "head_rotvel_pitch", "head_rotvel_yaw",
)
RESUME_COMMANDS = ("perceive", "sickness", "metrics")
RESUME_OUTPUTS = ("perceived.csv", "conflict.csv", "sickness.csv",
                  "sickness_summary.json", "comfort.json")

# Equivalence rule: max relative deviation 1e-12; the floor keeps exact
# zeros (MSDV of a lateral input) from turning round-off into a failure.
REL_TOL = 1e-12
ABS_FLOOR = 1e-9


# -- reference summaries ------------------------------------------------------

def summary_record(final_msi, peak_msi, head_rms, comfort_dict, peaks):
    """The checked numbers of one run, as plain JSON-ready values."""
    return {
        "final_msi_percent": float(final_msi),
        "peak_msi_percent": float(peak_msi),
        "head_rms_m_s2": {k: float(v) for k, v in sorted(head_rms.items())},
        "weighted_rms_m_s2": {k: float(v) for k, v in
                              sorted(comfort_dict["weighted_rms_m_s2"].items())},
        "msdv_m_s15": float(comfort_dict["msdv_m_s15"]),
        "resonance_peaks": {k: [[float(f), float(g)] for f, g in v]
                            for k, v in sorted(peaks.items())},
    }


def pipeline_summary(summary):
    """summary_record of a RunReport.summary."""
    return summary_record(summary["final_msi_percent"], summary["peak_msi_percent"],
                          summary["head_rms_m_s2"], summary["comfort"],
                          summary["resonances"]["peaks"])


def deviations(ref, got, path="summary"):
    """Every place where ``got`` departs from ``ref`` under the rule above."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                    f" != {sorted(ref)}"]
        return [d for k in ref for d in deviations(ref[k], got[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{path}: {got!r} != {ref!r}"]
        return [d for i, (r, g) in enumerate(zip(ref, got))
                for d in deviations(r, g, f"{path}[{i}]")]
    if isinstance(ref, float):
        if not isinstance(got, (int, float)) or not math.isfinite(got) or \
                abs(got - ref) > REL_TOL * max(abs(ref), abs(got), ABS_FLOOR):
            return [f"{path}: {got!r} != {ref!r}"]
        return []
    return [] if got == ref else [f"{path}: {got!r} != {ref!r}"]


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def file_digests(directory, names):
    out = {}
    for name in names:
        with open(Path(directory) / name, "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _warm_weightings(rate_hz):
    """First-call cost users pay once per process: weighting-filter design."""
    kinds = set(comfort.AXIS_WEIGHTINGS.values()) | {comfort.DOSE_WEIGHTING}
    for kind in sorted(kinds):
        comfort.design_weighting(kind, rate_hz)


def curved_excitation_seed(seed):
    return seed % CURVED_SEED_PERIOD


def write_curved_config(seed, path):
    """The shipped curved scenario with the workload's excitation seed."""
    raw = json.loads(SCENARIO.read_text(encoding="utf-8"))
    raw["seed"] = curved_excitation_seed(seed)
    Path(path).write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
    return Path(path)


class OpResult:
    """What one op hands to its check: the value, records processed, output."""

    def __init__(self, value, sim_seconds, out_dir=None):
        self.value = value
        self.sim_seconds = sim_seconds
        self.out_dir = out_dir


# -- pipeline_curved ----------------------------------------------------------

class PipelineCurved:
    """run_pipeline on scenario_curved, one fresh output directory per op."""

    name = "pipeline_curved"
    min_ops = 2  # byte identity needs two ops

    def __init__(self, seed, run_dir, reference=None):
        self.seed = seed
        self.run_dir = Path(run_dir)
        self.reference = reference
        self.first_digests = None
        self.working_set = {}

    def setup(self):
        self.run_dir.mkdir(parents=True, exist_ok=True)
        path = write_curved_config(self.seed, self.run_dir / "scenario.json")
        self.config = pipeline.parse_config(path)
        _warm_weightings(1.0 / self.config.excitation.dt_s)

    def prepare(self):
        pass

    def op(self, i):
        out = self.run_dir / f"op{i}"
        report = pipeline.run_pipeline(self.config, out)
        return OpResult(report, report.summary["duration_s"], out)

    def check(self, i, result):
        """Problems found (empty when correct) and artifact bytes written."""
        report, out = result.value, result.out_dir
        try:
            ref = self.reference["pipeline_curved"][str(curved_excitation_seed(self.seed))]
            problems = deviations(ref, pipeline_summary(report.summary))
            names = sorted(p.name for p in out.iterdir())
            written = sum((out / n).stat().st_size for n in names)
            digests = file_digests(out, [n for n in names if n != "timing.json"])
            if self.first_digests is None:
                self.first_digests = digests
                self.working_set = body_working_set(out / "body_response.csv")
            else:
                first = self.first_digests
                problems += [f"{n} differs from op 0's" for n in
                             sorted(set(digests) | set(first))
                             if digests.get(n) != first.get(n)]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return problems, written


def body_working_set(csv_path):
    """Sizes of the body-response record: on disk and as a float64 array."""
    with open(csv_path, encoding="utf-8") as fh:
        n_cols = fh.readline().count(",")
        n_rows = sum(1 for _ in fh)
    return {"body_response_csv_mb": Path(csv_path).stat().st_size / 1e6,
            "body_response_array_mb": n_rows * n_cols * 8 / 1e6}


# -- resume_stages ------------------------------------------------------------

class ResumeStages:
    """perceive, sickness and metrics resumed in-process from one run's artifacts."""

    name = "resume_stages"
    min_ops = 1

    def __init__(self, seed, run_dir, reference=None):
        self.seed = seed
        self.run_dir = Path(run_dir)
        self.reference = reference
        self.fixture = self.run_dir / "fixture"
        self.working_set = {}

    def setup(self):
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = write_curved_config(self.seed, self.run_dir / "scenario.json")
        self.config = pipeline.parse_config(self.config_path)
        _warm_weightings(1.0 / self.config.excitation.dt_s)

    def prepare(self):
        """One untimed pipeline run; its summary must match the reference."""
        report = pipeline.run_pipeline(self.config, self.fixture)
        ref = self.reference["pipeline_curved"][str(curved_excitation_seed(self.seed))]
        problems = deviations(ref, pipeline_summary(report.summary))
        self.digests = file_digests(self.fixture, RESUME_OUTPUTS)
        self.working_set = body_working_set(self.fixture / "body_response.csv")
        return problems

    def op(self, i):
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for command in RESUME_COMMANDS:
                codes.append(cli.main([command, "--config", str(self.config_path),
                                       "--out", str(self.fixture)]))
        return OpResult(codes, self.config.excitation.duration_s)

    def check(self, i, result):
        problems = [f"`{c}` exited {code}"
                    for c, code in zip(RESUME_COMMANDS, result.value) if code != 0]
        digests = file_digests(self.fixture, RESUME_OUTPUTS)
        problems += [f"{n} differs from the pipeline's" for n in RESUME_OUTPUTS
                     if digests[n] != self.digests[n]]
        written = sum((self.fixture / n).stat().st_size for n in RESUME_OUTPUTS)
        return problems, written


# -- sweep_compute ------------------------------------------------------------

def sweep_point(index):
    """Parameters of pool point ``index``: the same on every machine."""
    rng = np.random.default_rng([SWEEP_POOL_TAG, index])
    lo = round(float(rng.uniform(0.9, 2.0)), 3)
    return {
        "axis": "xyz"[int(rng.integers(3))],
        "band_hz": [lo, round(float(rng.uniform(lo + 2.0, 12.0)), 3)],
        "rms_m_s2": round(float(rng.uniform(0.3, 1.5)), 3),
        "seed": int(rng.integers(2 ** 31)),
        "overrides": {
            "prop_delay_s": PROP_DELAYS_S[int(rng.integers(len(PROP_DELAYS_S)))],
            "head_mass_kg": round(float(rng.uniform(4.5, 6.5)), 3),
            "neck_stiffness_roll_Nm_per_rad": round(float(rng.uniform(10.0, 18.0)), 3),
            "neck_stiffness_pitch_Nm_per_rad": round(float(rng.uniform(10.0, 18.0)), 3),
            "seat_stiffness_z_N_per_m": round(float(rng.uniform(45000.0, 70000.0)), 1),
        },
    }


def run_sweep_point(point):
    """One sweep point through the public library calls; writes no file."""
    spec = excitation.ExcitationSpec(
        axis=point["axis"], band_hz=tuple(point["band_hz"]),
        rms_m_s2=point["rms_m_s2"], duration_s=SWEEP_DURATION_S,
        dt_s=SWEEP_DT_S, seed=point["seed"])
    seat = excitation.generate_excitation(spec)
    params = BodyParams.from_preset("default", point["overrides"])
    model = body_build.build_model(params, PostureConfig())
    body = body_integrate.simulate(model, seat)

    drive = seat.channel(f"seat_acc_{point['axis']}")
    welch = default_welch_params(seat.n_samples, seat.dt)
    peaks = {}
    for name in RESONANCE_CHANNELS:
        frf = spectral.estimate_frf(drive, body.channel(name), seat.dt, welch)
        band = (max(spec.band_hz[0], float(frf.freqs[1])),
                min(spec.band_hz[1], float(frf.freqs[-1])))
        found = spectral.detect_peaks(frf, band, SWEEP_MIN_PROMINENCE)
        if found:
            peaks[name] = found

    _, conflict = perception.perceive(body, perception.VestibularParams())
    msi = sickness.summarize(sickness.accumulate(conflict))
    report = comfort.comfort_report(seat, body, SWEEP_SETTLE_S)
    head_rms = {ax: float(np.sqrt(np.mean(body.channel(f"head_acc_{ax}") ** 2)))
                for ax in "xyz"}
    record = summary_record(msi.final_percent, msi.peak_percent, head_rms,
                            report.as_dict(), peaks)
    return record, body.samples.nbytes


class SweepCompute:
    """In-process parameter sweep: a new model per point, no files written."""

    name = "sweep_compute"
    min_ops = 1

    def __init__(self, seed, run_dir, reference=None):
        self.seed = seed
        self.run_dir = Path(run_dir)
        self.reference = reference
        self.working_set = {}

    def setup(self):
        order = np.random.default_rng(self.seed).permutation(SWEEP_POOL_SIZE)
        self.order = [int(p) for p in order]
        self.points = {p: sweep_point(p) for p in self.order}
        _warm_weightings(1.0 / SWEEP_DT_S)

    def prepare(self):
        pass

    def pool_index(self, i):
        return self.order[i % len(self.order)]

    def op(self, i):
        record, nbytes = run_sweep_point(self.points[self.pool_index(i)])
        return OpResult((record, nbytes), SWEEP_DURATION_S)

    def check(self, i, result):
        record, nbytes = result.value
        ref = self.reference["sweep_compute"][str(self.pool_index(i))]
        problems = deviations(ref["point"], self.points[self.pool_index(i)], "point")
        problems += deviations(ref["summary"], record)
        if not self.working_set:
            self.working_set = {"body_response_array_mb": nbytes / 1e6}
        return problems, 0


WORKLOADS = {w.name: w for w in (PipelineCurved, SweepCompute, ResumeStages)}
