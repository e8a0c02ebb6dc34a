"""Every artifact byte of the shipped scenarios, against recorded digests.

tests/artifact_digests.json holds, per case of ``record_digests.CASES``,
the sha256 of each file a run writes (``timing.json`` aside).  On the
recorded numpy and scipy versions each file must match its digest.  Other
versions may round differently (BLAS, pocketfft), so there the
``report.json`` summaries and the stht resonance tables are compared to the
recorded values within a relative 1e-12 instead.  The pipeline runs that
criterion 13 makes are reused rather than run again.
"""

import json
import math
import warnings

import numpy as np
import pytest
import scipy

from record_digests import CASES, DIGESTS, case_values, file_digests, run_case

RECORDED = json.loads(DIGESTS.read_text(encoding="utf-8"))
VERSIONS = (np.__version__, scipy.__version__)
SAME_VERSIONS = VERSIONS == (RECORDED["numpy"], RECORDED["scipy"])
REL_TOL = 1e-12

# cases whose run a conftest session fixture already makes: (fixture, key)
SHARED = {
    "pipeline scenario_default vision off": ("default_runs", 0),
    "pipeline scenario_curved vision off": ("curved_runs", "off1"),
    "pipeline scenario_curved vision on": ("curved_runs", "on"),
}


def mismatches(got, want, path=""):
    """Where ``got`` differs from ``want``: numbers beyond REL_TOL, anything
    else unequal (keys, list lengths, strings, None)."""
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in sorted(want) for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: {len(got)} items != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (got, want))
    if numbers and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
        return []
    return [] if not numbers and got == want else [f"{path}: {got!r} != {want!r}"]


def test_recorded_cases_are_the_cases_run():
    assert sorted(RECORDED["cases"]) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_recorded(case, request, tmp_path):
    if case in SHARED:
        fixture, key = SHARED[case]
        out = request.getfixturevalue(fixture)[key]
    else:
        out = tmp_path / "out"
        run_case(case, out)
    recorded = RECORDED["cases"][case]
    if SAME_VERSIONS:
        assert file_digests(out) == recorded["sha256"], (
            f"{case}: artifact bytes moved (numpy {VERSIONS[0]}, scipy {VERSIONS[1]})")
        return
    warnings.warn(f"numpy {VERSIONS[0]} / scipy {VERSIONS[1]} are not the recorded "
                  f"{RECORDED['numpy']} / {RECORDED['scipy']}: {case} is checked "
                  f"by value within {REL_TOL:g}, not by bytes")
    assert sorted(file_digests(out)) == sorted(recorded["sha256"])
    assert mismatches(case_values(case, out), recorded["values"]) == []


def test_value_comparison_catches_a_small_drift():
    """The fallback for other library versions is a real check."""
    values = RECORDED["cases"]["pipeline scenario_default vision off"]["values"]
    assert mismatches(values, values) == []
    drifted = json.loads(json.dumps(values))
    drifted["head_rms_m_s2"]["z"] *= 1 + 4 * REL_TOL
    assert mismatches(drifted, values) == [
        f".head_rms_m_s2.z: {drifted['head_rms_m_s2']['z']!r} != "
        f"{values['head_rms_m_s2']['z']!r}"]
    drifted = json.loads(json.dumps(values))
    drifted["resonances"]["peaks"].popitem()
    assert len(mismatches(drifted, values)) == 1
