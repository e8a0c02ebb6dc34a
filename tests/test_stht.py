"""Transmissibility estimation from simulated noise runs."""

import dataclasses
import json

import numpy as np
import pytest

from ridecomfort.body import BodyParams, build_model
from ridecomfort.excitation import ExcitationSpec
from ridecomfort.spectral import WelchParams
from ridecomfort.stht import (
    RESPONSE_CHANNELS, default_welch_params, run_stht, save_stht_result)


@pytest.fixture(scope="module")
def z_result():
    model = build_model(BodyParams.from_preset("default"))
    spec = ExcitationSpec(axis="z", band_hz=(0.3, 12.0), rms_m_s2=1.0,
                          duration_s=60.0, dt_s=0.001, seed=21)
    return run_stht(model, spec, channels=("head_acc_z", "trunk_acc_z"))


def test_default_welch_params_power_of_two():
    p = default_welch_params(120_000, 0.001)
    assert p.segment_length == 4096
    assert p.segment_length & (p.segment_length - 1) == 0
    short = default_welch_params(3000, 0.001)
    assert short.n_segments(3000) >= 2


def test_run_stht_returns_requested_channels(z_result):
    assert z_result.axis == "z"
    assert z_result.channels() == ("head_acc_z", "trunk_acc_z")
    assert z_result.runtime_s > 0
    frf = z_result.frfs["head_acc_z"]
    assert frf.freqs[0] <= 0.5 and frf.freqs[-1] >= 12.0


def test_vertical_head_resonance_detected(z_result):
    peaks = z_result.resonances["head_acc_z"]
    assert peaks, "no resonance found on head_acc_z"
    f_pk, g_pk = peaks[0]
    assert 2.0 < f_pk < 8.0
    assert g_pk > 1.0


def test_unknown_channel_rejected():
    model = build_model(BodyParams.from_preset("default"))
    spec = ExcitationSpec(axis="z", duration_s=30.0, seed=1)
    with pytest.raises(Exception):
        run_stht(model, spec, channels=("head_acc_q",))


def test_save_and_reload_round_trip(z_result, tmp_path):
    written = save_stht_result(z_result, tmp_path)
    assert (tmp_path / "stht_z_head_acc_z.csv").exists()
    assert (tmp_path / "stht_z_resonances.json").exists()
    assert len(written) == 3

    path = tmp_path / "stht_z_head_acc_z.csv"
    assert path.read_text().split("\n", 1)[0] == "freq_hz,gain,phase_deg,coherence"
    freqs, gain, phase, _ = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    frf = z_result.frfs["head_acc_z"]
    assert np.allclose(freqs, frf.freqs)
    assert np.allclose(gain, frf.gain)
    assert np.allclose(phase, frf.phase_deg)

    res = json.loads((tmp_path / "stht_z_resonances.json").read_text())
    assert "head_acc_z" in res["resonances"]
    assert res["axis"] == "z"


def test_saved_result_holds_no_wall_clock(z_result, tmp_path):
    slower = dataclasses.replace(z_result, runtime_s=z_result.runtime_s + 1.0)
    for result, out in ((z_result, tmp_path / "a"), (slower, tmp_path / "b")):
        save_stht_result(result, out)
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == \
        sorted(p.name for p in (tmp_path / "b").iterdir())
    for path in (tmp_path / "a").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_custom_welch_band_and_prominence():
    model = build_model(BodyParams.from_preset("default"))
    spec = ExcitationSpec(axis="y", band_hz=(0.5, 10.0), rms_m_s2=0.8,
                          duration_s=40.0, dt_s=0.002, seed=3)
    result = run_stht(model, spec, welch=WelchParams(4096),
                      band_hz=(0.8, 6.0), min_prominence=0.05,
                      channels=("head_acc_y",))
    assert result.band_hz == (0.8, 6.0)
    for f_pk, _ in result.resonances["head_acc_y"]:
        assert 0.8 <= f_pk <= 6.0
