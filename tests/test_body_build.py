"""Parameter handling, model assembly and static equilibrium."""

import types

import numpy as np
import pytest

from ridecomfort.body import params as body_params
from ridecomfort.body import (
    BodyParams, COORDINATE_NAMES, PostureConfig, build_model)
from ridecomfort.body.build import static_equilibrium
from ridecomfort.body.linearize import closed_loop_eigenvalues
from ridecomfort.errors import ConfigError, UnstableConfiguration

from conftest import MODEL_CASES


def test_preset_loads_and_validates():
    p = BodyParams.from_preset("default")
    assert p.total_mass_kg() > 40.0
    assert p.head_mass_kg < p.trunk_mass_kg


def test_preset_overrides_applied():
    p = BodyParams.from_preset("default", {"head_mass_kg": 5.5})
    assert p.head_mass_kg == 5.5


def test_unknown_preset_and_override_keys():
    with pytest.raises(ConfigError):
        BodyParams.from_preset("astronaut")
    with pytest.raises(ConfigError) as exc:
        BodyParams.from_preset("default", {"bogus_key": 1.0})
    assert any("bogus_key" in path for path, _ in exc.value.errors)


def test_a_preset_is_read_once_and_overrides_stay_in_their_call(monkeypatch):
    first = BodyParams.from_preset("default", {"head_mass_kg": 7.0})

    def files(package):
        raise AssertionError(f"{package} read again")

    monkeypatch.setattr(body_params, "resources", types.SimpleNamespace(files=files))
    second = BodyParams.from_preset("default")
    assert (first.head_mass_kg, second.head_mass_kg) == (7.0, 5.5)
    assert BodyParams.from_preset("default", {"trunk_mass_kg": 30.0}).head_mass_kg == 5.5
    with pytest.raises(TypeError):
        body_params._preset("default")["head_mass_kg"] = 7.0
    monkeypatch.undo()
    for _ in range(2):  # a failed read is not kept
        with pytest.raises(ConfigError) as exc:
            BodyParams.from_preset("astronaut")
        assert exc.value.errors == [("model.preset", "unknown preset 'astronaut'")]


def test_invalid_values_rejected_with_paths():
    with pytest.raises(ConfigError) as exc:
        BodyParams.from_preset("default", {"head_mass_kg": -2.0})
    assert any("head_mass_kg" in path for path, _ in exc.value.errors)


def test_an_override_too_large_for_a_float_is_a_config_error():
    with pytest.raises(ConfigError) as exc:
        BodyParams.from_preset("default", {"head_mass_kg": 10 ** 400})
    assert exc.value.errors == [("model.overrides.head_mass_kg",
                                 "must be a finite number")]


def test_posture_validation():
    PostureConfig().validate()
    with pytest.raises(ConfigError):
        PostureConfig(posture="standing").validate()
    with pytest.raises(ConfigError):
        PostureConfig(locked_coordinates=("warp_drive",)).validate()
    with pytest.raises(ConfigError):
        PostureConfig(locked_coordinates=COORDINATE_NAMES).validate()
    with pytest.raises(ConfigError):
        PostureConfig(initial_joint_angles_rad={"lumbar_pitch": 9.0}).validate()
    with pytest.raises(ConfigError) as exc:
        PostureConfig(initial_joint_angles_rad={"neck_pitch": 10 ** 400}).validate()
    assert [f for f, _ in exc.value.errors] == ["initial_joint_angles_rad.neck_pitch"]


def test_build_model_structure():
    model = build_model(BodyParams.from_preset("default"))
    n = model.n
    assert n == len(COORDINATE_NAMES)
    assert model.M.shape == (n, n)
    assert np.allclose(model.M, model.M.T)
    w = np.linalg.eigvalsh(model.M)
    assert np.all(w > 0)
    assert model.coordinate_index("seat_z") == COORDINATE_NAMES.index("seat_z")
    fn = model.natural_frequencies_hz()
    assert np.all(fn > 0) and np.all(fn < 50.0)


def test_locked_coordinates_reduce_problem():
    locked = tuple(n for n in COORDINATE_NAMES if n != "seat_z")
    model = build_model(BodyParams.from_preset("default"),
                        PostureConfig(locked_coordinates=locked))
    assert model.coords == ("seat_z",)
    assert model.M.shape == (1, 1)
    assert model.M[0, 0] == pytest.approx(model.params.total_mass_kg())


def test_equilibrium_upright_has_zero_angles():
    model = build_model(BodyParams.from_preset("default"))
    q_eq = static_equilibrium(model)
    p = model.params
    sag = -p.gravity_m_per_s2 * p.total_mass_kg() / p.seat_stiffness_z_N_per_m
    assert q_eq[COORDINATE_NAMES.index("seat_z")] == pytest.approx(sag, rel=1e-9)
    for i, name in enumerate(COORDINATE_NAMES):
        if name != "seat_z":
            assert q_eq[i] == 0.0


def test_backrest_contact_changes_dynamics():
    p = BodyParams.from_preset("default")
    with_back = build_model(p, PostureConfig(backrest_contact="high"))
    without = build_model(p, PostureConfig(backrest_contact="none"))
    assert not np.allclose(with_back.K, without.K)


def test_default_model_is_stable():
    model = build_model(BodyParams.from_preset("default"))
    eig = closed_loop_eigenvalues(model)
    assert np.all(eig.real < 0)


@pytest.mark.parametrize("name", list(MODEL_CASES))
def test_stability_check_keeps_eigenvalues_of_the_full_decomposition(name):
    # build_model takes eigenvalues only; they are the bits eig returns too
    make_model, _, _ = MODEL_CASES[name]
    model = make_model()
    eigs, _ = closed_loop_eigenvalues(model, with_vectors=True)
    assert model.eigenvalues.tobytes() == eigs.tobytes()


def test_unstable_configuration_reports_its_mode_shape():
    params = BodyParams.from_preset("default", {"prop_gain_neck_Nm_per_rad": 500.0,
                                                "prop_delay_s": 0.2})
    with pytest.raises(UnstableConfiguration) as exc:
        build_model(params)
    assert exc.value.eigenvalue.real > 0
    shape = exc.value.mode_shape
    assert tuple(shape) == COORDINATE_NAMES
    # normalized to its largest component: a neck-loop mode moves the head
    assert max(shape, key=lambda c: abs(shape[c])) == "head_pitch"
    assert shape["head_pitch"] == 1.0
