"""State-space assembly, delay rationalization and frequency response."""

import numpy as np
import pytest

from ridecomfort.body import BodyParams, build_model
from ridecomfort.body.integrate import _get_kernel
from ridecomfort.body.linearize import closed_loop_eigenvalues, linearize


def test_linearized_default_is_stable():
    model = build_model(BodyParams.from_preset("default"))
    lin = linearize(model)
    assert np.all(lin.eigenvalues().real < 0)
    assert lin.n_states >= 2 * model.n


def test_pade_order_convergence():
    model = build_model(BodyParams.from_preset("default"))
    lo = linearize(model, pade_order=1)
    hi = linearize(model, pade_order=4)
    assert hi.n_states > lo.n_states

    # delayed feedback shows up on the x axis; the rationalized response
    # must converge as the approximation order rises
    freqs = np.geomspace(0.5, 10.0, 40)

    def gain(order):
        lin = linearize(model, pade_order=order)
        return lin.frequency_response(freqs, "x", ["head_acc_x"])[0]

    h2, h6, h10 = gain(2), gain(6), gain(10)
    assert np.max(np.abs(h6 - h10) / np.abs(h10)) < 0.005
    low = freqs < 4.0
    assert np.max(np.abs(h2 - h10)[low] / np.abs(h10)[low]) < 0.05


def test_zero_delay_matches_undelayed_feedback():
    params = BodyParams.from_preset("default", {
        "prop_delay_s": 0.0, "vestibular_delay_s": 0.0})
    model = build_model(params)
    lin = linearize(model, pade_order=3)
    # no delay states: dimension is exactly twice the coordinate count
    assert lin.n_states == 2 * model.n


def test_low_frequency_transmissibility_is_unity():
    model = build_model(BodyParams.from_preset("default"))
    lin = linearize(model)
    freqs = np.array([0.02, 0.05])
    h = lin.frequency_response(freqs, input_axis="z",
                               output_names=["head_acc_z"])[0]
    assert np.all(np.abs(np.abs(h) - 1.0) < 0.02)
    assert np.all(np.abs(np.degrees(np.angle(h))) < 2.0)


def test_frequency_response_rejects_unknown_channel():
    model = build_model(BodyParams.from_preset("default"))
    lin = linearize(model)
    with pytest.raises(Exception):
        lin.frequency_response(np.array([1.0]), output_names=["flux_capacitor"])


def test_closed_loop_eigenvalues_match_linearize():
    model = build_model(BodyParams.from_preset("default"))
    eig_fn = np.sort_complex(closed_loop_eigenvalues(model, pade_order=2))
    eig_lin = np.sort_complex(linearize(model, pade_order=2).eigenvalues())
    assert np.allclose(eig_fn, eig_lin)


def test_state_space_view_reads_the_step_maps_terms():
    # one closed-loop assembly: the seat-input rows are the step kernel's Bi,
    # and with every channel folded in, the acceleration rows are [A2 | A1]
    model = build_model(BodyParams.from_preset("default"))
    n = model.n
    kernel = _get_kernel(model, 0.001)
    assert np.array_equal(linearize(model).B[n:2 * n], kernel.Bi)

    folded = build_model(BodyParams.from_preset("default", {
        "prop_delay_s": 0.0, "vestibular_delay_s": 0.0}))
    kernel = _get_kernel(folded, 0.001)
    assert not kernel.taps
    A = linearize(folded).A
    assert np.array_equal(A[n:2 * n, :2 * n], np.hstack([kernel.A2, kernel.A1]))
