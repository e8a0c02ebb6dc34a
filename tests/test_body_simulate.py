"""Time-domain integration: oracles, passivity and bookkeeping."""

import numpy as np
import pytest

from ridecomfort.body import BodyParams, build_model
from ridecomfort.body import integrate
from ridecomfort.body.integrate import (
    SEAT_INPUT_CHANNELS, _advance, _get_kernel, _literal_rk4, _outputs,
    create_state, mechanical_energy, simulate, step)
from ridecomfort.errors import NonFiniteState
from ridecomfort.timeseries import from_arrays

from conftest import MODEL_CASES, single_dof_model


def _seat_record(dt, a_z):
    data = np.zeros((a_z.size, 3))
    data[:, 2] = a_z
    return _seat_xyz(dt, data)


def _seat_xyz(dt, data):
    return from_arrays(dt, data, [(n, "m/s^2") for n in SEAT_INPUT_CHANNELS])


def test_zero_input_stays_exactly_at_rest():
    model = build_model(BodyParams.from_preset("default"))
    seat = _seat_record(0.001, np.zeros(2000))
    resp = simulate(model, seat)
    assert np.all(resp.samples == 0.0)


def test_single_dof_dwell_matches_transmissibility():
    m, k, c = 60.0, 60000.0, 1500.0
    model = single_dof_model(m, k, c)
    dt = 0.001
    f = 4.0
    w = 2 * np.pi * f
    t = np.arange(int(12.0 / dt) + 1) * dt
    a = 1.5 * np.sin(w * t)
    resp = simulate(model, _seat_record(dt, a))
    out = resp.channel("pelvis_acc_z")

    # steady-state complex amplitude by quadrature over whole cycles
    n_cyc = int((t[-1] - 4.0) * f)
    span = int(round(n_cyc / f / dt))
    sl = slice(t.size - span, t.size)
    ph = np.exp(-1j * w * t[sl])
    resp_amp = 2.0 * np.mean(out[sl] * ph)
    in_amp = 2.0 * np.mean(a[sl] * ph)
    h_meas = resp_amp / in_amp
    h_ref = (k + 1j * w * c) / (k - m * w ** 2 + 1j * w * c)
    assert abs(abs(h_meas) - abs(h_ref)) / abs(h_ref) < 0.005
    assert abs(np.degrees(np.angle(h_meas / h_ref))) < 0.5


def test_step_matches_batch_simulate():
    model = single_dof_model()
    dt = 0.001
    rng = np.random.default_rng(2)
    a = rng.standard_normal(400)
    seat = _seat_record(dt, a)
    resp = simulate(model, seat)

    state = create_state(model, dt)
    heads = []
    for i in range(a.size - 1):
        state, head = step(model, state, [0, 0, a[i]], dt,
                           seat_accel_next=[0, 0, a[i + 1]])
        heads.append(head["acc"][2])
    batch = resp.channel("head_acc_z")[1:]
    assert np.array_equal(heads, batch)


def test_step_map_matches_literal_rk4():
    model = build_model(BodyParams.from_preset("default"))
    kernel = _get_kernel(model, 0.001)
    assert [tap.name for tap in kernel.taps] == ["proprioceptive", "vestibular"]
    rng = np.random.default_rng(11)
    for _ in range(5):
        z = rng.standard_normal(2 * model.n)
        u_N = [rng.standard_normal(tap.width) for tap in kernel.taps]
        u_Nm1 = [rng.standard_normal(tap.width) for tap in kernel.taps]
        a0, a1 = rng.standard_normal(3), rng.standard_normal(3)
        # work-vector layout: z, then lag N and lag N-1 per tap, then a0, a1
        w = np.concatenate([z, u_N[0], u_Nm1[0], u_N[1], u_Nm1[1], a0, a1])
        literal = _literal_rk4(kernel, z, u_N, u_Nm1, a0, a1)
        assert np.allclose(kernel.G @ w, literal, rtol=0.0,
                           atol=1e-12 * np.abs(literal).max())


def _per_column_step_map(kernel):
    """The step map synthesized one basis vector at a time."""
    sl = kernel.slices
    return np.column_stack([
        _literal_rk4(kernel, e[sl[0]], [e[s] for s in sl[1:-2:2]],
                     [e[s] for s in sl[2:-2:2]], e[sl[-2]], e[sl[-1]])
        for e in np.eye(sl[-1].stop)])


@pytest.mark.parametrize("name", list(MODEL_CASES))
def test_stacked_step_map_matches_per_column_synthesis_exactly(name):
    make_model, dt, n_taps = MODEL_CASES[name]
    kernel = _get_kernel(make_model(), dt)
    assert len(kernel.taps) == n_taps
    if not n_taps:
        assert kernel.block == integrate._CHECK_EVERY
    per_column = _per_column_step_map(kernel)
    assert kernel.G.flags.c_contiguous
    assert kernel.G.shape == per_column.shape
    assert kernel.G.tobytes() == per_column.tobytes()


def test_simulate_resumes_stepped_state_exactly():
    model = build_model(BodyParams.from_preset("default"))
    dt, k = 0.001, 300
    a = 0.5 * np.random.default_rng(5).standard_normal((900, 3))
    whole = simulate(model, _seat_xyz(dt, a)).samples

    state = create_state(model, dt)
    for i in range(k):
        state, _ = step(model, state, a[i], dt, seat_accel_next=a[i + 1])
    before = (state.q.copy(), state.qd.copy(), [h.copy() for h in state.history])
    rest = simulate(model, _seat_xyz(dt, a[k:]), initial_state=state).samples
    assert np.array_equal(rest, whole[k:])

    # the state passed in is not modified
    assert np.array_equal(state.q, before[0]) and np.array_equal(state.qd, before[1])
    assert all(np.array_equal(h, b) for h, b in zip(state.history, before[2]))
    assert state.step_count == k


def _per_step_advance(kernel, state, A):
    """Exactness oracle for ``_advance``: one work vector per step, each
    delayed sample sensed as its trajectory row appears."""
    n_steps = A.shape[0]
    taps = kernel.taps
    sl = kernel.slices
    z = np.concatenate([state.q, state.qd])
    Z = np.empty((n_steps, z.size))
    S = [np.concatenate([h, np.empty((n_steps, tap.width))])
         for tap, h in zip(taps, state.history)]
    work = np.zeros(kernel.G.shape[1])
    for i in range(n_steps):
        Z[i] = z
        for k in range(len(taps)):
            S[k][taps[k].N + i] = taps[k].S_z @ z
        if i == n_steps - 1:
            break
        work[sl[0]] = z
        for k in range(len(taps)):
            work[sl[1 + 2 * k]] = S[k][i]        # lag N
            work[sl[2 + 2 * k]] = S[k][i + 1]    # lag N-1
        work[sl[-2]] = A[i]
        work[sl[-1]] = A[i + 1]
        z = kernel.G @ work
    return Z, S


def _default_model(**overrides):
    return build_model(BodyParams.from_preset("default", overrides))


# name: (model, number of delay taps, shortest tap N at dt = 1 ms)
_EXACTNESS_CASES = {
    "prop_N1": (lambda: _default_model(prop_delay_s=0.001), 2, 1),
    "prop_N2": (lambda: _default_model(prop_delay_s=0.002), 2, 2),
    "default_N25": (_default_model, 2, 25),
    "tapless": (single_dof_model, 0, None),
    "visual_3_taps": (lambda: _default_model(visual_enabled=True, visual_gain_Nm_per_rad=5.0,
                                             visual_gain_Nms_per_rad=0.5), 3, 25),
}


@pytest.mark.parametrize("name", sorted(_EXACTNESS_CASES))
def test_block_advance_matches_per_step_loop_exactly(name):
    make_model, n_taps, shortest_N = _EXACTNESS_CASES[name]
    model = make_model()
    dt = 0.001
    kernel = _get_kernel(model, dt)
    assert len(kernel.taps) == n_taps
    assert min((tap.N for tap in kernel.taps), default=None) == shortest_N
    # block filling is exact only because every sensing row is e_i or e_i - e_j
    for tap in kernel.taps:
        assert set(np.unique(tap.S_z)) <= {-1.0, 0.0, 1.0}
        assert np.all(np.abs(tap.S_z).sum(axis=1) <= 2)

    B = kernel.block
    rng = np.random.default_rng(13)
    A = 0.5 * rng.standard_normal((3 * B + 2 + 500, 3))
    fresh = create_state(model, dt)
    # a resumed state: non-zero coordinates and delay history
    Z0, S0 = _per_step_advance(kernel, fresh, A[:400])
    resumed = create_state(model, dt)
    resumed.q, resumed.qd = Z0[-1, :model.n], Z0[-1, model.n:]
    resumed.history = [s[-tap.N:] for s, tap in zip(S0, kernel.taps)]
    assert n_taps == 0 or np.any(resumed.history[0] != 0.0)

    for state, rows in ((fresh, A[:3 * B + 2]), (resumed, A[400:])):
        for length in (1, 2, B, B + 1, 3 * B + 2):
            Z, S = _advance(model, kernel, state, rows[:length], 0.0)
            Z_ref, S_ref = _per_step_advance(kernel, state, rows[:length])
            assert np.array_equal(Z, Z_ref)
            assert len(S) == len(S_ref)
            assert all(np.array_equal(s, r) for s, r in zip(S, S_ref))


def _one_shot_outputs(model, kernel, state, A):
    """simulate's output rows before it ran in chunks, kept as its oracle:
    one ``_advance`` over the whole record, then ``_outputs``."""
    Z, S = _advance(model, kernel, state, A, 0.0)
    return _outputs(model, kernel, Z, S, A)


@pytest.mark.parametrize("name", sorted(_EXACTNESS_CASES))
def test_chunked_simulate_matches_one_shot_path_exactly(name, monkeypatch):
    model = _EXACTNESS_CASES[name][0]()
    dt = 0.001
    kernel = _get_kernel(model, dt)
    rng = np.random.default_rng(17)
    A = 0.5 * rng.standard_normal((800, 3))
    fresh = create_state(model, dt)
    Z0, S0 = _per_step_advance(kernel, fresh, A[:300])
    resumed = create_state(model, dt)
    resumed.q, resumed.qd = Z0[-1, :model.n], Z0[-1, model.n:]
    resumed.history = [s[-tap.N:] for s, tap in zip(S0, kernel.taps)]
    before = [resumed.q.copy(), resumed.qd.copy()] + [h.copy() for h in resumed.history]

    # shorter and longer than the default model's shortest delay, 25 steps
    for chunk in (16, 40):
        monkeypatch.setattr(integrate, "_CHUNK_ROWS", chunk)
        for state, rows in ((fresh, A), (resumed, A[300:])):
            for length in (1, 2, chunk - 1, chunk, chunk + 1, 3 * chunk // 2,
                           3 * chunk + 1):
                got = simulate(model, _seat_xyz(dt, rows[:length]), initial_state=state)
                want = _one_shot_outputs(model, kernel, state, rows[:length])
                assert np.array_equal(got.samples, want), (chunk, length)
    after = [resumed.q, resumed.qd] + resumed.history
    assert all(np.array_equal(a, b) for a, b in zip(after, before))


@pytest.mark.parametrize("amplitude, first_bad_row", [(1e300, 335), (4.2e302, 255)])
def test_diverging_run_reports_first_non_finite_row(amplitude, first_bad_row):
    # dt = 15 ms is beyond the explicit step's stability limit for this
    # model, and the shortest tap has N = 4.  Row 335 lies inside a block,
    # after the first finiteness check (row 256); row 255 lies in the block
    # that check closes.
    model = _default_model(prop_delay_s=0.06)
    dt, t0 = 0.015, 2.5
    kernel = _get_kernel(model, dt)
    assert kernel.block == 4
    A = np.full((1000, 3), amplitude)
    seat = from_arrays(dt, A, [(n, "m/s^2") for n in SEAT_INPUT_CHANNELS], start_time=t0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteState) as info:
            simulate(model, seat)
        Z_ref, _ = _per_step_advance(kernel, create_state(model, dt), A)
    rows, cols = np.nonzero(~np.isfinite(Z_ref))
    assert (rows[0], model.coords[cols[0] % model.n]) == (first_bad_row, "pelvis_roll")
    assert info.value.time == t0 + first_bad_row * dt
    assert info.value.coordinate == "pelvis_roll"


@pytest.mark.parametrize("chunk", [100, 7])
@pytest.mark.parametrize("amplitude", [1e300, 4.2e302])
def test_divergence_in_a_later_chunk_is_dated_like_the_one_shot_path(amplitude, chunk,
                                                                      monkeypatch):
    # the runs of the test above, whose first non-finite rows (335 and 255)
    # lie in a later chunk than the first with chunks of 100 or 7 steps
    monkeypatch.setattr(integrate, "_CHUNK_ROWS", chunk)
    model = _default_model(prop_delay_s=0.06)
    dt, t0 = 0.015, 2.5
    kernel = _get_kernel(model, dt)
    A = np.full((1000, 3), amplitude)
    seat = from_arrays(dt, A, [(n, "m/s^2") for n in SEAT_INPUT_CHANNELS], start_time=t0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteState) as chunked:
            simulate(model, seat)
        with pytest.raises(NonFiniteState) as one_shot:
            _advance(model, kernel, create_state(model, dt), A, t0)
    assert (chunked.value.time, chunked.value.coordinate) == \
        (one_shot.value.time, one_shot.value.coordinate)


def test_simulate_rejects_state_for_another_dt():
    model = single_dof_model()
    state = create_state(model, 0.002)
    with pytest.raises(ValueError):
        simulate(model, _seat_record(0.001, np.zeros(100)), initial_state=state)


def test_step_rejects_wrong_dt():
    model = single_dof_model()
    state = create_state(model, 0.001)
    with pytest.raises(ValueError):
        step(model, state, [0, 0, 1.0], 0.002)


def test_free_decay_energy_never_increases():
    params = BodyParams.from_preset("default", {
        "prop_gain_pelvis_Nm_per_rad": 0.0,
        "prop_gain_pelvis_Nms_per_rad": 0.0,
        "prop_gain_lumbar_Nm_per_rad": 0.0,
        "prop_gain_lumbar_Nms_per_rad": 0.0,
        "prop_gain_neck_Nm_per_rad": 0.0,
        "prop_gain_neck_Nms_per_rad": 0.0,
        "vestibular_gain_Nm_per_rad": 0.0,
        "vestibular_gain_Nms_per_rad": 0.0,
        "visual_enabled": False,
    })
    model = build_model(params)
    dt = 0.001
    rng = np.random.default_rng(7)
    state = create_state(model, dt)
    state.q = 0.01 * rng.standard_normal(model.n)
    state.qd = 0.05 * rng.standard_normal(model.n)

    energies = [mechanical_energy(model, state)]
    for _ in range(4000):
        state, _ = step(model, state, [0.0, 0.0, 0.0], dt)
        energies.append(mechanical_energy(model, state))
    energies = np.array(energies)
    assert np.all(np.diff(energies) <= 1e-12 * energies[0])
    assert energies[-1] < 0.01 * energies[0]


def test_simulate_meta_and_channels():
    model = build_model(BodyParams.from_preset("default"))
    rng = np.random.default_rng(0)
    seat = _seat_record(0.001, 0.5 * rng.standard_normal(3000))
    resp = simulate(model, seat)
    assert resp.meta["solver"] == "rk4"
    assert resp.meta["realtime_factor"] > 1.0
    for name in ("pelvis_acc_z", "head_acc_z", "head_rotvel_pitch",
                 "head_angle_pitch", "lumbar_angle_yaw"):
        assert name in resp.channel_names


def test_simulate_requires_seat_channels():
    model = build_model(BodyParams.from_preset("default"))
    bad = from_arrays(0.001, np.zeros((100, 1)), [("seat_acc_z", "m/s^2")])
    with pytest.raises(Exception):
        simulate(model, bad)
