"""Fixed-step time integration of the assembled model.

Classic RK4 on the second-order system, with delayed feedback read from
records of sensed joint/head samples.  Delays are quantized to whole steps
(N = round(delay/dt)); substage values interpolate linearly between the two
bracketing samples, and seat acceleration interpolates linearly across the
step.  ``simulate`` and ``step`` share one stepping loop; a ``BodyState``
carries the last N sensed samples per delay, so either can resume the other.

The right-hand side's terms come from the model's ``closed_loop``, the
one assembly of the feedback loop, which ``linearize`` reads too; a channel
whose delay rounds to 0 steps is folded into the stiffness and damping.
Because the system is linear, one full RK4 step is an exact affine map of
(state, delayed samples, inputs).  The kernel precomputes that map once per
(model, dt) by one pass of the literal stage arithmetic on the stacked basis
vectors, each product in it a single vector's; stepping then costs a single
small matrix-vector product ``G @ w``.

The stepping loop fills those work vectors a block at a time.  The step
from row i reads the seat acceleration at rows i and i + 1 and, per tap,
the sensed samples of rows i - N and i + 1 - N.  In a block of b <= min(N)
steps from row i0, every one of those rows is at most i0, so all of the
block's work vectors except the state itself are filled before it starts,
each tap's two lags and the two seat rows by one copy from a view of
adjacent record rows; the only per-step work left is one ``G.dot`` that
writes the next state in place into the next work vector.  After the block,
one product per tap senses all of its new rows.  The output is bit-identical
to stepping one row at a time: each ``G @ w`` is the same matrix-vector
product on the same vector, and every sensing row is a unit vector or a
difference of two, so the block product adds only exact zeros and rounds
like the per-row one.  Blocks hold at most ``_CHECK_EVERY`` steps, and a
model without delayed taps takes blocks of that size.

One core, ``_run``, runs that loop and the output evaluation over chunks
of at most ``_CHUNK_ROWS`` steps, carrying a ``BodyState`` from one chunk
to the next, so the trajectory and delay records it holds at a time are
one chunk's, whatever the record's length.  Each output row is a product
of its own trajectory, delayed and input rows, so chunking changes no
output bit (the tests compare it with one pass over the whole record).
``simulate`` runs it on a record and ``step`` on the two rows of one
step; a record that continues another starts from the ``BodyState`` that
``simulate`` leaves in its result's ``meta["final_state"]``.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ridecomfort.errors import NonFiniteState
from ridecomfort.timeseries import _BLOCK_ROWS as _CHUNK_ROWS, TimeSeries

_CHECK_EVERY = 256  # steps between finiteness checks in the stepping loop; longest block

SEAT_INPUT_CHANNELS = ("seat_acc_x", "seat_acc_y", "seat_acc_z")
# what ``step`` returns, in order: acc (3), rotvel (3), angle (2)
_HEAD_OUTPUTS = ("head_acc_x", "head_acc_y", "head_acc_z",
                 "head_rotvel_roll", "head_rotvel_pitch", "head_rotvel_yaw",
                 "head_angle_roll", "head_angle_pitch")


@dataclass
class _DelayTap:
    name: str
    N: int              # delay in whole steps, >= 1
    width: int          # 2 * sensed components (value and rate stacked)
    S_z: np.ndarray     # (width, 2n): sensed sample from the state vector
    T: np.ndarray       # (n, width): qdd contribution of a delayed sample


@dataclass
class _StepKernel:
    dt: float
    n: int
    A2: np.ndarray      # qdd = A2 q + A1 qd + Bi a + sum(T u_delayed)
    A1: np.ndarray
    Bi: np.ndarray
    taps: list
    G: np.ndarray       # one-step affine map, (2n, work-vector length)
    slices: list        # work-vector slices: z, per-tap (lagN, lagN-1), a0, a1
    block: int          # steps per block of _advance: min(tap.N), at most _CHECK_EVERY
    head_rows: list     # rows of the model outputs that ``step`` returns

    def rhs(self, q, qd, a, u_list):
        qdd = self.A2 @ q + self.A1 @ qd + self.Bi @ a
        for tap, u in zip(self.taps, u_list):
            qdd = qdd + tap.T @ u
        return qdd


@dataclass
class BodyState:
    """Integrator state: coordinate deviations from equilibrium plus delay history.

    ``history`` holds, per delay tap, the sensed samples of the ``N`` steps
    before the current one, oldest first.
    """

    q: np.ndarray
    qd: np.ndarray
    time: float = 0.0
    step_count: int = 0
    kernel_dt: float | None = None
    history: list = field(default_factory=list, repr=False)


def _literal_rk4(kernel: _StepKernel, z, u_N, u_Nm1, a0, a1):
    """Reference RK4 step used to synthesize (and test) the step map, on
    vectors or on stacks of column vectors shaped (k, len, 1)."""
    n = kernel.n
    dt = kernel.dt
    q, qd = (np.s_[:n], np.s_[n:]) if z.ndim == 1 else (np.s_[:, :n], np.s_[:, n:])
    am = 0.5 * (a0 + a1)
    u_mid = [0.5 * (uN + uM) for uN, uM in zip(u_N, u_Nm1)]

    def f(zz, a, uu):
        out = np.empty_like(zz)
        out[q] = zz[qd]
        out[qd] = kernel.rhs(zz[q], zz[qd], a, uu)
        return out

    k1 = f(z, a0, u_N)
    k2 = f(z + 0.5 * dt * k1, am, u_mid)
    k3 = f(z + 0.5 * dt * k2, am, u_mid)
    k4 = f(z + dt * k3, a1, u_Nm1)
    return z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _build_kernel(model, dt: float) -> _StepKernel:
    if dt <= 0:
        raise ValueError("dt must be > 0")
    n = model.n
    steps = {ch.name: int(round(ch.delay_s / dt)) for ch in model.channels}
    A2, A1, Bi, delayed = model.closed_loop(lambda ch: steps[ch.name] == 0)
    taps = [_DelayTap(ch.name, steps[ch.name], len(S_z), S_z, T) for ch, S_z, T in delayed]

    # Work-vector layout: [z | tap0 lagN | tap0 lagN-1 | ... | a_i | a_i+1].
    slices = [slice(0, 2 * n)]
    off = 2 * n
    for tap in taps:
        slices.append(slice(off, off + tap.width))
        slices.append(slice(off + tap.width, off + 2 * tap.width))
        off += 2 * tap.width
    slices.append(slice(off, off + 3))
    slices.append(slice(off + 3, off + 6))
    D = off + 6

    kernel = _StepKernel(
        dt=dt, n=n, A2=A2, A1=A1, Bi=Bi, taps=taps, G=np.empty(0), slices=slices,
        block=min([tap.N for tap in taps] + [_CHECK_EVERY]),
        head_rows=[model.outputs.index(name) for name in _HEAD_OUTPUTS],
    )
    # column j of G is the step from basis vector e_j.  The stack's trailing
    # unit axis keeps each product the matrix-vector product of one e_j, so G
    # has the bits of a per-column synthesis (a (len, D) matrix form does not)
    E = np.eye(D)[:, :, None]
    arg = [E[:, s] for s in slices]
    G = _literal_rk4(kernel, arg[0], arg[1:-2:2], arg[2:-2:2], arg[-2], arg[-1])
    kernel.G = np.ascontiguousarray(G[:, :, 0].T)
    return kernel


def _get_kernel(model, dt: float) -> _StepKernel:
    if dt not in model._kernels:
        model._kernels[dt] = _build_kernel(model, dt)
    return model._kernels[dt]


def create_state(model, dt: float) -> BodyState:
    """Fresh state at static equilibrium with a quiescent delay history."""
    kernel = _get_kernel(model, dt)
    return BodyState(q=np.zeros(model.n), qd=np.zeros(model.n), kernel_dt=dt,
                     history=[np.zeros((tap.N, tap.width)) for tap in kernel.taps])


def _check_dt(state: BodyState, dt: float) -> None:
    if state.kernel_dt != dt:
        raise ValueError(f"state was created for dt={state.kernel_dt}, got {dt}; "
                         "use a state from create_state(model, dt)")


def _advance(model, kernel: _StepKernel, state: BodyState, A, t0: float,
             first_row: int = 0):
    """Step from ``state`` across the seat-acceleration rows ``A``.

    Returns the trajectory ``Z`` (row i is the state at row i of ``A``) and,
    per tap, the sensed record prefixed with the state's history: row i of a
    record is the lag-N sample of trajectory row i.  ``A`` starts at row
    ``first_row`` of a record that starts at time ``t0``, which is where a
    ``NonFiniteState`` is dated.
    """
    n_steps = A.shape[0]
    sl = kernel.slices
    G = kernel.G
    nz = G.shape[0]
    z = np.concatenate([state.q, state.qd])
    Z = np.empty((n_steps, nz))
    Z[0] = z
    S = [np.concatenate([h, np.empty((n_steps, tap.width))])
         for tap, h in zip(kernel.taps, state.history)]
    for s, tap in zip(S, kernel.taps):
        s[tap.N] = tap.S_z @ z
    # per tap: S_z transposed and the view of its record whose row r senses
    # trajectory row r
    sensing = [(tap.S_z.T, s[tap.N:]) for s, tap in zip(S, kernel.taps)]

    # one work vector per row of a block; step j reads row j and writes the
    # state part of row j + 1
    B = max(1, min(kernel.block, n_steps - 1))
    work = np.empty((B + 1, G.shape[1]))
    steps = [(work[j], work[j + 1, :nz]) for j in range(B)]
    # a tap's lag-N and lag-(N-1) slices are adjacent, as are the two seat
    # slices: each pair is filled at once from rows (r, r + 1) of its record
    # (splitting the last axis of a row range of C-order ``work`` is a view;
    # a one-row ``A`` takes no step and has no pair)
    pairs = [(work[:, lag_N.start:lag_Nm1.stop].reshape(B + 1, 2, -1),
              sliding_window_view(rec, 2, axis=0).swapaxes(1, 2))
             for rec, lag_N, lag_Nm1 in zip(S + [A], sl[1::2], sl[2::2])] if n_steps > 1 else []
    product = G.dot
    check_at = _CHECK_EVERY
    for i0 in range(0, n_steps - 1, B):
        b = min(B, n_steps - 1 - i0)
        i1 = i0 + b
        work[0, :nz] = Z[i0]
        for dst, src in pairs:
            dst[:b] = src[i0:i1]
        for w, z_next in steps[:b]:
            product(w, z_next)
        Zb = work[1:b + 1, :nz]
        Z[i0 + 1:i1 + 1] = Zb
        for S_zT, s_now in sensing:
            Zb.dot(S_zT, s_now[i0 + 1:i1 + 1])
        if i1 >= check_at:  # early exit only; the check below finds the first bad row
            if not np.isfinite(Z[i1]).all():
                Z = Z[:i1 + 1]
                break
            check_at += _CHECK_EVERY

    if not np.isfinite(Z).all():
        rows, cols = np.nonzero(~np.isfinite(Z))
        row = first_row + int(rows[0])
        raise NonFiniteState(t0 + row * kernel.dt, model.coords[cols[0] % kernel.n], row)
    return Z, S


def _outputs(model, kernel: _StepKernel, Z, S, A):
    """Output rows of a trajectory, with qdd from the same right-hand side."""
    n = kernel.n
    Q, Qd = Z[:, :n], Z[:, n:]
    QDD = Q @ kernel.A2.T + Qd @ kernel.A1.T + A @ kernel.Bi.T
    for s, tap in zip(S, kernel.taps):
        QDD += s[:len(Z)] @ tap.T.T
    return model.outputs.evaluate(Q, Qd, QDD, A)


def _run(model, kernel: _StepKernel, state: BodyState, A, t0: float, Y) -> BodyState:
    """Step from ``state``, the state at row 0 of ``A``, across the rest of
    ``A``'s rows, writing each row's outputs to ``Y``; returns the state at
    the last row.  Chunk c steps from row c0 to row c1 and evaluates the
    outputs of rows c0..c1; the next chunk starts from the state at row c1.
    A ``NonFiniteState`` is dated at its row of a record starting at ``t0``.
    """
    n, dt = kernel.n, kernel.dt
    for c0 in range(0, max(len(A) - 1, 1), _CHUNK_ROWS):
        c1 = min(c0 + _CHUNK_ROWS, len(A) - 1)
        rows = A[c0:c1 + 1]
        Z, S = _advance(model, kernel, state, rows, t0, c0)
        Y[c0:c1 + 1] = _outputs(model, kernel, Z, S, rows)
        state = BodyState(q=Z[-1, :n], qd=Z[-1, n:], kernel_dt=dt,
                          time=state.time + (c1 - c0) * dt,
                          step_count=state.step_count + c1 - c0,
                          history=[s[-tap.N - 1:-1] for s, tap in zip(S, kernel.taps)])
    return state


def step(model, state: BodyState, seat_accel, dt: float, seat_accel_next=None):
    """Advance one step; returns the state and head kinematics at the new time.

    ``seat_accel`` is the lab-frame seat acceleration (x, y, z) at the start
    of the step; pass ``seat_accel_next`` when the value at the end of the
    step is known, otherwise it is held constant.
    """
    _check_dt(state, dt)
    kernel = _get_kernel(model, dt)
    a1 = seat_accel if seat_accel_next is None else seat_accel_next
    A = np.array([seat_accel, a1], dtype=float)
    Y = np.empty((2, len(model.outputs.names)))
    new = _run(model, kernel, state, A, state.time, Y)
    state.q, state.qd, state.history = new.q, new.qd, new.history
    state.time, state.step_count = new.time, new.step_count

    head = Y[-1, kernel.head_rows]
    return state, {"acc": head[:3], "rotvel": head[3:6], "angle": head[6:]}


def simulate(model, seat_motion: TimeSeries, initial_state: BodyState | None = None,
             ) -> TimeSeries:
    """Drive the model with a seat acceleration record.

    Returns the body response sampled on the input grid: segment
    accelerations, trunk/head rotational velocities and joint/head angles.
    Without ``initial_state`` the model starts at rest with a quiescent
    delay history; with one (from ``create_state``, ``step`` or an earlier
    result's ``meta["final_state"]``, for the record's dt) it resumes from
    its coordinates and delay history, and the state passed in is left
    unchanged.  ``meta["final_state"]`` is the state at the last row.
    """
    A = seat_motion.select(SEAT_INPUT_CHANNELS).samples
    dt, t0 = seat_motion.dt, seat_motion.start_time
    kernel = _get_kernel(model, dt)
    state = create_state(model, dt) if initial_state is None else initial_state
    _check_dt(state, dt)

    Y = np.empty((len(A), len(model.outputs.names)))
    t_begin = _time.perf_counter()
    final = _run(model, kernel, state, A, t0, Y)
    wall = _time.perf_counter() - t_begin

    meta = dict(seat_motion.meta)
    meta.update({
        "wall_clock_s": wall,
        "realtime_factor": seat_motion.duration / wall if wall > 0 else float("inf"),
        "solver": "rk4",
        "dt_s": dt,
        "final_state": final,
    })
    return TimeSeries(
        start_time=t0, dt=dt,
        channels=tuple(zip(model.outputs.names, model.outputs.units)),
        samples=Y, meta=meta,
    )


def mechanical_energy(model, state: BodyState) -> float:
    """Kinetic plus elastic plus gravitational energy of the deviation.

    Quadratic form about static equilibrium; for a passive model with zero
    input this never increases along a trajectory.
    """
    q, qd = state.q, state.qd
    return 0.5 * float(qd @ model.M @ qd) + 0.5 * float(q @ model.K @ q)
