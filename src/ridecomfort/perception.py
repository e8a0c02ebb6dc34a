"""Vestibular sensing and sensory-conflict computation.

Semicircular canals high-pass rotational velocity; otoliths read specific
force in the head frame; a slow filter steered by sensed rotation tracks
the subjective vertical.  The expected vertical is an upright prior,
optionally corrected toward the true vertical when vision is available.
Conflict is the chord distance between sensed and expected vertical scaled
to acceleration units.

Conventions (z up, small head angles): specific force is a + (0, 0, -g),
so a resting otolith reads (0, 0, -g) and the sensed vertical is the
negated, normalized specific force.

``perceive`` runs the chain over chunks of at most ``_CHUNK_ROWS`` rows,
filling one preallocated perceived and one conflict array, and carries a
``PerceptionState`` (the canal filter states, the subjective vertical
with its degenerate count, and the vision delay's tail) from one chunk to
the next, so beyond its outputs it holds one chunk's work, with the same
bits as one pass.  Given that state, a call continues where the call on
the rows before it stopped, so a record perceived a few rows at a time
gives the bits of one call on all of it.  Each component function is the
core's code run on a whole record.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.signal as sps

from ridecomfort.body.params import _CEILINGS
from ridecomfort.errors import NonFiniteSample
from ridecomfort.schema import Validated
from ridecomfort.timeseries import _BLOCK_ROWS as _CHUNK_ROWS, TimeSeries, from_arrays

GRAVITY = 9.81

# Specific-force magnitudes below this give no usable direction; the
# previous subjective-vertical estimate is carried and the sample flagged.
DEGENERATE_SF_M_S2 = 0.1

# samples per chunk of the subjective-vertical loop
_SV_CHUNK = 256

ROTVEL_CHANNELS = ("head_rotvel_roll", "head_rotvel_pitch", "head_rotvel_yaw")
ACC_CHANNELS = ("head_acc_x", "head_acc_y", "head_acc_z")
ANGLE_CHANNELS = ("head_angle_roll", "head_angle_pitch")
# the body-response channels that perceive reads
BODY_CHANNELS = ROTVEL_CHANNELS + ACC_CHANNELS + ANGLE_CHANNELS

SENSED_ROTVEL = tuple((n.replace("head_", "sensed_"), "rad/s") for n in ROTVEL_CHANNELS)
SENSED_SF = tuple((f"sensed_sf_{ax}", "m/s^2") for ax in "xyz")
SENSED_VERT = tuple((f"sensed_vert_{ax}", "1") for ax in "xyz")
EXPECTED_VERT = tuple((f"expected_vert_{ax}", "1") for ax in "xyz")
# the channels of perceive's perceived record, in its column order
PERCEIVED_CHANNELS = SENSED_ROTVEL + SENSED_SF + SENSED_VERT + EXPECTED_VERT


@dataclass(frozen=True)
class VisionParams(Validated):
    enabled: bool = False
    rotation_gain: float = 1.0
    delay_s: float = 0.2

    def validate(self) -> None:
        if not 0.0 <= self.rotation_gain <= 1.0:
            raise ValueError("rotation_gain must be within [0, 1]")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        if self.delay_s > _CEILINGS["_s"][0]:  # the body model's delay ceiling
            raise ValueError("delay_s must be at most {:g} {}".format(*_CEILINGS["_s"]))


@dataclass(frozen=True)
class VestibularParams(Validated):
    canal_tau_long_s: float = 5.7
    canal_tau_short_s: float = 0.005
    otolith_gain: float = 1.0
    sv_time_constant_s: float = 5.0
    vision: VisionParams = field(default_factory=VisionParams)

    def validate(self) -> None:
        if not 0.0 < self.canal_tau_short_s < self.canal_tau_long_s:
            raise ValueError("canal_tau_short_s must be > 0 and < canal_tau_long_s")
        if self.otolith_gain <= 0:
            raise ValueError("otolith_gain must be > 0")
        if self.sv_time_constant_s <= 0:
            raise ValueError("sv_time_constant_s must be > 0")


@dataclass
class PerceptionState:
    """What ``perceive`` carries from a record's last row to the next row.

    ``zi`` holds the canal filter states per axis (None before the first
    row), ``vertical`` the subjective vertical, ``degenerate`` the rows so
    far whose specific force gave no direction, and ``tail`` the true
    vertical of the last vision-delay rows (None before the first row).
    """

    zi: np.ndarray | None = None
    vertical: tuple = (0.0, 0.0, 1.0)
    degenerate: int = 0
    tail: np.ndarray | None = field(default=None, repr=False)


def _columns(ts: TimeSeries, names) -> np.ndarray:
    return ts.samples[:, [ts.index(n) for n in names]]


def _canal_filter(dt: float, params: VestibularParams):
    """(b, a) of the canal dynamics at step dt."""
    t1, t2 = params.canal_tau_long_s, params.canal_tau_short_s
    if dt > t2:
        warnings.warn(f"dt={dt} s undersamples the canal fast pole (tau2={t2} s)",
                      RuntimeWarning, stacklevel=3)
    return _bilinear_canal(dt, t1, t2)


@functools.lru_cache(maxsize=64)
def _bilinear_canal(dt, t1, t2):
    """The canal filter's coefficients, designed once per step and time
    constants: a record perceived a few rows at a time asks for them at
    every call."""
    coefficients = sps.bilinear([t1, 0.0], [t1 * t2, t1 + t2, 1.0], fs=1.0 / dt)
    for c in coefficients:  # shared by every caller
        c.setflags(write=False)
    return coefficients


def _canal_rows(b, a, rotvel, zi, out) -> None:
    """Filter (m, 3) rotation rates into out; zi[k] carries axis k's state."""
    for k in range(3):
        out[:, k], zi[k] = sps.lfilter(b, a, rotvel[:, k], zi=zi[k])


def _specific_force_rows(acc, angles, gain, out) -> None:
    """(m, 3) accelerations and (m, 2) roll/pitch to head-frame specific force."""
    f_lab = acc + np.array([0.0, 0.0, -GRAVITY])
    theta = np.column_stack([angles[:, 0], angles[:, 1], np.zeros(len(angles))])
    np.subtract(f_lab, np.cross(theta, f_lab), out=out)
    out *= gain


def _vision_lag(vision: VisionParams, dt: float) -> int | None:
    """Rows of visual delay, or None when vision leaves the prior as it is."""
    if vision.enabled and vision.rotation_gain > 0.0:
        return int(round(vision.delay_s / dt))
    return None


def _expected_rows(angles, vision, lag, tail, out):
    """Expected vertical of m rows into out; returns the next chunk's tail.

    tail holds the true vertical of the `lag` rows before this chunk; None
    before the first row, which the delay fills with the first row's.
    """
    out[:, :2] = 0.0
    out[:, 2] = 1.0
    if lag is None:
        return tail
    m = len(angles)
    v_true = np.column_stack([-angles[:, 1], angles[:, 0], np.ones(m)])
    v_true /= np.linalg.norm(v_true, axis=1, keepdims=True)
    if lag > 0:
        if tail is None:
            tail = np.repeat(v_true[:1], lag, axis=0)
        delayed = np.vstack([tail, v_true])
        v_true, tail = delayed[:m], delayed[m:].copy()
    out += vision.rotation_gain * (v_true - out)
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    return tail


def _conflict_rows(sensed, expected, out) -> None:
    out[:, 0] = GRAVITY * np.linalg.norm(sensed - expected, axis=1)


def scc_response(rotvel: TimeSeries, params: VestibularParams) -> TimeSeries:
    """Canal dynamics tau1*s / ((1 + tau1*s)(1 + tau2*s)) per axis.

    A rotation step is sensed almost fully and decays with the long time
    constant; sustained rotation washes out to zero.
    """
    b, a = _canal_filter(rotvel.dt, params)
    out = np.empty((rotvel.n_samples, 3))
    _canal_rows(b, a, _columns(rotvel, ROTVEL_CHANNELS), np.zeros((3, len(a) - 1)), out)
    return from_arrays(rotvel.dt, out, SENSED_ROTVEL, start_time=rotvel.start_time)


def otolith_response(head_acc: TimeSeries, head_angles: TimeSeries,
                     params: VestibularParams) -> TimeSeries:
    """Specific force rotated into the head frame (small angles)."""
    if head_acc.dt != head_angles.dt or head_acc.n_samples != head_angles.n_samples:
        raise ValueError("acceleration and angle records must share one grid")
    out = np.empty((head_acc.n_samples, 3))
    _specific_force_rows(_columns(head_acc, ACC_CHANNELS),
                         _columns(head_angles, ANGLE_CHANNELS), params.otolith_gain, out)
    return from_arrays(head_acc.dt, out, SENSED_SF, start_time=head_acc.start_time)


def subjective_vertical(sensed_sf: TimeSeries, sensed_rotvel: TimeSeries,
                        params: VestibularParams, *,
                        vertical: tuple = (0.0, 0.0, 1.0)) -> TimeSeries:
    """Low-passed gravity-direction estimate steered by sensed rotation.

    Each step rotates the previous estimate with the sensed angular
    velocity, then pulls it toward the negated specific-force direction
    with time constant sv_time_constant_s.  Near-zero specific force keeps
    the previous direction and is counted in meta["degenerate_samples"].
    The estimate before the first row is `vertical`: upright, or the last
    row of the record this one continues.
    """
    if sensed_sf.dt != sensed_rotvel.dt or sensed_sf.n_samples != sensed_rotvel.n_samples:
        raise ValueError("specific-force and rotation records must share one grid")
    dt = sensed_sf.dt
    tau = params.sv_time_constant_s
    F = sensed_sf.samples
    W = sensed_rotvel.samples
    out = np.empty((sensed_sf.n_samples, 3))
    vx, vy, vz = vertical
    degenerate = 0
    k = dt / tau
    # Python floats are faster here than numpy scalars and round alike;
    # converting a chunk at a time bounds the lists' memory
    for start in range(0, len(out), _SV_CHUNK):
        stop = start + _SV_CHUNK
        rows = []
        for (wx, wy, wz), (fx, fy, fz) in zip(W[start:stop].tolist(),
                                              F[start:stop].tolist()):
            # v <- v - dt * (w x v): space-fixed direction seen from the head
            cx = wy * vz - wz * vy
            cy = wz * vx - wx * vz
            cz = wx * vy - wy * vx
            vx -= dt * cx
            vy -= dt * cy
            vz -= dt * cz
            fmag = (fx * fx + fy * fy + fz * fz) ** 0.5
            if fmag < DEGENERATE_SF_M_S2:
                degenerate += 1
            else:
                vx += k * (-fx / fmag - vx)
                vy += k * (-fy / fmag - vy)
                vz += k * (-fz / fmag - vz)
            # a zero norm yields NaN rather than ZeroDivisionError, so
            # from_arrays reports the row as a non-finite sample
            norm = (vx * vx + vy * vy + vz * vz) ** 0.5 or math.nan
            vx /= norm
            vy /= norm
            vz /= norm
            rows.append((vx, vy, vz))
        out[start:stop] = rows
    return from_arrays(dt, out, SENSED_VERT, start_time=sensed_sf.start_time,
                       meta={"degenerate_samples": degenerate})


def internal_expectation(head_angles: TimeSeries, params: VestibularParams) -> TimeSeries:
    """Expected vertical in the head frame.

    Without vision this is the upright prior (0, 0, 1).  With vision the
    prior is blended toward the true vertical-in-head-frame, delayed by the
    visual latency and weighted by the rotation gain.
    """
    lag = _vision_lag(params.vision, head_angles.dt)
    angles = None if lag is None else _columns(head_angles, ANGLE_CHANNELS)
    out = np.empty((head_angles.n_samples, 3))
    _expected_rows(angles, params.vision, lag, None, out)
    return from_arrays(head_angles.dt, out, EXPECTED_VERT,
                       start_time=head_angles.start_time)


def conflict(sensed_vert: TimeSeries, expected_vert: TimeSeries) -> TimeSeries:
    """Conflict magnitude g * |v_sensed - v_expected| in m/s^2."""
    if sensed_vert.dt != expected_vert.dt or sensed_vert.n_samples != expected_vert.n_samples:
        raise ValueError("sensed and expected records must share one grid")
    out = np.empty((sensed_vert.n_samples, 1))
    _conflict_rows(sensed_vert.samples, expected_vert.samples, out)
    return from_arrays(sensed_vert.dt, out, [("conflict", "m/s^2")],
                       start_time=sensed_vert.start_time,
                       meta=dict(sensed_vert.meta))


def perceive(body_response: TimeSeries, params: VestibularParams, *,
             state: PerceptionState | None = None) -> tuple:
    """Full perception chain on a body-response record.

    Returns (perceived, conflict): the perceived record bundles sensed
    rotational velocity, sensed specific force, sensed vertical and
    expected vertical.  A ``state`` left by the call on the rows before
    this record is continued from and advanced to its last row; without
    one the chain starts at rest, upright.  ``meta["degenerate_samples"]``
    counts from the state's first row.
    """
    state = PerceptionState() if state is None else state
    n, dt, t0 = body_response.n_samples, body_response.dt, body_response.start_time
    b, a = _canal_filter(dt, params)
    lag = _vision_lag(params.vision, dt)
    cols = [body_response.index(name) for name in BODY_CHANNELS]
    perceived = np.empty((n, len(PERCEIVED_CHANNELS)))
    c = np.empty((n, 1))
    if state.zi is None:
        state.zi = np.zeros((3, len(a) - 1))
    for c0 in range(0, n, _CHUNK_ROWS):
        rows = body_response.samples[c0:c0 + _CHUNK_ROWS, cols]
        out = perceived[c0:c0 + _CHUNK_ROWS]
        _canal_rows(b, a, rows[:, 0:3], state.zi, out[:, 0:3])
        _specific_force_rows(rows[:, 3:6], rows[:, 6:8], params.otolith_gain, out[:, 3:6])
        start = t0 + c0 * dt
        try:
            v = subjective_vertical(TimeSeries(start, dt, SENSED_SF, out[:, 3:6]),
                                    TimeSeries(start, dt, SENSED_ROTVEL, out[:, 0:3]),
                                    params, vertical=state.vertical)
        except NonFiniteSample as e:
            # the chunk counts rows from its own start
            raise NonFiniteSample(e.channel, c0 + e.row) from None
        out[:, 6:9] = v.samples
        state.vertical = tuple(v.samples[-1].tolist())
        state.degenerate += v.meta["degenerate_samples"]
        state.tail = _expected_rows(rows[:, 6:8], params.vision, lag, state.tail,
                                    out[:, 9:12])
        _conflict_rows(out[:, 6:9], out[:, 9:12], c[c0:c0 + _CHUNK_ROWS])
    return (TimeSeries(t0, dt, PERCEIVED_CHANNELS, perceived,
                       meta={"degenerate_samples": state.degenerate,
                             "vision": params.vision.enabled}),
            TimeSeries(t0, dt, (("conflict", "m/s^2"),), c,
                       meta={"degenerate_samples": state.degenerate}))
