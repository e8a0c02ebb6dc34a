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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.signal as sps

from ridecomfort.timeseries import TimeSeries, from_arrays

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


@dataclass(frozen=True)
class VisionParams:
    enabled: bool = False
    rotation_gain: float = 1.0
    delay_s: float = 0.2

    def validate(self) -> None:
        if not isinstance(self.enabled, bool):
            raise ValueError("vision.enabled must be true or false")
        if not 0.0 <= self.rotation_gain <= 1.0:
            raise ValueError("vision.rotation_gain must be within [0, 1]")
        if self.delay_s < 0:
            raise ValueError("vision.delay_s must be >= 0")


@dataclass(frozen=True)
class VestibularParams:
    canal_tau_long_s: float = 5.7
    canal_tau_short_s: float = 0.005
    otolith_gain: float = 1.0
    sv_time_constant_s: float = 5.0
    vision: VisionParams = field(default_factory=VisionParams)

    def validate(self) -> None:
        if not 0.0 < self.canal_tau_short_s < self.canal_tau_long_s:
            raise ValueError("need 0 < canal_tau_short_s < canal_tau_long_s")
        if self.otolith_gain <= 0:
            raise ValueError("otolith_gain must be > 0")
        if self.sv_time_constant_s <= 0:
            raise ValueError("sv_time_constant_s must be > 0")
        self.vision.validate()


def scc_response(rotvel: TimeSeries, params: VestibularParams) -> TimeSeries:
    """Canal dynamics tau1*s / ((1 + tau1*s)(1 + tau2*s)) per axis.

    A rotation step is sensed almost fully and decays with the long time
    constant; sustained rotation washes out to zero.
    """
    params.validate()
    t1, t2 = params.canal_tau_long_s, params.canal_tau_short_s
    if rotvel.dt > t2:
        warnings.warn(
            f"dt={rotvel.dt} s undersamples the canal fast pole (tau2={t2} s)",
            RuntimeWarning, stacklevel=2)
    b, a = sps.bilinear([t1, 0.0], [t1 * t2, t1 + t2, 1.0], fs=1.0 / rotvel.dt)
    data = {}
    for name in ROTVEL_CHANNELS:
        out_name = name.replace("head_", "sensed_")
        data[out_name] = sps.lfilter(b, a, rotvel.channel(name))
    channels = [(n, "rad/s") for n in data]
    return from_arrays(rotvel.dt, data, channels, start_time=rotvel.start_time)


def otolith_response(head_acc: TimeSeries, head_angles: TimeSeries,
                     params: VestibularParams) -> TimeSeries:
    """Specific force rotated into the head frame (small angles)."""
    params.validate()
    if head_acc.dt != head_angles.dt or head_acc.n_samples != head_angles.n_samples:
        raise ValueError("acceleration and angle records must share one grid")
    f_lab = np.column_stack([head_acc.channel(n) for n in ACC_CHANNELS])
    f_lab = f_lab + np.array([0.0, 0.0, -GRAVITY])
    roll = head_angles.channel("head_angle_roll")
    pitch = head_angles.channel("head_angle_pitch")
    theta = np.column_stack([roll, pitch, np.zeros_like(roll)])
    f_head = f_lab - np.cross(theta, f_lab)
    f_head *= params.otolith_gain
    channels = [("sensed_sf_x", "m/s^2"), ("sensed_sf_y", "m/s^2"), ("sensed_sf_z", "m/s^2")]
    return from_arrays(head_acc.dt, f_head, channels, start_time=head_acc.start_time)


def subjective_vertical(sensed_sf: TimeSeries, sensed_rotvel: TimeSeries,
                        params: VestibularParams) -> TimeSeries:
    """Low-passed gravity-direction estimate steered by sensed rotation.

    Each step rotates the previous estimate with the sensed angular
    velocity, then pulls it toward the negated specific-force direction
    with time constant sv_time_constant_s.  Near-zero specific force keeps
    the previous direction and is counted in meta["degenerate_samples"].
    """
    params.validate()
    if sensed_sf.dt != sensed_rotvel.dt or sensed_sf.n_samples != sensed_rotvel.n_samples:
        raise ValueError("specific-force and rotation records must share one grid")
    dt = sensed_sf.dt
    tau = params.sv_time_constant_s
    F = sensed_sf.samples
    W = sensed_rotvel.samples
    out = np.empty((sensed_sf.n_samples, 3))
    vx, vy, vz = 0.0, 0.0, 1.0
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
    channels = [("sensed_vert_x", "1"), ("sensed_vert_y", "1"), ("sensed_vert_z", "1")]
    return from_arrays(dt, out, channels, start_time=sensed_sf.start_time,
                       meta={"degenerate_samples": degenerate})


def internal_expectation(head_angles: TimeSeries, params: VestibularParams) -> TimeSeries:
    """Expected vertical in the head frame.

    Without vision this is the upright prior (0, 0, 1).  With vision the
    prior is blended toward the true vertical-in-head-frame, delayed by the
    visual latency and weighted by the rotation gain.
    """
    params.validate()
    n = head_angles.n_samples
    expected = np.zeros((n, 3))
    expected[:, 2] = 1.0
    if params.vision.enabled and params.vision.rotation_gain > 0.0:
        roll = head_angles.channel("head_angle_roll")
        pitch = head_angles.channel("head_angle_pitch")
        v_true = np.column_stack([-pitch, roll, np.ones(n)])
        v_true /= np.linalg.norm(v_true, axis=1, keepdims=True)
        lag = int(round(params.vision.delay_s / head_angles.dt))
        if lag > 0:
            v_true = np.vstack([np.repeat(v_true[:1], min(lag, n), axis=0),
                                v_true[:max(n - lag, 0)]])
        expected += params.vision.rotation_gain * (v_true - expected)
        expected /= np.linalg.norm(expected, axis=1, keepdims=True)
    channels = [("expected_vert_x", "1"), ("expected_vert_y", "1"), ("expected_vert_z", "1")]
    return from_arrays(head_angles.dt, expected, channels,
                       start_time=head_angles.start_time)


def conflict(sensed_vert: TimeSeries, expected_vert: TimeSeries) -> TimeSeries:
    """Conflict magnitude g * |v_sensed - v_expected| in m/s^2."""
    if sensed_vert.dt != expected_vert.dt or sensed_vert.n_samples != expected_vert.n_samples:
        raise ValueError("sensed and expected records must share one grid")
    d = sensed_vert.samples - expected_vert.samples
    c = GRAVITY * np.linalg.norm(d, axis=1)
    return from_arrays(sensed_vert.dt, c[:, None], [("conflict", "m/s^2")],
                       start_time=sensed_vert.start_time,
                       meta=dict(sensed_vert.meta))


def perceive(body_response: TimeSeries, params: VestibularParams) -> tuple:
    """Full perception chain on a body-response record.

    Returns (perceived, conflict): the perceived record bundles sensed
    rotational velocity, sensed specific force, sensed vertical and
    expected vertical.
    """
    params.validate()
    rotvel = body_response.select(ROTVEL_CHANNELS)
    acc = body_response.select(ACC_CHANNELS)
    angles = body_response.select(ANGLE_CHANNELS)

    sensed_rv = scc_response(rotvel, params)
    sensed_sf = otolith_response(acc, angles, params)
    sensed_v = subjective_vertical(sensed_sf, sensed_rv, params)
    expected_v = internal_expectation(angles, params)
    c = conflict(sensed_v, expected_v)

    merged = np.hstack([sensed_rv.samples, sensed_sf.samples,
                        sensed_v.samples, expected_v.samples])
    channels = (tuple(sensed_rv.channels) + tuple(sensed_sf.channels)
                + tuple(sensed_v.channels) + tuple(expected_v.channels))
    perceived = TimeSeries(
        start_time=body_response.start_time, dt=body_response.dt,
        channels=channels, samples=merged,
        meta={"degenerate_samples": sensed_v.meta["degenerate_samples"],
              "vision": params.vision.enabled},
    )
    return perceived, c
