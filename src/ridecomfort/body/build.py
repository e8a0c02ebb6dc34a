"""Assembly of the linear seated-occupant model.

The occupant is a pelvis-trunk-head chain riding on a compliant seat pan.
Translational coordinates are the pelvis carriage relative to the seat;
angles are absolute.  Small-angle kinematics keep the model linear, so the
whole system reduces to constant matrices:

    M qdd + C qd + K (q - q_eq) = -Gamma a_seat + feedback torques

with feedback channels acting on delayed deviations from equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from ridecomfort.body.params import BodyParams, PostureConfig, COORDINATE_NAMES
from ridecomfort.errors import (
    NoEquilibrium,
    SingularMassMatrix,
    UnstableConfiguration,
)

_NFULL = len(COORDINATE_NAMES)

# Eigenvalues with real part above this are treated as genuinely unstable;
# anything smaller covers rigid modes and rounding on marginal ones.
_STABILITY_TOL = 1e-8

# Backrest contact-height factors relative to the configured height.
_CONTACT_FACTOR = {"none": None, "low": 0.6, "high": 1.0}

OUTPUT_UNITS = {"acc": "m/s^2", "rotvel": "rad/s", "angle": "rad"}


def _e(i: int) -> np.ndarray:
    v = np.zeros(_NFULL)
    v[i] = 1.0
    return v


@dataclass(frozen=True)
class FeedbackChannel:
    """One delayed PD loop: torque = -act @ (kp*s + kd*sdot) with s sensed earlier.

    ``sense`` maps coordinate deviations to the sensed vector s; ``act`` maps
    the per-component correction back to generalized forces.  ``kp``/``kd``
    are per-component gains.
    """

    name: str
    delay_s: float
    sense: np.ndarray
    act: np.ndarray
    kp: np.ndarray
    kd: np.ndarray

    def gain_matrices(self) -> tuple:
        """Equivalent position/rate gain matrices in coordinate space."""
        gp = self.act @ (self.kp[:, None] * self.sense)
        gd = self.act @ (self.kd[:, None] * self.sense)
        return gp, gd


@dataclass(frozen=True)
class OutputMap:
    """Linear read-out of response channels from (dq, dqd, qdd, a_seat)."""

    names: tuple
    units: tuple
    Yq: np.ndarray
    Yqd: np.ndarray
    Yqdd: np.ndarray
    Yin: np.ndarray
    offset: np.ndarray

    def index(self, name: str) -> int:
        return self.names.index(name)

    def evaluate(self, dq, dqd, qdd, a_seat) -> np.ndarray:
        """Rows of samples in, rows of output channels out."""
        return (self.offset
                + dq @ self.Yq.T + dqd @ self.Yqd.T
                + qdd @ self.Yqdd.T + a_seat @ self.Yin.T)


@dataclass
class ModelRealization:
    """Assembled matrices plus everything needed to simulate or linearize.

    All arrays are reduced to the active (unlocked) coordinates.  ``q_eq_full``
    keeps the full-space static equilibrium for reporting.
    """

    params: BodyParams
    posture: PostureConfig
    coords: tuple
    active_idx: np.ndarray
    M: np.ndarray
    C: np.ndarray
    K: np.ndarray
    Gamma: np.ndarray
    channels: tuple
    outputs: OutputMap
    q0_full: np.ndarray
    q_eq_full: np.ndarray
    eigenvalues: np.ndarray
    mass_cho: tuple = field(repr=False, default=None)
    _kernels: dict = field(repr=False, default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.coords)

    def coordinate_index(self, name: str) -> int:
        return self.coords.index(name)

    def natural_frequencies_hz(self) -> np.ndarray:
        """Damped natural frequencies of oscillatory closed-loop modes."""
        w = np.abs(self.eigenvalues.imag)
        return np.unique(np.round(w[w > 1e-9], 12)) / (2.0 * np.pi)


def _segment_jacobians(p: BodyParams) -> dict:
    l_p = p.pelvis_to_l5s1_m
    l_t = p.l5s1_to_c7t1_m
    l_h = p.c7t1_to_head_com_m
    c_t = 0.5 * l_t  # trunk CoM halfway up the segment

    J_p = np.vstack([_e(0), _e(1), _e(2)])
    J_t = np.vstack([
        _e(0) + l_p * _e(4) + c_t * _e(6),
        _e(1) - l_p * _e(3) - c_t * _e(5),
        _e(2),
    ])
    J_h = np.vstack([
        _e(0) + l_p * _e(4) + l_t * _e(6) + l_h * _e(9),
        _e(1) - l_p * _e(3) - l_t * _e(5) - l_h * _e(8),
        _e(2),
    ])
    W_p = np.vstack([_e(3), _e(4), np.zeros(_NFULL)])
    W_t = np.vstack([_e(5), _e(6), _e(7)])
    W_h = np.vstack([_e(8), _e(9), _e(7)])
    return {"J_p": J_p, "J_t": J_t, "J_h": J_h, "W_p": W_p, "W_t": W_t, "W_h": W_h}


def _elastic_elements(p: BodyParams, contact: str) -> list:
    """(involvement vector, stiffness, damping) triples for every element."""
    l_p = p.pelvis_to_l5s1_m
    elements = [
        (_e(0), p.seat_stiffness_x_N_per_m, p.seat_damping_x_Ns_per_m),
        (_e(1), p.seat_stiffness_y_N_per_m, p.seat_damping_y_Ns_per_m),
        (_e(2), p.seat_stiffness_z_N_per_m, p.seat_damping_z_Ns_per_m),
        (_e(3), p.seat_rot_stiffness_roll_Nm_per_rad, p.seat_rot_damping_roll_Nms_per_rad),
        (_e(4), p.seat_rot_stiffness_pitch_Nm_per_rad, p.seat_rot_damping_pitch_Nms_per_rad),
        (_e(5) - _e(3), p.lumbar_stiffness_roll_Nm_per_rad, p.lumbar_damping_roll_Nms_per_rad),
        (_e(6) - _e(4), p.lumbar_stiffness_pitch_Nm_per_rad, p.lumbar_damping_pitch_Nms_per_rad),
        (_e(7), p.lumbar_stiffness_yaw_Nm_per_rad, p.lumbar_damping_yaw_Nms_per_rad),
        (_e(8) - _e(5), p.neck_stiffness_roll_Nm_per_rad, p.neck_damping_roll_Nms_per_rad),
        (_e(9) - _e(6), p.neck_stiffness_pitch_Nm_per_rad, p.neck_damping_pitch_Nms_per_rad),
    ]
    factor = _CONTACT_FACTOR[contact]
    if p.backrest_present and factor is not None:
        d_b = factor * p.backrest_height_m - l_p  # lever above L5/S1
        w_bx = _e(0) + l_p * _e(4) + d_b * _e(6)
        w_by = _e(1) - l_p * _e(3) - d_b * _e(5)
        elements.append((w_bx, p.backrest_stiffness_N_per_m, p.backrest_damping_Ns_per_m))
        elements.append((w_by, p.backrest_stiffness_N_per_m, p.backrest_damping_Ns_per_m))
    return elements


def _gravity_terms(p: BodyParams) -> tuple:
    """Linear gravity load f_g0 and geometric (tilt) stiffness K_g."""
    g = p.gravity_m_per_s2
    m_t, m_h = p.trunk_mass_kg, p.head_mass_kg
    l_p = p.pelvis_to_l5s1_m
    l_t = p.l5s1_to_c7t1_m
    c_t = 0.5 * l_t
    l_h = p.c7t1_to_head_com_m

    f_g0 = np.zeros(_NFULL)
    f_g0[2] = g * p.total_mass_kg()

    k_pelvis = -g * l_p * (m_t + m_h)
    k_trunk = -g * (m_t * c_t + m_h * l_t)
    k_head = -g * m_h * l_h
    K_g = np.diag([0.0, 0.0, 0.0, k_pelvis, k_pelvis, k_trunk, k_trunk, 0.0, k_head, k_head])
    return f_g0, K_g


def _feedback_channels(p: BodyParams) -> list:
    """Full-space channel descriptors in the order they act."""
    joints = [
        (_e(3), p.prop_gain_pelvis_Nm_per_rad, p.prop_gain_pelvis_Nms_per_rad),
        (_e(4), p.prop_gain_pelvis_Nm_per_rad, p.prop_gain_pelvis_Nms_per_rad),
        (_e(5) - _e(3), p.prop_gain_lumbar_Nm_per_rad, p.prop_gain_lumbar_Nms_per_rad),
        (_e(6) - _e(4), p.prop_gain_lumbar_Nm_per_rad, p.prop_gain_lumbar_Nms_per_rad),
        (_e(7), p.prop_gain_lumbar_Nm_per_rad, p.prop_gain_lumbar_Nms_per_rad),
        (_e(8) - _e(5), p.prop_gain_neck_Nm_per_rad, p.prop_gain_neck_Nms_per_rad),
        (_e(9) - _e(6), p.prop_gain_neck_Nm_per_rad, p.prop_gain_neck_Nms_per_rad),
    ]
    W_prop = np.vstack([w for w, _, _ in joints])
    kp = np.array([k for _, k, _ in joints])
    kd = np.array([c for _, _, c in joints])
    channels = [FeedbackChannel("proprioceptive", p.prop_delay_s,
                                W_prop, W_prop.T.copy(), kp, kd)]

    # Head-in-space sensing corrected through the neck joint.
    W_head = np.vstack([_e(8), _e(9)])
    T_neck = np.vstack([_e(8) - _e(5), _e(9) - _e(6)]).T
    channels.append(FeedbackChannel(
        "vestibular", p.vestibular_delay_s, W_head, T_neck,
        np.full(2, p.vestibular_gain_Nm_per_rad),
        np.full(2, p.vestibular_gain_Nms_per_rad)))

    if p.visual_enabled and (p.visual_gain_Nm_per_rad > 0 or p.visual_gain_Nms_per_rad > 0):
        channels.append(FeedbackChannel(
            "visual", p.visual_delay_s, W_head, T_neck,
            np.full(2, p.visual_gain_Nm_per_rad),
            np.full(2, p.visual_gain_Nms_per_rad)))
    return channels


def _output_map_full(p: BodyParams) -> tuple:
    """Full-space output rows; sliced to active coordinates by the caller."""
    jac = _segment_jacobians(p)
    names, units, Yq, Yqd, Yqdd, Yin = [], [], [], [], [], []
    eye3 = np.eye(3)

    for seg, J in (("pelvis", jac["J_p"]), ("trunk", jac["J_t"]), ("head", jac["J_h"])):
        for k, ax in enumerate("xyz"):
            names.append(f"{seg}_acc_{ax}")
            units.append(OUTPUT_UNITS["acc"])
            Yq.append(np.zeros(_NFULL))
            Yqd.append(np.zeros(_NFULL))
            Yqdd.append(J[k])
            Yin.append(eye3[k])
    for seg, W in (("trunk", jac["W_t"]), ("head", jac["W_h"])):
        for k, ax in enumerate(("roll", "pitch", "yaw")):
            names.append(f"{seg}_rotvel_{ax}")
            units.append(OUTPUT_UNITS["rotvel"])
            Yq.append(np.zeros(_NFULL))
            Yqd.append(W[k])
            Yqdd.append(np.zeros(_NFULL))
            Yin.append(np.zeros(3))
    angle_rows = [
        ("pelvis_angle_roll", _e(3)),
        ("pelvis_angle_pitch", _e(4)),
        ("lumbar_angle_roll", _e(5) - _e(3)),
        ("lumbar_angle_pitch", _e(6) - _e(4)),
        ("lumbar_angle_yaw", _e(7)),
        ("neck_angle_roll", _e(8) - _e(5)),
        ("neck_angle_pitch", _e(9) - _e(6)),
        ("head_angle_roll", _e(8)),
        ("head_angle_pitch", _e(9)),
    ]
    for name, row in angle_rows:
        names.append(name)
        units.append(OUTPUT_UNITS["angle"])
        Yq.append(row)
        Yqd.append(np.zeros(_NFULL))
        Yqdd.append(np.zeros(_NFULL))
        Yin.append(np.zeros(3))
    return (tuple(names), tuple(units),
            np.vstack(Yq), np.vstack(Yqd), np.vstack(Yqdd), np.vstack(Yin))


def build_model(params: BodyParams, posture: PostureConfig | None = None) -> ModelRealization:
    """Assemble matrices, solve the static equilibrium and verify stability.

    Raises SingularMassMatrix, NoEquilibrium or UnstableConfiguration when the
    parameter set cannot produce a usable model.
    """
    posture = posture or PostureConfig()

    jac = _segment_jacobians(params)
    masses = (params.pelvis_mass_kg, params.trunk_mass_kg, params.head_mass_kg)
    inertias = (
        np.diag([params.pelvis_inertia_roll_kgm2, params.pelvis_inertia_pitch_kgm2, 0.0]),
        np.diag([params.trunk_inertia_roll_kgm2, params.trunk_inertia_pitch_kgm2,
                 params.trunk_inertia_yaw_kgm2]),
        np.diag([params.head_inertia_roll_kgm2, params.head_inertia_pitch_kgm2,
                 params.head_inertia_yaw_kgm2]),
    )
    J_all = (jac["J_p"], jac["J_t"], jac["J_h"])
    W_all = (jac["W_p"], jac["W_t"], jac["W_h"])

    M = np.zeros((_NFULL, _NFULL))
    Gamma = np.zeros((_NFULL, 3))
    for m, I, J, W in zip(masses, inertias, J_all, W_all):
        M += m * J.T @ J + W.T @ I @ W
        Gamma += m * J.T

    C = np.zeros((_NFULL, _NFULL))
    K_el = np.zeros((_NFULL, _NFULL))
    for w, k, c in _elastic_elements(params, posture.backrest_contact):
        K_el += k * np.outer(w, w)
        C += c * np.outer(w, w)

    f_g0, K_g = _gravity_terms(params)
    K = K_el + K_g

    q0_full = np.asarray(posture.rest_coordinates())
    locked = set(posture.locked_coordinates)
    active_idx = np.array([i for i, nm in enumerate(COORDINATE_NAMES) if nm not in locked])
    coords = tuple(COORDINATE_NAMES[i] for i in active_idx)

    Ma = M[np.ix_(active_idx, active_idx)]
    Ca = C[np.ix_(active_idx, active_idx)]
    Ka = K[np.ix_(active_idx, active_idx)]
    Ga = Gamma[active_idx, :]

    try:
        mass_cho = sla.cho_factor(Ma, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularMassMatrix(f"mass matrix is not positive definite: {exc}") from None

    # Static balance of springs against gravity, locked coordinates pinned
    # at the rest posture.  Least squares tolerates unloaded singular
    # directions; a residual means the load has no static answer.
    rhs = (K_el @ q0_full - f_g0)[active_idx]
    # A parameter that overflows the stiffness (a 1e300 m backrest lever,
    # squared) is refused here: lstsq does not check its input, and LAPACK
    # writes its complaints about inf or nan straight to stdout.
    if not (np.isfinite(Ka).all() and np.isfinite(rhs).all()):
        raise NoEquilibrium("stiffness or gravity load is not finite: a parameter's "
                            "magnitude overflows the model")
    q_eq_a, *_ = np.linalg.lstsq(Ka, rhs, rcond=None)
    scale = max(np.linalg.norm(rhs), np.linalg.norm(f_g0), 1e-30)
    residual = np.linalg.norm(Ka @ q_eq_a - rhs)
    if residual > 1e-9 * scale:
        raise NoEquilibrium(
            f"static residual {residual:.3e} exceeds 1e-9 of the gravity load {scale:.3e}")

    # Round-off from the solve leaves ~1e-17 rad ghosts in coordinates
    # that balance exactly; they would leak into the output offsets.
    q_eq_a[np.abs(q_eq_a) < 1e-12 * max(1.0, np.max(np.abs(q_eq_a)))] = 0.0

    q_eq_full = q0_full.copy()
    q_eq_full[active_idx] = q_eq_a

    channels = []
    for ch in _feedback_channels(params):
        sense = ch.sense[:, active_idx]
        act = ch.act[active_idx, :]
        # Components sensing only locked coordinates contribute nothing.
        alive = np.any(sense != 0.0, axis=1) | np.any(act != 0.0, axis=0)
        channels.append(FeedbackChannel(ch.name, ch.delay_s, sense[alive],
                                        act[:, alive], ch.kp[alive], ch.kd[alive]))
    channels = tuple(ch for ch in channels if ch.sense.size)

    names, units, Yq, Yqd, Yqdd, Yin = _output_map_full(params)
    offset = Yq @ q_eq_full
    outputs = OutputMap(names, units, Yq[:, active_idx], Yqd[:, active_idx],
                        Yqdd[:, active_idx], Yin, offset)

    model = ModelRealization(
        params=params, posture=posture, coords=coords, active_idx=active_idx,
        M=Ma, C=Ca, K=Ka, Gamma=Ga, channels=channels, outputs=outputs,
        q0_full=q0_full, q_eq_full=q_eq_full, eigenvalues=np.empty(0),
        mass_cho=mass_cho,
    )
    for arr in (model.M, model.C, model.K, model.Gamma):
        arr.setflags(write=False)

    from ridecomfort.body.linearize import closed_loop_eigenvalues

    # eigenvalues only; the vectors are computed to report an unstable mode
    eigs = model.eigenvalues = closed_loop_eigenvalues(model)
    if eigs.real.max() > _STABILITY_TOL * max(1.0, np.abs(eigs).max()):
        eigs, vecs = closed_loop_eigenvalues(model, with_vectors=True)
        worst = int(np.argmax(eigs.real))
        shape = vecs[:model.n, worst]
        shape = np.real(shape / shape[np.argmax(np.abs(shape))])
        raise UnstableConfiguration(eigs[worst],
                                    dict(zip(coords, np.round(shape, 6).tolist())))
    return model


def static_equilibrium(model: ModelRealization) -> np.ndarray:
    """Full-coordinate static equilibrium (locked coordinates at rest posture)."""
    return model.q_eq_full.copy()
