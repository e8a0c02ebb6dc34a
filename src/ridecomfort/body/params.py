"""Parameter containers for the seated-occupant model.

Field names carry their unit as a suffix so that config files, presets and
code all speak the same vocabulary.  Presets live in ``ridecomfort/data`` as
flat JSON objects with exactly these keys.
"""

from __future__ import annotations

import functools
import json
import types
from dataclasses import dataclass, fields
from importlib import resources

from ridecomfort.errors import ConfigError
from ridecomfort.schema import Validated, is_number, read

# Generalized coordinates of the three-segment chain.  Translations are the
# pelvis carriage relative to the seat pan; angles are absolute (lab frame).
# Head yaw follows trunk yaw rigidly, pelvis yaw follows the seat.
COORDINATE_NAMES = (
    "seat_x",
    "seat_y",
    "seat_z",
    "pelvis_roll",
    "pelvis_pitch",
    "trunk_roll",
    "trunk_pitch",
    "trunk_yaw",
    "head_roll",
    "head_pitch",
)

# Joint-space names accepted for initial posture angles.
JOINT_NAMES = (
    "pelvis_roll",
    "pelvis_pitch",
    "lumbar_roll",
    "lumbar_pitch",
    "lumbar_yaw",
    "neck_roll",
    "neck_pitch",
)

_POSTURES = ("erect", "slouched")
_BACKREST_CONTACT = ("none", "low", "high")

# Rest joint angles implied by the named postures, rad.
_POSTURE_ANGLES = {
    "erect": {},
    "slouched": {"lumbar_pitch": 0.20, "neck_pitch": 0.08},
}

_MAX_REST_ANGLE_RAD = 0.6  # small-angle model; larger rest angles are out of scope
# Ceiling and unit of each field, by the unit its name ends in.  A huge
# finite value would otherwise be refused by the model build in words that
# name no parameter: a static residual (a 1e100 m backrest, a 1e308 N/m
# backrest stiffness), a mass matrix that is not positive definite (a
# 1e300 kg head) or an unstable mode (1e300 m/s^2 gravity).  With the rest
# of the default preset, a field at its ceiling builds a model, or one that
# is refused at a field or as unstable.  Suffixes are matched in this
# order, so that "_N_per_m" is not read as a length.
_CEILINGS = {
    # a translational stiffness: about 1700x the default seat's 58 kN/m; a
    # 1000 kg segment under 10 g then deflects 1 mm, as good as rigid
    "_N_per_m": (1e8, "N/m"),
    # a translational damping: above critical, 2 sqrt(k m) = 6.3e5 Ns/m,
    # for the heaviest segment on the stiffest spring
    "_Ns_per_m": (1e6, "Ns/m"),
    # a rotational stiffness or angle gain: twice the gravity torque per
    # radian, m g L = 5e5 Nm/rad, of the heaviest and longest segment under
    # 10 g, and about 1400x the default preset's largest (700 Nm/rad)
    "_Nm_per_rad": (1e6, "Nm/rad"),
    # a rotational damping or rate gain: above critical, 2 sqrt(k I) =
    # 2e5 Nms/rad, for the largest inertia on the stiffest joint
    "_Nms_per_rad": (1e6, "Nms/rad"),
    # gravity: about 10 g, more than any vehicle sustains
    "_m_per_s2": (100.0, "m/s^2"),
    # an inertia: m L^2 / 3 = 8333 kg m^2 of the heaviest segment, 5 m
    # long, about its end
    "_kgm2": (1e4, "kg m^2"),
    # a segment mass: above the heaviest recorded human's whole body (about
    # 635 kg); the default trunk is 32 kg
    "_kg": (1e3, "kg"),
    # a length: about 10x the default preset's longest (0.45 m), far past
    # any seated body
    "_m": (5.0, "m"),
    # a feedback delay: about 50x the default preset's longest (0.2 s); the
    # integrator holds round(delay / dt) sensed samples of each delay
    "_s": (10.0, "s"),
}
_LENGTHS = ("pelvis_to_l5s1_m", "l5s1_to_c7t1_m", "c7t1_to_head_com_m")


def _require(cond: bool, errors: list, field: str, message: str) -> None:
    if not cond:
        errors.append((field, message))


@functools.cache
def _preset(name):
    """The fields of the preset ``name``, read once, as a read-only mapping."""
    try:
        text = resources.files("ridecomfort.data").joinpath(f"body_{name}.json").read_text()
    except (OSError, ValueError):  # no such file, or a name no file can have
        raise ConfigError([("model.preset", f"unknown preset {name!r}")]) from None
    raw = json.loads(text)
    del raw["schema_version"], raw["label"]  # the preset file's own keys
    return types.MappingProxyType(raw)


@dataclass(frozen=True)
class BodyParams(Validated):
    """Masses, geometry, passive visco-elastic terms and feedback gains.

    All segment lengths are measured along the upright body axis.  ``prop_*``
    gains act on joint deflections away from the rest posture; the vestibular
    gains act on head orientation in space.  Gains with a ``Nms`` suffix
    multiply rates.
    """

    pelvis_mass_kg: float
    trunk_mass_kg: float
    head_mass_kg: float
    pelvis_inertia_roll_kgm2: float
    pelvis_inertia_pitch_kgm2: float
    trunk_inertia_roll_kgm2: float
    trunk_inertia_pitch_kgm2: float
    trunk_inertia_yaw_kgm2: float
    head_inertia_roll_kgm2: float
    head_inertia_pitch_kgm2: float
    head_inertia_yaw_kgm2: float
    pelvis_to_l5s1_m: float
    l5s1_to_c7t1_m: float
    c7t1_to_head_com_m: float
    seat_stiffness_x_N_per_m: float
    seat_stiffness_y_N_per_m: float
    seat_stiffness_z_N_per_m: float
    seat_damping_x_Ns_per_m: float
    seat_damping_y_Ns_per_m: float
    seat_damping_z_Ns_per_m: float
    seat_rot_stiffness_roll_Nm_per_rad: float
    seat_rot_stiffness_pitch_Nm_per_rad: float
    seat_rot_damping_roll_Nms_per_rad: float
    seat_rot_damping_pitch_Nms_per_rad: float
    lumbar_stiffness_roll_Nm_per_rad: float
    lumbar_stiffness_pitch_Nm_per_rad: float
    lumbar_stiffness_yaw_Nm_per_rad: float
    lumbar_damping_roll_Nms_per_rad: float
    lumbar_damping_pitch_Nms_per_rad: float
    lumbar_damping_yaw_Nms_per_rad: float
    neck_stiffness_roll_Nm_per_rad: float
    neck_stiffness_pitch_Nm_per_rad: float
    neck_damping_roll_Nms_per_rad: float
    neck_damping_pitch_Nms_per_rad: float
    backrest_present: bool
    backrest_height_m: float
    backrest_stiffness_N_per_m: float
    backrest_damping_Ns_per_m: float
    prop_gain_pelvis_Nm_per_rad: float
    prop_gain_pelvis_Nms_per_rad: float
    prop_gain_lumbar_Nm_per_rad: float
    prop_gain_lumbar_Nms_per_rad: float
    prop_gain_neck_Nm_per_rad: float
    prop_gain_neck_Nms_per_rad: float
    prop_delay_s: float
    vestibular_gain_Nm_per_rad: float
    vestibular_gain_Nms_per_rad: float
    vestibular_delay_s: float
    visual_enabled: bool
    visual_gain_Nm_per_rad: float
    visual_gain_Nms_per_rad: float
    visual_delay_s: float
    gravity_m_per_s2: float

    @classmethod
    def field_names(cls) -> tuple:
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_preset(cls, name: str = "default", overrides: dict | None = None) -> "BodyParams":
        """Load a named preset shipped with the package, optionally overridden;
        a ConfigError lists every problem at its path in a scenario's ``model``."""
        errors = []
        params = read(cls, _preset(name) | dict(overrides or {}), "model.overrides", errors)
        if errors:
            raise ConfigError(errors)
        return params

    def validate(self) -> None:
        """Raise ConfigError listing every out-of-range field: a mass,
        inertia or segment length must be > 0, any other float but the
        backrest height >= 0, and each at most its unit's ceiling."""
        errors = []
        floats = [f.name for f in fields(self)
                  if f.type == "float" and f.name != "backrest_height_m"]
        positive = [name for name in floats
                    if name.endswith(("_kg", "_kgm2")) or name in _LENGTHS]
        for name in positive:
            value = getattr(self, name)
            if not is_number(value) or value <= 0:
                errors.append((name, "must be a finite number > 0"))
        for name in floats:
            value = getattr(self, name)
            if name not in positive and (not is_number(value) or value < 0):
                errors.append((name, "must be a finite number >= 0"))
        for name in self.field_names():
            value = getattr(self, name)
            suffix = next((s for s in _CEILINGS if name.endswith(s)), None)
            if suffix is not None and is_number(value) and value > _CEILINGS[suffix][0]:
                errors.append((name, "must be at most {:g} {}".format(*_CEILINGS[suffix])))
        if self.backrest_present:
            if not is_number(self.backrest_height_m) or self.backrest_height_m <= 0:
                errors.append(("backrest_height_m", "must be a finite number > 0"))
            elif is_number(self.pelvis_to_l5s1_m) and self.backrest_height_m <= self.pelvis_to_l5s1_m:
                errors.append(
                    ("backrest_height_m", "must exceed pelvis_to_l5s1_m (contact is on the trunk)")
                )
        elif not is_number(self.backrest_height_m) or self.backrest_height_m < 0:
            errors.append(("backrest_height_m", "must be a finite number >= 0"))
        if errors:
            raise ConfigError(errors)

    def total_mass_kg(self) -> float:
        return self.pelvis_mass_kg + self.trunk_mass_kg + self.head_mass_kg


@dataclass(frozen=True)
class PostureConfig(Validated):
    """Initial posture, backrest engagement and coordinate locking.

    ``initial_joint_angles_rad`` entries override the named posture's rest
    angles joint by joint.  ``locked_coordinates`` removes coordinates from
    the dynamic problem entirely; they are pinned at the rest posture.
    """

    posture: str = "erect"
    backrest_contact: str = "high"
    initial_joint_angles_rad: dict[str, float] | None = None
    locked_coordinates: tuple[str, ...] = ()

    def validate(self) -> None:
        errors = []
        _require(self.posture in _POSTURES, errors, "posture",
                 f"must be one of {_POSTURES}")
        _require(self.backrest_contact in _BACKREST_CONTACT, errors, "backrest_contact",
                 f"must be one of {_BACKREST_CONTACT}")
        if self.initial_joint_angles_rad is not None:
            for key, value in self.initial_joint_angles_rad.items():
                if key not in JOINT_NAMES:
                    errors.append((f"initial_joint_angles_rad.{key}", "unknown joint"))
                elif not is_number(value) or abs(value) > _MAX_REST_ANGLE_RAD:
                    errors.append((f"initial_joint_angles_rad.{key}",
                                   f"must be a finite angle within +/-{_MAX_REST_ANGLE_RAD} rad"))
        seen = set()
        for name in self.locked_coordinates:
            if name not in COORDINATE_NAMES:
                errors.append(("locked_coordinates", f"unknown coordinate {name!r}"))
            elif name in seen:
                errors.append(("locked_coordinates", f"duplicate coordinate {name!r}"))
            seen.add(name)
        if len(seen) == len(COORDINATE_NAMES):
            errors.append(("locked_coordinates", "cannot lock every coordinate"))
        if errors:
            raise ConfigError(errors)

    def joint_rest_angles(self) -> dict:
        """Merge the named posture's angles with explicit overrides."""
        angles = dict.fromkeys(JOINT_NAMES, 0.0)
        angles.update(_POSTURE_ANGLES[self.posture])
        if self.initial_joint_angles_rad:
            angles.update(self.initial_joint_angles_rad)
        return angles

    def rest_coordinates(self) -> "list[float]":
        """Rest posture mapped to the absolute generalized coordinates."""
        j = self.joint_rest_angles()
        q0 = [0.0] * len(COORDINATE_NAMES)
        q0[3] = j["pelvis_roll"]
        q0[4] = j["pelvis_pitch"]
        q0[5] = j["pelvis_roll"] + j["lumbar_roll"]
        q0[6] = j["pelvis_pitch"] + j["lumbar_pitch"]
        q0[7] = j["lumbar_yaw"]
        q0[8] = q0[5] + j["neck_roll"]
        q0[9] = q0[6] + j["neck_pitch"]
        return q0
