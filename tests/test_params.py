"""Parameter sets check themselves once, when they are made."""

import dataclasses
import typing

import pytest

from ridecomfort.body import BodyParams, PostureConfig
from ridecomfort.comfort import MetricsOptions
from ridecomfort.errors import ConfigError
from ridecomfort.excitation import ExcitationSpec
from ridecomfort.perception import VestibularParams, VisionParams
from ridecomfort.sickness import AccumulatorParams
from ridecomfort.stht import STHTOptions

_FLOATS = [name for name, hint in typing.get_type_hints(BodyParams).items()
           if hint is float]


@pytest.mark.parametrize("value", [-1.0, 1e300], ids=["below-floor", "huge"])
@pytest.mark.parametrize("name", _FLOATS)
def test_every_body_float_has_a_floor_and_a_ceiling(name, value):
    # a field added later is checked without being listed anywhere
    with pytest.raises(ConfigError) as info:
        BodyParams.from_preset("default", {name: value})
    assert f"model.overrides.{name}" in [path for path, _ in info.value.errors]


# (a valid instance, a field, a value that field must refuse)
_BAD = [
    (BodyParams.from_preset(), "head_mass_kg", 0.0),
    (BodyParams.from_preset(), "vestibular_delay_s", 11.0),
    (PostureConfig(), "posture", "standing"),
    (VestibularParams(), "otolith_gain", 0.0),
    (VisionParams(), "delay_s", 11.0),
    (AccumulatorParams(), "hill_exponent", 0.5),
    (ExcitationSpec(), "duration_s", 1e9),  # 1e12 samples: past the budget
    (MetricsOptions(), "settle_s", -1.0),
    (STHTOptions(), "min_prominence", 0.0),
]


@pytest.mark.parametrize("valid, name, value", _BAD,
                         ids=[f"{type(v).__name__}.{n}" for v, n, _ in _BAD])
def test_an_invalid_parameter_set_cannot_be_made(valid, name, value):
    assert valid.validate() is None  # callable again, with the same result
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(valid, name, value)
    # what validate() says of the set once a field is forced past the check
    forced = dataclasses.replace(valid)
    object.__setattr__(forced, name, value)
    with pytest.raises(Exception) as said:
        forced.validate()
    with pytest.raises(type(said.value)) as made:
        dataclasses.replace(valid, **{name: value})
    assert type(made.value) is type(said.value)
    assert str(made.value) == str(said.value)
