"""The config schema: each section is read as the parameter dataclass
behind it, whose field annotations give its keys' types and whose defaults
fill in omitted keys.  Every problem is a (JSON path, message) pair at its
leaf.  A parameter set checks itself once, when it is made (``Validated``),
so no consumer checks it again.  Its ``validate()`` names the field at fault
relative to its own object, in a ConfigError of (field, message) pairs or as
the first word of a ValueError or InvalidBand; the reader adds the path.
"""

from __future__ import annotations

import numbers
import sys
import typing
from dataclasses import MISSING, fields, is_dataclass
from functools import cache

from ridecomfort.errors import ConfigError, RideComfortError

# Python types that each annotation accepts; a JSON number may be an integer
_ACCEPTS = {bool: bool, int: int, float: (int, float), str: str,
            tuple: list, dict: dict}

INVALID = object()  # a value whose problems are already in the error list
_hints = cache(typing.get_type_hints)  # one entry per dataclass read


def is_number(value) -> bool:
    """A real number, not a bool, that a float holds finitely: false for
    NaN, the infinities and integers too large for a float."""
    # int and float first: they skip the slower abstract-class check
    return isinstance(value, (int, float, numbers.Real)) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


class Validated:
    """A parameter dataclass that runs its ``validate()`` when it is made."""

    def __post_init__(self):
        self.validate()


def _fail(errors, path, message):
    errors.append((path, message))
    return INVALID


def _value(hint, value, path, errors):
    """``value`` checked against the annotation ``hint``, or INVALID.

    JSON arrays become tuples and JSON objects under a dataclass annotation
    become instances.  Every problem is reported at its leaf path.
    """
    args = typing.get_args(hint)
    if type(None) in args:  # an optional field: X | None
        if value is None:
            return None
        hint, args = args[0], typing.get_args(args[0])
    kind = dict if is_dataclass(hint) else typing.get_origin(hint) or hint
    if not isinstance(value, _ACCEPTS[kind]) or (
            isinstance(value, bool) and kind is not bool):
        wanted = "number" if kind is float else _ACCEPTS[kind].__name__
        return _fail(errors, path,
                     f"expected {wanted}, got {type(value).__name__}")
    if is_dataclass(hint):
        return read(hint, value, path, errors)
    if kind is float and not is_number(value):
        return _fail(errors, path, "must be a finite number")
    if kind is tuple:
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            return _fail(errors, path,
                         f"expected {len(args)} elements, got {len(value)}")
        items = tuple(_value(t, v, f"{path}[{i}]", errors)
                      for i, (t, v) in enumerate(zip(args, value)))
        return INVALID if any(v is INVALID for v in items) else items
    if kind is dict and args:
        items = {k: _value(args[1], v, f"{path}.{k}", errors)
                 for k, v in value.items()}
        return INVALID if any(v is INVALID for v in items.values()) else items
    return value


def read_fields(cls, raw, path, errors, keys={}):
    """Checked constructor arguments of dataclass ``cls`` from the dict ``raw``.

    A field's config key is its name unless ``keys`` renames it, and its
    type is the field's annotation.  Omitted keys take the field's default;
    a field without one is required.  Unknown keys are errors.  Keys with a
    problem are left out of the result.
    """
    hints, kwargs = _hints(cls), {}
    known = {keys.get(f.name, f.name) for f in fields(cls)}
    for f in fields(cls):
        key = keys.get(f.name, f.name)
        leaf = f"{path}.{key}" if path else key
        if key in raw:
            value = _value(hints[f.name], raw[key], leaf, errors)
            if value is not INVALID:
                kwargs[f.name] = value
        elif f.default is not MISSING:
            kwargs[f.name] = f.default
        elif f.default_factory is not MISSING:
            kwargs[f.name] = f.default_factory()
        else:
            errors.append((leaf, "required key is missing"))
    for key in sorted(set(raw) - known, key=str):
        errors.append((f"{path}.{key}" if path else str(key), "unknown key"))
    return kwargs


def read(cls, raw, path, errors, keys={}):
    """Instance of dataclass ``cls`` from the dict ``raw`` at ``path``, or
    INVALID once its problems are in ``errors``.  After the type checks the
    constructor checks ranges; a problem that names no field is at ``path``.
    """
    kwargs = read_fields(cls, raw, path, errors, keys)
    if len(kwargs) < len(fields(cls)):  # a field is missing or invalid
        return INVALID
    try:
        obj = cls(**kwargs)
    except ConfigError as exc:
        errors.extend((f"{path}.{name}", message) for name, message in exc.errors)
        return INVALID
    except (RideComfortError, ValueError) as exc:
        name = str(exc).split(" ", 1)[0]
        if name in kwargs:
            path = f"{path}.{keys.get(name, name)}"
        return _fail(errors, path, str(exc))
    return obj
