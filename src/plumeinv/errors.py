"""Exception types shared across the package, and the checked number reads.

The CLI maps ValidationError (and subclasses) to exit code 2 and
NumericalError to exit code 3; library code raises these directly.
The config loader and the sensor reader both take numbers out of parsed
YAML through ``_number`` and ``_given``, so they refuse the same values.
"""

import math


class ValidationError(ValueError):
    """Invalid configuration, file content, or parameter values."""


class ConfigurationError(ValidationError):
    """Structurally valid input that cannot be turned into a runnable setup."""


class NumericalError(RuntimeError):
    """A numerical routine failed (overflow, factorization breakdown, ...)."""


def _dotted(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _require(section: dict, key: str, where: str):
    if not isinstance(section, dict):
        raise ValidationError(f"{where or 'root'} must be a mapping")
    if key not in section:
        raise ValidationError(f"missing key {_dotted(where, key)}")
    return section[key]


def _number(section: dict, key: str, where: str, cast=float):
    """A finite number, not a bool; an int field refuses a fractional part."""
    value = _require(section, key, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"key {_dotted(where, key)} must be a number, got {value!r}")
    if not math.isfinite(float(value)):
        raise ValidationError(f"key {_dotted(where, key)} must be finite")
    if cast is int and not float(value).is_integer():
        raise ValidationError(f"key {_dotted(where, key)} must be an integer, got {value!r}")
    return cast(value)


def _given(section: dict, where: str, **wanted) -> dict:
    """The numbers ``section`` sets, keyed by field name.

    ``wanted`` maps each field to its key and its type (float or int). A
    key the section leaves out is not passed on, so the defaults on the
    config dataclasses are the only ones. A section that is not a mapping,
    a null one included, is refused.
    """
    if not isinstance(section, dict):
        raise ValidationError(f"config section {where!r} must be a mapping")
    return {
        name: _number(section, key, where, cast)
        for name, (key, cast) in wanted.items()
        if key in section
    }
