"""Exception hierarchy shared across the package, and check_number,
check_count and check_flag, the one check of a numeric, an integer and a
boolean argument that library constructors and functions share."""

import operator
import sys
from numbers import Real


class AdaFisherError(Exception):
    """Base class for all package errors."""


class DimensionError(AdaFisherError, ValueError):
    """Shapes or dimensions are inconsistent with the operation."""


class InputError(AdaFisherError, ValueError):
    """A value is outside the operation's domain (NaN, bad label, empty batch...)."""


class StateError(AdaFisherError, RuntimeError):
    """Operation called before its required state was populated."""


class ConfigError(AdaFisherError, ValueError):
    """Invalid run configuration or hyperparameter."""


class DataError(AdaFisherError, ValueError):
    """Dataset could not be loaded or parsed."""


class FormatError(DataError):
    """File content does not match the declared on-disk format."""


class NumericError(AdaFisherError, ArithmeticError):
    """Training produced a non-finite value."""


class SizeError(AdaFisherError, ValueError):
    """Problem size exceeds a test-scale guard."""


class UnsupportedError(AdaFisherError, ValueError):
    """The model/loss combination is not supported by this operation."""


def check_number(name: str, value, ok, what: str, error: type = ConfigError):
    """value, once it is a finite real number (not a bool) for which ok holds;
    otherwise error with the message "{name} must be {what}, got {value!r}"."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not abs(value) <= sys.float_info.max or not ok(value)):
        raise error(f"{name} must be {what}, got {value!r}")
    return value


def check_count(name: str, value, least: int = 1, error: type = ConfigError):
    """value, once it is an integer >= least (not a bool); otherwise error with
    the message "{name} must be an integer >= {least}, got {value!r}". An
    integer is what operator.index takes: Python's and numpy's, not floats."""
    try:
        ok = not isinstance(value, bool) and operator.index(value) >= least
    except TypeError:
        ok = False
    if not ok:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def check_flag(name: str, value) -> bool:
    """value, once it is True or False; otherwise ConfigError."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be True or False, got {value!r}")
    return value
