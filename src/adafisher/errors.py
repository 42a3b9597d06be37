"""Exception hierarchy shared across the package, and check_number,
check_count, check_pair and check_flag, the one check of a number, an integer,
a pair of integers and a bool that constructors, data loaders and the config
schema share: check(name, value, ..., error) returns value or raises error.
os_errors(action) is the one place an OSError of the package's own output
(making a directory, writing a file) becomes a DataError.

Each class carries the CLI's exit code and stderr label for it: cli.main
prints "{label}: {message}" and exits with exit_code. A class without its
own takes its base's (FormatError is a data error, every other class
without one is a plain "error" with exit code 2)."""

import operator
import sys
from contextlib import contextmanager
from numbers import Real


class AdaFisherError(Exception):
    """Base class for all package errors."""

    exit_code, label = 2, "error"


class DimensionError(AdaFisherError, ValueError):
    """Shapes or dimensions are inconsistent with the operation."""


class InputError(AdaFisherError, ValueError):
    """A value is outside the operation's domain (NaN, bad label, empty batch...)."""


class StateError(AdaFisherError, RuntimeError):
    """Operation called before its required state was populated."""


class ConfigError(AdaFisherError, ValueError):
    """Invalid run configuration or hyperparameter."""

    exit_code, label = 2, "config error"


class DataError(AdaFisherError, ValueError):
    """Dataset could not be loaded or parsed."""

    exit_code, label = 3, "data error"


class FormatError(DataError):
    """File content does not match the declared on-disk format."""


class NumericError(AdaFisherError, ArithmeticError):
    """Training (or an oracle or analysis) produced a non-finite value."""

    exit_code, label = 4, "numeric failure"


class SizeError(AdaFisherError, ValueError):
    """Problem size exceeds a test-scale guard."""


class UnsupportedError(AdaFisherError, ValueError):
    """The model/loss combination is not supported by this operation."""


def check_number(name: str, value, ok=lambda v: True, what: str = "a finite number",
                 error: type = ConfigError):
    """value, once it is a finite real number (not a bool) for which ok holds;
    otherwise error with the message "{name} must be {what}, got {value!r}"."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not abs(value) <= sys.float_info.max or not ok(value)):
        raise error(f"{name} must be {what}, got {value!r}")
    return value


def check_count(name: str, value, least: int | None = 1, error: type = ConfigError):
    """value, once it is an integer >= least (any integer if least is None), not
    a bool; otherwise error with the message "{name} must be an integer >=
    {least}, got {value!r}". An integer is what operator.index takes."""
    try:
        number = operator.index(value)
        ok = not isinstance(value, bool) and (least is None or number >= least)
    except TypeError:
        ok = False
    if not ok:
        bound = "" if least is None else f" >= {least}"
        raise error(f"{name} must be an integer{bound}, got {value!r}")
    return value


def check_pair(name: str, value, least: int = 1, error: type = ConfigError) -> tuple:
    """value as a tuple, once it holds two integers >= least; otherwise error
    with the message "{name} must be a pair of integers >= {least}, got {value!r}"."""
    try:
        pair = a, b = tuple(value)
        check_count(name, a, least, error), check_count(name, b, least, error)
    except (TypeError, ValueError, error):  # not two entries, or one is no such integer
        raise error(f"{name} must be a pair of integers >= {least}, got {value!r}") from None
    return pair


def check_flag(name: str, value, error: type = ConfigError) -> bool:
    """value, once it is True or False; otherwise error."""
    if not isinstance(value, bool):
        raise error(f"{name} must be True or False, got {value!r}")
    return value


@contextmanager
def os_errors(action: str):
    """An OSError raised in the block is a DataError, "cannot {action}: {reason}"."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot {action}: {exc.strerror or exc}") from None
