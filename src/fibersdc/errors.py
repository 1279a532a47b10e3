"""Exception types and the input checks shared across the package."""

import math
import operator


class FiberSdcError(Exception):
    """Base class for package errors."""


class ConfigError(FiberSdcError, ValueError):
    """Raised for invalid settings, options, inputs or input files."""


class StateError(FiberSdcError, ValueError):
    """Raised when a two-photon state violates a function's input contract."""


class ProtocolError(FiberSdcError, RuntimeError):
    """Raised when a wire message, or a message or window given to a state
    machine, violates the framing protocol."""


class CheckedRecord:
    """Mixin that checks every instance of a `NamedTuple` record.

    A record class derives from this and its fields' `NamedTuple`, in that
    order, and defines `_check`, which raises on a bad value.  An instance
    built by keyword or by position, by `_make` or by `_replace` (which
    calls `_make`) passes `_check`.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def require_finite(config) -> None:
    """Reject a NaN or infinite value in any field of a settings record.

    Range checks written as comparisons let NaN through (every comparison
    with NaN is false), so each settings class calls this before its own
    checks.
    """
    for name, value in zip(config._fields, config):
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")


def require_integer(value, what: str, error: type[Exception] = ConfigError) -> int:
    """`value` as an int by `operator.index` (so a float or a string is
    refused, and a numpy integer taken), or `error` naming it as `what`."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} {value!r} is not an integer") from None
