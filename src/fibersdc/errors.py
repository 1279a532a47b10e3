"""Exception types shared across the package."""

import math


class FiberSdcError(Exception):
    """Base class for package errors."""


class ConfigError(FiberSdcError, ValueError):
    """Raised for invalid configuration values or unparseable config files."""


class StateError(FiberSdcError, ValueError):
    """Raised when a two-photon state violates a function's input contract."""


class ProtocolError(FiberSdcError, RuntimeError):
    """Raised when a wire message, or a message or window given to a state
    machine, violates the framing protocol."""


def require_finite(config) -> None:
    """Reject a NaN or infinite value in any field of a config dataclass.

    Range checks written as comparisons let NaN through (every comparison
    with NaN is false), so each config calls this before its own checks.
    """
    from dataclasses import fields  # only configs call this, and they load it

    for f in fields(config):
        value = getattr(config, f.name)
        if not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")
