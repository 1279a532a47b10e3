"""Every route to a settings record runs its checks.

A settings class is a `NamedTuple` under a checking subclass, so a value
can arrive by keyword, by position, through `_make` or `_replace`, through
the settings merge `configs.merge_settings`, or (for the analyzer phases) through
`with_phases`.  Each route must reject a NaN, an infinity and an
out-of-range value with a `ConfigError` that names the key.
"""

import math

import pytest

from fibersdc.configs import (
    DriftConfig,
    InterferometerConfig,
    SourceConfig,
    TimingConfig,
    merge_settings,
)
from fibersdc.errors import ConfigError

CLASSES = [SourceConfig, DriftConfig, TimingConfig, InterferometerConfig]

# Values of each key outside its range; the phases have no range.
OUT_OF_RANGE = {
    "coincidence_rate_hz": (0.0,),
    "source_fidelity": (1.2, -0.1),
    "accidental_rate_hz": (-1.0,),
    # A sigma of 1e308 or a residual of -1e308 would overflow the phase walk.
    "sigma_rad_per_sqrt_s": (-0.5, 1e308),
    "recalibration_period_s": (1e-7, 0.0),
    "recalibration_residual_rad": (4.0, -1e308),
    # A step beyond 1e6 s could overflow a session's time.
    "message_latency_s": (-0.1, 2e6),
    "encoder_settle_s": (-0.1, 2e6),
    "frame_window_s": (0.0, 2e6),
    "recalibration_pause_s": (-2.0, 2e6),
}

BAD_VALUES = [
    (cls, key, value)
    for cls in CLASSES
    for key in cls._fields
    for value in (math.nan, math.inf, -math.inf, *OUT_OF_RANGE.get(key, ()))
]


def _with(cls, key, value) -> list:
    """The default field values of `cls`, with `value` at `key`."""
    values = list(cls())
    values[cls._fields.index(key)] = value
    return values


ROUTES = {
    "keyword": lambda cls, key, value: cls(**{key: value}),
    "position": lambda cls, key, value: cls(*_with(cls, key, value)),
    "make": lambda cls, key, value: cls._make(_with(cls, key, value)),
    "replace": lambda cls, key, value: cls()._replace(**{key: value}),
    "merge_settings": lambda cls, key, value: merge_settings((cls(),), [f"{key}={value!r}"])[0],
}


def test_every_key_has_an_out_of_range_value_or_none():
    keys = {key for cls in CLASSES for key in cls._fields}
    assert set(OUT_OF_RANGE) == keys - set(InterferometerConfig._fields)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize(
    "cls, key, value", BAD_VALUES, ids=[f"{c.__name__}-{k}-{v!r}" for c, k, v in BAD_VALUES]
)
def test_every_route_rejects_a_bad_value_naming_its_key(route, cls, key, value):
    with pytest.raises(ConfigError, match=key):
        ROUTES[route](cls, key, value)


def test_an_infinite_total_rate_is_rejected_naming_both_rates():
    # Each rate is finite and their sum is not.
    with pytest.raises(ConfigError, match=r"coincidence_rate_hz \+ accidental_rate_hz"):
        SourceConfig(coincidence_rate_hz=1e308, accidental_rate_hz=1e308)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", InterferometerConfig._fields)
def test_with_phases_rejects_a_non_finite_phase(key, value):
    phases = {"phi0_rad": 0.0, "phi1_rad": 0.0, key: value}
    with pytest.raises(ConfigError, match=key):
        InterferometerConfig().with_phases(**phases)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_every_route_builds_the_class_from_a_good_value(route, cls):
    key = cls._fields[-1]
    value = cls()[-1] + 0.25
    config = ROUTES[route](cls, key, value)
    assert type(config) is cls
    assert getattr(config, key) == value
    assert config == cls(*_with(cls, key, value))
    assert repr(config).startswith(f"{cls.__name__}(")


def test_configs_are_immutable():
    with pytest.raises(AttributeError):
        SourceConfig().source_fidelity = 0.5
    assert not hasattr(SourceConfig(), "__dict__")
