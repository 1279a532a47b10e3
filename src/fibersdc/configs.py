"""Settings records and named default configurations.

The four settings classes live here, not in the layers that read them:

* `SourceConfig` and `DriftConfig`: the pair source and the loop-phase
  drift, read by `fibersdc.noise`;
* `TimingConfig`: the classical and quantum step durations, read by
  `fibersdc.protocol`;
* `InterferometerConfig`: the loop phases of the reference analyzer,
  read by `fibersdc.interferometer`.

Each layer re-exports the classes it reads, so
`from fibersdc.noise import SourceConfig` still works.  This module
imports nothing but `math`, `typing` and `fibersdc.errors`, so the
command line can build its parser and merge settings without loading
the simulator.  It also holds the one settings merge, `merged_settings`,
of `characterize` and `transfer`, the only commands that load it: the
defaults, then each `--set KEY=VALUE` in order, the only way a run
changes a setting.

Each class is a `typing.NamedTuple` of its fields under a subclass that
checks them (`errors.CheckedRecord`): an instance built by keyword or
by position, by `_make` or by `_replace` has passed its checks.  So
`_replace` is the one way to change a setting.  Being tuples, two
configs of different classes with equal values compare equal.

Two operating points are bundled:

* CHARACTERIZATION: the bench point used to measure the verdict channel.
  Drift is fast enough that the loop phases decorrelate within a run, so
  the confusion matrix is stationary; together with the fitted interference
  depths this reproduces the reference accuracy per class.

* TRANSFER: the quieter operating point used for payload transfer, with
  slow drift between recalibrations.  Fitted so a full demo-image session
  lands near 0.87 pixel fidelity.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import CheckedRecord, ConfigError, require_finite


class _Source(NamedTuple):
    coincidence_rate_hz: float = 200.0
    source_fidelity: float = 0.97
    accidental_rate_hz: float = 1.359


class SourceConfig(CheckedRecord, _Source):
    """Entangled-pair source and detection-rate settings.

    coincidence_rate_hz is the rate of pairs that survive transmission and
    produce two detector clicks, and is what sets event spacing in
    simulated streams; source_fidelity is the probability that the emitted
    pair is the intended class.
    """

    __slots__ = ()

    def _check(self):
        require_finite(self)
        if self.coincidence_rate_hz <= 0.0:
            raise ConfigError("coincidence_rate_hz must be positive")
        if not (0.0 <= self.source_fidelity <= 1.0):
            raise ConfigError("source_fidelity must be in [0, 1]")
        if self.accidental_rate_hz < 0:
            raise ConfigError("accidental_rate_hz must be >= 0")
        if not math.isfinite(self.total_rate_hz):
            raise ConfigError(
                "coincidence_rate_hz + accidental_rate_hz must be finite, "
                f"got {self.total_rate_hz!r}"
            )

    @property
    def total_rate_hz(self) -> float:
        return self.coincidence_rate_hz + self.accidental_rate_hz

    @property
    def accidental_fraction(self) -> float:
        return self.accidental_rate_hz / self.total_rate_hz


class _Drift(NamedTuple):
    sigma_rad_per_sqrt_s: float = 3.0
    recalibration_period_s: float = 100.0
    recalibration_residual_rad: float = 0.0


class DriftConfig(CheckedRecord, _Drift):
    """Loop-phase drift between recalibrations.

    Each loop phase performs an independent Gaussian random walk with
    standard deviation sigma_rad_per_sqrt_s * sqrt(elapsed).  Every
    recalibration_period_s of operating time the servo pulls both phases
    back to recalibration_residual_rad, the small static error the servo
    cannot remove.  The period is at least a microsecond.
    """

    __slots__ = ()

    def _check(self):
        require_finite(self)
        if self.sigma_rad_per_sqrt_s < 0:
            raise ConfigError("sigma_rad_per_sqrt_s must be >= 0")
        # Larger values overflow the walk into NaN phases, which never leak,
        # and describe no other link: the analyzer repeats every 2 pi in a
        # loop phase, and 1e6 rad/sqrt(s) spreads it ~1e3 rad per microsecond.
        if self.sigma_rad_per_sqrt_s > 1e6:
            raise ConfigError("sigma_rad_per_sqrt_s must be at most 1e6")
        if abs(self.recalibration_residual_rad) > math.pi:
            raise ConfigError("recalibration_residual_rad must be within [-pi, pi]")
        # No servo runs faster, and a tiny period overflows the walk's
        # period count.
        if self.recalibration_period_s < 1e-6:
            raise ConfigError("recalibration_period_s must be at least 1e-6 s")


class _Timing(NamedTuple):
    message_latency_s: float = 0.3
    encoder_settle_s: float = 0.005
    frame_window_s: float = 0.5
    recalibration_pause_s: float = 2.0


class TimingConfig(CheckedRecord, _Timing):
    """Wall-clock model of the classical and quantum steps.

    The link never loses a message, so a session charges three one-way
    latencies per frame and no retransmission timeout.
    """

    __slots__ = ()

    def _check(self):
        require_finite(self)
        for name, value in zip(self._fields, self):
            if value < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.frame_window_s <= 0:
            raise ConfigError("frame_window_s must be positive")


class _Phases(NamedTuple):
    phi0_rad: float = 0.0
    phi1_rad: float = 0.0


class InterferometerConfig(CheckedRecord, _Phases):
    """Loop phases of the reference analyzer `evolve_bsm`.

    phi0_rad and phi1_rad are the phase offsets picked up per traversal of
    the short and long delay loop; at calibration both are zero.  The
    simulated workflows put the analyzer at a phase walk's or a grid's
    phases through the closed-form kernel instead, so these are not CLI
    settings.
    """

    __slots__ = ()

    def _check(self):
        require_finite(self)

    def with_phases(self, phi0_rad: float, phi1_rad: float) -> "InterferometerConfig":
        return self._replace(phi0_rad=phi0_rad, phi1_rad=phi1_rad)


CHARACTERIZATION_SOURCE = SourceConfig()

CHARACTERIZATION_DRIFT = DriftConfig()

TRANSFER_SOURCE = CHARACTERIZATION_SOURCE

TRANSFER_DRIFT = CHARACTERIZATION_DRIFT._replace(sigma_rad_per_sqrt_s=0.129)

DEFAULT_INTERFEROMETER = InterferometerConfig()

DEFAULT_TIMING = TimingConfig()

SECONDS_PER_STATE = 5.0


def command_settings(command: str) -> tuple:
    """Default configs of a command that takes settings, `characterize`
    or `transfer`; their fields are the keys it accepts."""
    return {
        "characterize": (CHARACTERIZATION_SOURCE, CHARACTERIZATION_DRIFT),
        "transfer": (TRANSFER_SOURCE, TRANSFER_DRIFT, DEFAULT_TIMING),
    }[command]


def merge_settings(defaults: tuple, overrides) -> tuple:
    """`defaults` with the `overrides` (KEY=VALUE strings, as given to
    --set) applied in order, so the last value of a key wins.

    A key that no default config has is rejected.  Each config is rebuilt
    with its `_replace`, so its own checks run on the merged values.
    """
    owner = {name: i for i, cfg in enumerate(defaults) for name in cfg._fields}
    changes: list[dict[str, float]] = [{} for _ in defaults]
    for pair in overrides:
        if "=" not in pair:
            raise ConfigError(f"--set: expected key=value, got {pair!r}")
        key, val = (part.strip() for part in pair.split("=", 1))
        if key not in owner:
            raise ConfigError(f"--set: unknown setting {key!r}")
        try:
            changes[owner[key]][key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"--set: bad number for {key}: {val!r}") from exc
    return tuple(cfg._replace(**kw) for cfg, kw in zip(defaults, changes))


def merged_settings(args) -> tuple:
    """The invoked command's default configs, merged with its --set
    overrides."""
    return merge_settings(command_settings(args.command), args.set or ())


def resolved_settings(configs: tuple, **extras) -> dict[str, str]:
    """Every field of the merged configs and each extra input, as repr."""
    out = {name: repr(value) for cfg in configs for name, value in zip(cfg._fields, cfg)}
    out.update((k, repr(v)) for k, v in extras.items())
    return out
