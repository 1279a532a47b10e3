"""Named default configurations.

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

from .interferometer import InterferometerConfig
from .noise import DriftConfig, SourceConfig
from .protocol import TimingConfig

CHARACTERIZATION_SOURCE = SourceConfig(
    coincidence_rate_hz=200.0,
    source_fidelity=0.97,
    accidental_rate_hz=1.359,
)

CHARACTERIZATION_DRIFT = DriftConfig(
    sigma_rad_per_sqrt_s=3.0,
    recalibration_period_s=100.0,
    recalibration_residual_rad=0.0,
)

TRANSFER_SOURCE = CHARACTERIZATION_SOURCE

TRANSFER_DRIFT = DriftConfig(
    sigma_rad_per_sqrt_s=0.129,
    recalibration_period_s=100.0,
    recalibration_residual_rad=0.0,
)

DEFAULT_INTERFEROMETER = InterferometerConfig()

DEFAULT_TIMING = TimingConfig()

SECONDS_PER_STATE = 5.0
