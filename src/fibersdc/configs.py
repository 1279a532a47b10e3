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

from dataclasses import replace

from .interferometer import InterferometerConfig
from .noise import DriftConfig, SourceConfig
from .protocol import TimingConfig

CHARACTERIZATION_SOURCE = SourceConfig()

CHARACTERIZATION_DRIFT = DriftConfig()

TRANSFER_SOURCE = CHARACTERIZATION_SOURCE

TRANSFER_DRIFT = replace(CHARACTERIZATION_DRIFT, sigma_rad_per_sqrt_s=0.129)

DEFAULT_INTERFEROMETER = InterferometerConfig()

DEFAULT_TIMING = TimingConfig()

SECONDS_PER_STATE = 5.0
