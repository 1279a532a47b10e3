"""The detection sampler: phase drift and the draw of each detection.

Three noise mechanisms sit between the ideal encoder and the verdict
stream:

* source infidelity: with probability 1 - source_fidelity the emitted
  pair is one of the three other Bell classes, uniformly;
* loop phase drift: the two per-traversal phases perform independent
  Gaussian random walks between recalibrations, detuning the analyzer
  (`PhaseWalk`);
* accidental coincidences: uncorrelated detector pairs fire at a fixed
  rate, uniformly over ordered pairs of clicks, so two simultaneous
  clicks on different detectors, which either order gives, are twice as
  likely as any other signature (`UNCORRELATED_DIST`).

`sample_detections` draws a batch of detections at known times from the
closed-form kernel of `fibersdc.kernel`, never from the state algebra,
which stays its reference oracle.  Both callers draw in batches of at
most `EVENT_CHUNK`, so memory stays bounded whatever the run length:
`noise.iter_event_chunks` samples a timed run that many arrivals at a
time, and `protocol.run_session` a transfer that many frames at a time.
Each reads `EVENT_CHUNK` through this module when it runs.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .configs import DriftConfig, SourceConfig
from .errors import ConfigError
from .kernel import BELL_ORDER, BRANCH_OUTCOMES, UNCORRELATED_DIST, leak_weight

EVENT_CHUNK = 2048
"""Arrival gaps drawn per sampling step of `noise.iter_event_chunks`, and frames
per run of `protocol.run_session`."""


class PhaseWalk:
    """Stateful phase trajectory with periodic recalibration.

    Query times must be non-decreasing, within one call and across calls.
    Between consecutive queries each phase moves by an independent
    Gaussian increment of variance sigma^2 * elapsed; a query past one or
    more recalibration boundaries first resets both phases to the
    residual at the last boundary.  `advance` answers a whole array of
    times and carries the walk to the next call, so splitting the times
    over several calls gives identical phases.
    """

    def __init__(self, config: DriftConfig, rng: np.random.Generator):
        self._cfg = config
        self._rng = rng
        self._t = 0.0
        self._phases = np.full(2, config.recalibration_residual_rad)

    def resets_by(self, t):
        """How many recalibrations the walk makes up to operating time `t`
        (a float or an array): one at each whole period, at or before it."""
        return np.floor(t / self._cfg.recalibration_period_s)

    def advance(self, times: np.ndarray) -> np.ndarray:
        """Both phases at each query time, shape (len(times), 2)."""
        n = len(times)
        if n == 0:
            return np.empty((0, 2))
        # Each query continues the walk from the one before it, the first
        # from where the previous call left it.
        prev = np.concatenate(([self._t], times))
        if not (np.isfinite(times).all() and (prev[1:] >= prev[:-1]).all()):
            raise ConfigError("PhaseWalk queries must be finite and non-decreasing in time")
        cfg = self._cfg
        period = self.resets_by(prev)
        reset = period[1:] > period[:-1]
        since = np.maximum(prev[:-1], period[1:] * cfg.recalibration_period_s)
        steps = cfg.sigma_rad_per_sqrt_s * np.sqrt(np.maximum(prev[1:] - since, 0.0))
        phases = steps[:, None] * self._rng.standard_normal((n, 2))
        # Sequential sums from the carried phases, restarted at each reset,
        # so the result is the same however the times are split.
        starts = reset.nonzero()[0].tolist()
        if not starts or starts[0]:
            starts.insert(0, 0)
        level = self._phases
        for a, b in zip(starts, starts[1:] + [n]):
            phases[a] += cfg.recalibration_residual_rad if reset[a] else level
            phases[a:b].cumsum(axis=0, out=phases[a:b])
            level = phases[b - 1]
        self._phases = level.copy()
        self._t = float(prev[-1])
        return phases


def _sampling_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The outcome distributions a detection draws from, as one inverse-CDF
    table: group g holds g + its CDF over its support, so one search finds
    any group's outcome.  Group 2k + b is class k's target (b = 0) or leak
    (b = 1) branch; the last group is the accidentals."""
    dists = [*(dist for branches in BRANCH_OUTCOMES for dist in branches), UNCORRELATED_DIST]
    cdf, outcome, last = [], [], []
    for g, dist in enumerate(dists):
        support = [i for i, p in enumerate(dist) if p > 0]
        total = sum(dist[i] for i in support)
        cdf.extend(g + c / total for c in accumulate(dist[i] for i in support))
        cdf[-1] = g + 1.0
        outcome.extend(support)
        last.append(len(outcome) - 1)
    return np.array(cdf), np.array(outcome), np.array(last)


_GROUP_CDF, _GROUP_OUTCOME, _GROUP_LAST = _sampling_table()
_ACCIDENTAL_GROUP = len(_GROUP_LAST) - 1

# Uniforms per event: accidental, keep the sent class, substitute,
# leak, outcome within the chosen distribution.
_DRAWS_PER_EVENT = 5


def sample_detections(
    truth: np.ndarray,
    times: np.ndarray,
    walk: PhaseWalk,
    source_cfg: SourceConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Outcome index (into OUTCOMES) of each detection of a sent class
    (index into BELL_ORDER) at non-decreasing times.

    The walk advances to the times and the analyzer sits at its phases;
    `rng` gives each detection its uniforms.  With probability
    accidental_rate / (coincidence_rate + accidental_rate) a detection is
    an uncorrelated accidental instead of a real pair.
    """
    u = rng.random((len(times), _DRAWS_PER_EVENT))
    phases = walk.advance(times)
    # Emitted class: the sent one if u1 < fidelity, else another, uniformly by u2.
    shift = (u[:, 1] >= source_cfg.source_fidelity) * (1 + (3.0 * u[:, 2]).astype(int))
    emitted = (truth + shift) % len(BELL_ORDER)
    leak = u[:, 3] < leak_weight(emitted, phases[:, 0], phases[:, 1])
    accidental = u[:, 0] < source_cfg.accidental_fraction
    group = np.where(accidental, _ACCIDENTAL_GROUP, 2 * emitted + leak)
    # Rounding can lift group + u onto the group's last entry, never further.
    at = _GROUP_CDF.searchsorted(group + u[:, 4], side="right")
    return _GROUP_OUTCOME[np.minimum(at, _GROUP_LAST[group])]
