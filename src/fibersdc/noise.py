"""Source imperfections, phase drift and detection-event simulation.

Three noise mechanisms sit between the ideal encoder and the verdict
stream:

* source infidelity: with probability 1 - source_fidelity the emitted
  pair is one of the three other Bell classes, uniformly;
* loop phase drift: the two per-traversal phases perform independent
  Gaussian random walks between recalibrations, detuning the analyzer;
* accidental coincidences: uncorrelated detector pairs fire at a fixed
  rate and produce uniformly random signatures.

Detections are drawn from the closed-form kernel of `fibersdc.kernel`,
never from the state algebra, which stays its reference oracle.
`sample_detections` draws a batch of detections at known times.
`iter_event_chunks` calls it to sample a timed run `EVENT_CHUNK`
arrivals at a time, so memory stays bounded whatever the run length; the
transfer protocol calls it on runs of `EVENT_CHUNK` frames for the same
reason.  Arrival gaps, walk increments and the per-event uniforms each
come from their own generator, spawned from the caller's, and are
consumed in a fixed amount per arrival or event; the events therefore do
not depend on the chunk size.

The module also writes what a timed run keeps: the event log
(`open_event_log`, `append_events`) and the count matrix (`save_counts`,
which `capacity.load_counts` reads back).
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Iterator, TextIO

import numpy as np

from .configs import DriftConfig, InterferometerConfig, SourceConfig
from .errors import ConfigError
from .kernel import (
    BELL_ORDER,
    BRANCH_OUTCOMES,
    OUTCOME_VERDICT,
    OUTCOMES,
    UNCORRELATED_DIST,
    VERDICTS,
    BellState,
    leak_weight,
    verdict_label,
)

EVENT_CHUNK = 2048
"""Arrival gaps drawn per sampling step of `iter_event_chunks`, and frames
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

    def advance(self, times: np.ndarray) -> np.ndarray:
        """Both phases at each query time, shape (len(times), 2)."""
        n = len(times)
        if n == 0:
            return np.empty((0, 2))
        # Each query continues the walk from the one before it, the first
        # from where the previous call left it.
        prev = np.concatenate(([self._t], times))
        if prev[1] < self._t - 1e-9 or (n > 1 and (prev[2:] < prev[1:-1]).any()):
            raise ConfigError("PhaseWalk queries must be non-decreasing in time")
        prev[1] = max(prev[1], self._t)
        cfg = self._cfg
        period = np.floor(prev / cfg.recalibration_period_s)
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


def _emitted(sent, u_keep, u_pick, fidelity):
    """Emitted class index: `sent` when u_keep < fidelity, else one of the
    three others, uniformly by u_pick."""
    shift = (u_keep >= fidelity) * (1 + (3.0 * u_pick).astype(int))
    return (sent + shift) % len(BELL_ORDER)


def _sampling_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The outcome distributions a detection draws from, as one inverse-CDF
    table: group g holds g + its CDF over its support, so one search finds
    any group's outcome.  Group 2k + b is class k's target (b = 0) or leak
    (b = 1) branch; the last group is the accidentals."""
    dists = [*BRANCH_OUTCOMES.reshape(-1, len(OUTCOMES)).tolist(), UNCORRELATED_DIST.tolist()]
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


def _sample_outcomes(sent, phases: np.ndarray, config: SourceConfig, u: np.ndarray):
    """Outcome index (into OUTCOMES) per event.

    `sent` holds class indices, `phases` the loop phases on its last axis
    and `u` the event's uniforms on its last axis; one event takes
    scalars, a batch takes arrays.
    """
    emitted = _emitted(sent, u[..., 1], u[..., 2], config.source_fidelity)
    leak = u[..., 3] < leak_weight(emitted, phases[..., 0], phases[..., 1])
    group = np.where(u[..., 0] < config.accidental_fraction, _ACCIDENTAL_GROUP, 2 * emitted + leak)
    # Rounding can lift group + u onto the group's last entry, never further.
    at = _GROUP_CDF.searchsorted(group + u[..., 4], side="right")
    return _GROUP_OUTCOME[np.minimum(at, _GROUP_LAST[group])]


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
    return _sample_outcomes(truth, walk.advance(times), source_cfg, u)


class EventChunk:
    """Detection events as parallel arrays of what the sampler draws: wall
    time, sent class (index into BELL_ORDER) and outcome (index into
    OUTCOMES).  `len` counts the events."""

    __slots__ = ("wall_time_s", "truth", "outcome")

    def __init__(self, wall_time_s: np.ndarray, truth: np.ndarray, outcome: np.ndarray):
        self.wall_time_s = wall_time_s
        self.truth = truth
        self.outcome = outcome

    def __len__(self) -> int:
        return len(self.wall_time_s)

    @property
    def verdict(self) -> np.ndarray:
        """Each event's verdict, index into VERDICTS (the last one
        ambiguous): a function of its outcome."""
        return OUTCOME_VERDICT[self.outcome]


def iter_event_chunks(
    schedule: list[tuple[BellState, float]],
    source_cfg: SourceConfig,
    drift_cfg: DriftConfig,
    rng: np.random.Generator,
) -> Iterator[EventChunk]:
    """Simulate a timed run through a schedule of (sent class, seconds).

    Coincidences arrive as a Poisson process at the total detected rate;
    the first arrival at or past the end of a schedule entry closes it,
    and the next entry starts at that end.  The phase walk advances
    between arrivals and recalibrates on its period.  Events come in
    strictly increasing wall time, in chunks of at most EVENT_CHUNK.
    """
    for _, duration in schedule:
        if not (math.isfinite(duration) and duration >= 0):
            raise ConfigError(f"schedule durations must be finite and >= 0, got {duration!r}")
    arrivals, walk_rng, draws = rng.spawn(3)
    walk = PhaseWalk(drift_cfg, walk_rng)
    mean_gap = 1.0 / source_cfg.total_rate_hz
    entry, t = 0, 0.0
    end = schedule[0][1] if schedule else 0.0
    while entry < len(schedule):
        gaps = arrivals.exponential(mean_gap, EVENT_CHUNK)
        times, truth = [], []
        pos = 0
        while pos < len(gaps) and entry < len(schedule):
            run = np.cumsum(np.concatenate(([t], gaps[pos:])))[1:]
            k = int(np.searchsorted(run, end))  # arrivals before the entry ends
            times.append(run[:k])
            truth.append(np.full(k, schedule[entry][0].index))
            if k == len(run):
                t = float(run[-1])
                break
            pos += k + 1
            t = end
            entry += 1
            if entry < len(schedule):
                end = t + schedule[entry][1]
        times, truth = np.concatenate(times), np.concatenate(truth)
        if len(times):
            outcome = sample_detections(truth, times, walk, source_cfg, draws)
            yield EventChunk(times, truth, outcome)


def generate_event_stream(
    schedule: list[tuple[BellState, float]],
    source_cfg: SourceConfig,
    drift_cfg: DriftConfig,
    interf_cfg: InterferometerConfig,
    rng: np.random.Generator,
) -> EventChunk:
    """Every event of `iter_event_chunks` in one chunk; the analyzer sits
    at the walk's phases, whatever offsets `interf_cfg` holds."""
    columns = [
        (c.wall_time_s, c.truth, c.outcome)
        for c in iter_event_chunks(schedule, source_cfg, drift_cfg, rng)
    ]
    if not columns:
        return EventChunk(np.empty(0), *np.empty((2, 0), dtype=np.intp))
    return EventChunk(*(np.concatenate(column) for column in zip(*columns)))


def tally_verdicts(events: EventChunk) -> tuple[np.ndarray, np.ndarray]:
    """Count matrix over (truth, verdict) plus per-truth ambiguous counts.

    The matrix rows and columns follow canonical Bell order; ambiguous
    verdicts are tallied separately, mirroring how a bench discards them.
    """
    width = len(VERDICTS)
    table = np.bincount(events.truth * width + events.verdict, minlength=len(BELL_ORDER) * width)
    table = table.reshape(len(BELL_ORDER), width)
    return table[:, :-1], table[:, -1]


def save_counts(path, counts) -> None:
    """Write a count matrix over (sent class, verdict), such as the first
    of `tally_verdicts`, in the text form `capacity.load_counts` reads."""
    m = np.asarray(counts)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# rows: sent class, columns: verdict, canonical Bell order\n")
        for row in m:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


# --------------------------------------------------------------------------
# event-log serialization
# --------------------------------------------------------------------------

_LOG_COLUMNS = "wall_time_s,truth,port1,pol1,port2,pol2,dt_bins,verdict"
# The text of a row after its wall time, newline included, at
# truth * len(OUTCOMES) + outcome; the verdict follows from the outcome.
_ROW_TAILS = [
    f",{b.label},{o.first_port},{o.first_pol},{o.second_port},{o.second_pol},"
    f"{o.dt_bins},{verdict_label(VERDICTS[v])}\n"
    for b in BELL_ORDER
    for o, v in zip(OUTCOMES, OUTCOME_VERDICT.tolist())
]


def open_event_log(path, header: dict[str, str]) -> TextIO:
    """Create an event log: `# key: value` header lines, then the column
    line.  Append rows with `append_events`; the caller closes the file."""
    fh = open(path, "w", encoding="utf-8")
    try:
        fh.writelines(f"# {key}: {header[key]}\n" for key in sorted(header))
        fh.write(_LOG_COLUMNS + "\n")
    except BaseException:
        fh.close()
        raise
    return fh


def append_events(fh: TextIO, chunk: EventChunk) -> None:
    """Append one row per event of `chunk` to a log from `open_event_log`,
    in one write."""
    rows = (chunk.truth * len(OUTCOMES) + chunk.outcome).tolist()
    times = chunk.wall_time_s.tolist()
    fh.write("".join([f"{t:.6f}{_ROW_TAILS[r]}" for t, r in zip(times, rows)]))
