"""Timed runs of the detection sampler and what they keep.

`iter_event_chunks` simulates a timed run through a schedule of sent
classes: coincidences arrive as a Poisson process, their gaps drawn
`sampler.EVENT_CHUNK` at a time, and each entry's arrivals from one such
block are drawn by `sampler.sample_detections` as one chunk, so memory
stays bounded whatever the run length.  Arrival gaps, walk
increments and the per-event uniforms each come from their own
generator, spawned from the caller's, and are consumed in a fixed amount
per arrival or event; the events therefore do not depend on the chunk
size.

The module also tallies the verdicts and writes the event log
(`open_event_log`, `append_events`); the kernel writes the count file.
"""

from __future__ import annotations

import math
from typing import Iterator, TextIO

import numpy as np

from . import sampler
from .configs import DriftConfig, InterferometerConfig, SourceConfig
from .errors import ConfigError
from .kernel import (
    BELL_ORDER, OUTCOME_VERDICT, OUTCOMES, VERDICTS, BellState, verdict_label,
)


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
        return np.take(OUTCOME_VERDICT, self.outcome)


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
    strictly increasing wall time, in chunks of at most `sampler.EVENT_CHUNK`
    events that never span schedule entries.

    The schedule is checked when this is called, before anything is
    drawn.  A run of more than 2**52 mean arrivals is refused: its mean
    gap is below the float spacing of its end time, so it would never
    end.  A run at that bound would take decades to sample, so no run
    that could finish is refused.
    """
    for _, duration in schedule:
        if not (math.isfinite(duration) and duration >= 0):
            raise ConfigError(f"schedule durations must be finite and >= 0, got {duration!r}")
    mean_arrivals = source_cfg.total_rate_hz * sum(duration for _, duration in schedule)
    if mean_arrivals > 2**52:
        raise ConfigError(
            "coincidence_rate_hz + accidental_rate_hz times the run length "
            f"(seconds_per_state per class) must be at most 2**52 arrivals, got {mean_arrivals!r}"
        )
    return _event_chunks(schedule, source_cfg, drift_cfg, rng)


def _event_chunks(schedule, source_cfg, drift_cfg, rng) -> Iterator[EventChunk]:
    """The chunks of `iter_event_chunks`, on a checked schedule."""
    arrivals, walk_rng, draws = rng.spawn(3)
    walk = sampler.PhaseWalk(drift_cfg, walk_rng)
    mean_gap = 1.0 / source_cfg.total_rate_hz
    t, gaps = 0.0, np.empty(0)  # gaps drawn and not yet used
    for sent, duration in schedule:
        end = t + duration
        while True:
            if not len(gaps):
                gaps = arrivals.exponential(mean_gap, sampler.EVENT_CHUNK)
            run = np.cumsum(np.concatenate(([t], gaps)))[1:]
            k = int(np.searchsorted(run, end))  # arrivals before the entry ends
            if k:
                truth = np.full(k, sent.index)
                outcome = sampler.sample_detections(truth, run[:k], walk, source_cfg, draws)
                yield EventChunk(run[:k], truth, outcome)
            if k < len(run):  # arrival k closes the entry
                break
            t, gaps = float(run[-1]), gaps[k:]
        t, gaps = end, gaps[k + 1:]


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
    for o, v in zip(OUTCOMES, OUTCOME_VERDICT)
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
