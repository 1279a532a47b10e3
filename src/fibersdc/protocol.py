"""Framed dibit transfer over the simulated link: the session.

Each frame moves two bits as one Bell class, in the five-step exchange
that `fibersdc.wire` defines: three one-way classical hops (request,
acknowledge, receipt), the encoder's settle, and the detection window,
which closes at the first detection or times out into an erasure.

`run_session` models a lossless link, on which the exchange never
varies, so it computes the session's timeline in closed form rather than
replaying the messages, and loads neither the codec nor the state
machines.  It lays out and draws the frames one run at a time, in one
loop; its detections come from `fibersdc.sampler`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import sampler
from .configs import DriftConfig, InterferometerConfig, SourceConfig, TimingConfig
from .kernel import (
    BELL_TO_DIBIT, DIBIT_TO_BELL, OUTCOME_VERDICT, VERDICTS, dibit_array, verdict_label,
)
from .seeds import substream


class SessionStats(NamedTuple):
    frames: int
    erasure_count: int
    timeout_count: int
    elapsed_s: float
    throughput_bits_per_s: float
    recalibrations: int
    verdict_counts: dict[str, int]


class SessionResult(NamedTuple):
    dibits: bytes
    erasures: bytes
    stats: SessionStats


_AMBIGUOUS = len(VERDICTS) - 1
_DIBIT_CLASS = np.array([DIBIT_TO_BELL[d].index for d in sorted(DIBIT_TO_BELL)])
# The received dibit of each verdict; an erasure (an ambiguous verdict or
# an empty window) is filled with 0.
_VERDICT_DIBIT = np.array([BELL_TO_DIBIT.get(v, 0) for v in VERDICTS], dtype=np.uint8)


def _window_closes(
    gap: np.ndarray, timing: TimingConfig, after: float | None = None
) -> np.ndarray:
    """Operating time at which each frame's window closes, given the first
    arrival after each frame's settle.

    A frame is five steps: hop, hop, hop, settle, then the window or the
    first arrival in it.  `after` is the close of the frame before the
    first one here, or None at the session start, where frame 0 has no
    RECEIPT hop before it.  A sequential cumsum, in place, gives the same
    floats as adding the steps one by one, so a session split into runs
    of frames has the same closes.
    """
    clock = np.empty((len(gap), 5))
    clock[:, :3] = timing.message_latency_s
    clock[:, 3] = timing.encoder_settle_s
    clock[:, 4] = np.minimum(gap, timing.frame_window_s)
    clock[:1, 0] = 0.0 if after is None else after + timing.message_latency_s
    np.cumsum(clock, out=clock.reshape(-1))
    return clock[:, 4].copy()


def run_session(
    dibits,
    source_cfg: SourceConfig,
    drift_cfg: DriftConfig,
    interf_cfg: InterferometerConfig,
    timing: TimingConfig,
    master_seed: int,
) -> SessionResult:
    """Transfer a dibit payload (`kernel.dibit_array`'s rule) over the
    simulated link; the received dibits are `bytes`, one per frame, and so
    are the erasure flags, 1 for an erasure.

    Each frame's window closes at its first detection (later arrivals in
    the same window are ignored) or times out empty into an erasure.  On
    the lossless link no verdict changes the message flow, so the windows
    close at times known in closed form and the final RECEIPT adds one
    hop.  One loop takes the frames in runs of `sampler.EVENT_CHUNK`: it
    draws a run's arrival gaps, lays out its window closes, and then
    draws the run's detections in one batch.  Every generator is consumed
    in frame order, so the outputs do not depend on the run length.
    Phase drift advances on operating time, and each recalibration period
    that ends before the last window closes inserts a fixed pause; the
    analyzer sits at the walk's phases, whatever offsets `interf_cfg`
    holds.  Everything is reproducible from the master seed.
    """
    dibits = dibit_array(dibits)
    n = len(dibits)
    walk = sampler.PhaseWalk(drift_cfg, substream(master_seed, "protocol.drift"))
    rng_q = substream(master_seed, "protocol.quantum")
    rng_arr = substream(master_seed, "protocol.arrivals")
    verdict = np.full(n, _AMBIGUOUS, dtype=np.int8)
    # Counted run by run: one bincount of the whole array would cast it to int64.
    counts = np.zeros(len(VERDICTS), dtype=np.int64)
    last_close, timeout_count = None, 0
    for a in range(0, n, sampler.EVENT_CHUNK):
        b = min(a + sampler.EVENT_CHUNK, n)
        gap = rng_arr.exponential(1.0 / source_cfg.total_rate_hz, b - a)
        closes = _window_closes(gap, timing, last_close)
        last_close = float(closes[-1])
        detected = gap < timing.frame_window_s
        timeout_count += int((~detected).sum())
        sent = _DIBIT_CLASS[dibits[a:b][detected]]
        outcome = sampler.sample_detections(sent, closes[detected], walk, source_cfg, rng_q)
        verdict[a:b][detected] = np.take(OUTCOME_VERDICT, outcome)
        counts += np.bincount(verdict[a:b], minlength=len(VERDICTS))
    recalibrations, elapsed = 0, 0.0
    if n:
        # Every period boundary up to the last window close is a
        # recalibration, by the walk's own rule, whether or not a detection
        # follows it.
        recalibrations = int(walk.resets_by(last_close))
        op_time = last_close + timing.message_latency_s
        elapsed = op_time + recalibrations * timing.recalibration_pause_s
    erasures = verdict == _AMBIGUOUS

    throughput = (2.0 * n / elapsed) if elapsed > 0 else 0.0
    stats = SessionStats(
        frames=n,
        erasure_count=int(counts[_AMBIGUOUS]),
        timeout_count=timeout_count,
        elapsed_s=elapsed,
        throughput_bits_per_s=throughput,
        recalibrations=recalibrations,
        verdict_counts={verdict_label(v): c for v, c in zip(VERDICTS, counts.tolist()) if c},
    )
    return SessionResult(
        _VERDICT_DIBIT[verdict].tobytes(), erasures.view(np.uint8).tobytes(), stats
    )
