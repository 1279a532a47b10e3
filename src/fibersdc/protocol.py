"""Framed dibit transfer over a classical byte channel plus the quantum link.

Each frame moves two bits as one Bell class.  The classical side runs a
strict five-step exchange per frame:

    sender -> SEND_REQUEST(i)      announce frame i
    receiver -> ACKNOWLEDGE(i)     arm the detection window
    sender emits the encoded pair  (quantum link, no bytes)
    receiver closes the window     at the first detection or a timeout
    receiver -> RECEIPT(i)         release the sender for frame i+1

A message is nine bytes: MAGIC "SDC1", a one-byte kind and a
little-endian u32 frame index; no kind carries anything more.  The state
machines are the sans-io protocol a real link would run: they consume
decoded messages and return actions.  Retransmissions after a timeout
and stale copies of the previous frame's messages are idempotent;
anything else out of order raises ProtocolError.

`run_session` models a lossless link, on which the exchange never varies:
three one-way hops per frame.  It computes the session's timeline in
closed form rather than replaying the messages.
"""

from __future__ import annotations

import enum
import math
import struct
from typing import NamedTuple

import numpy as np

from . import noise
from .configs import DriftConfig, InterferometerConfig, SourceConfig, TimingConfig
from .errors import ConfigError, ProtocolError
from .kernel import BELL_TO_DIBIT, DIBIT_TO_BELL, OUTCOME_VERDICT, VERDICTS, verdict_label
from .seeds import substream

MAGIC = b"SDC1"
_HEADER = struct.Struct("<4sBI")


class MessageKind(enum.IntEnum):
    SEND_REQUEST = 1
    ACKNOWLEDGE = 2
    RECEIPT = 3


class Message(NamedTuple):
    kind: MessageKind
    frame_index: int


def encode_message(msg: Message) -> bytes:
    return _HEADER.pack(MAGIC, int(msg.kind), msg.frame_index)


def decode_message(buffer: bytes, offset: int = 0) -> tuple[Message, int] | None:
    """Decode one message starting at offset, or None if incomplete."""
    if len(buffer) - offset < _HEADER.size:
        return None
    magic, kind, frame = _HEADER.unpack_from(buffer, offset)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    try:
        mk = MessageKind(kind)
    except ValueError as exc:
        raise ProtocolError(f"unknown message kind {kind}") from exc
    return Message(mk, frame), offset + _HEADER.size


# ---------------------------------------------------------------------------
# sans-io state machines
# ---------------------------------------------------------------------------


class SenderMachine:
    """Drives frames in order; actions are ("wire", Message) to transmit
    bytes and ("transmit", frame_index) to fire the quantum encoder."""

    def __init__(self, n_frames: int):
        if n_frames < 0:
            raise ConfigError("n_frames must be >= 0")
        self.n_frames = n_frames
        self.frame = 0
        self.awaiting = "start"  # start -> ack -> receipt -> (ack ...) -> done
        self._last_wire: Message | None = None

    @property
    def done(self) -> bool:
        return self.awaiting == "done"

    def _wire(self, msg: Message):
        self._last_wire = msg
        return ("wire", msg)

    def start(self) -> list:
        if self.awaiting != "start":
            raise ProtocolError("sender already started")
        if self.n_frames == 0:
            self.awaiting = "done"
            return []
        self.awaiting = "ack"
        return [self._wire(Message(MessageKind.SEND_REQUEST, 0))]

    def handle_message(self, msg: Message) -> list:
        if msg.kind is MessageKind.ACKNOWLEDGE:
            if self.awaiting == "ack" and msg.frame_index == self.frame:
                self.awaiting = "receipt"
                return [("transmit", self.frame)]
            if self.awaiting == "receipt" and msg.frame_index == self.frame:
                return []  # duplicate ack after a retransmitted request
            if msg.frame_index == self.frame - 1:
                return []  # stale ack replayed with the previous receipt
            raise ProtocolError(
                f"unexpected ACKNOWLEDGE({msg.frame_index}) while at frame "
                f"{self.frame} awaiting {self.awaiting}"
            )
        if msg.kind is MessageKind.RECEIPT:
            if self.awaiting == "receipt" and msg.frame_index == self.frame:
                self.frame += 1
                if self.frame == self.n_frames:
                    self.awaiting = "done"
                    return []
                self.awaiting = "ack"
                return [self._wire(Message(MessageKind.SEND_REQUEST, self.frame))]
            if msg.frame_index == self.frame - 1:
                return []  # stale duplicate receipt
            raise ProtocolError(
                f"unexpected RECEIPT({msg.frame_index}) while at frame {self.frame}"
            )
        raise ProtocolError(f"sender cannot handle {msg.kind.name}")

    def handle_timeout(self) -> list:
        """Retransmit the last outbound message; safe to repeat."""
        if self.done or self._last_wire is None:
            return []
        return [("wire", self._last_wire)]


class ReceiverMachine:
    """Accepts frames in order: a SEND_REQUEST arms the frame's detection
    window, and closing the window issues its RECEIPT."""

    def __init__(self, n_frames: int):
        if n_frames < 0:
            raise ConfigError("n_frames must be >= 0")
        self.n_frames = n_frames
        self.expected = 0
        self.armed = False
        self._last_receipt: Message | None = None

    @property
    def done(self) -> bool:
        return self.expected == self.n_frames and not self.armed

    def handle_message(self, msg: Message) -> list:
        if msg.kind is not MessageKind.SEND_REQUEST:
            raise ProtocolError(f"receiver cannot handle {msg.kind.name}")
        if msg.frame_index == self.expected and self.expected < self.n_frames:
            self.armed = True
            return [("wire", Message(MessageKind.ACKNOWLEDGE, msg.frame_index))]
        if msg.frame_index == self.expected - 1:
            if self.armed:
                return []  # late duplicate: the sender has moved on
            # the receipt must have been lost: re-ack and re-issue it
            actions = [("wire", Message(MessageKind.ACKNOWLEDGE, msg.frame_index))]
            if self._last_receipt is not None:
                actions.append(("wire", self._last_receipt))
            return actions
        raise ProtocolError(
            f"unexpected SEND_REQUEST({msg.frame_index}), expected {self.expected}"
        )

    def close_window(self, frame_index: int) -> list:
        if not self.armed or frame_index != self.expected:
            raise ProtocolError(f"no armed window for frame {frame_index}")
        self.armed = False
        self.expected += 1
        self._last_receipt = Message(MessageKind.RECEIPT, frame_index)
        return [("wire", self._last_receipt)]


# ---------------------------------------------------------------------------
# full simulated session
# ---------------------------------------------------------------------------


class SessionStats(NamedTuple):
    frames: int
    erasure_count: int
    timeout_count: int
    elapsed_s: float
    throughput_bits_per_s: float
    recalibrations: int
    verdict_counts: dict[str, int]


class SessionResult(NamedTuple):
    dibits: list[int]
    erasures: list[bool]
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
    with np.errstate(over="ignore"):  # run_session refuses an infinite close
        np.cumsum(clock, out=clock.reshape(-1))
    return clock[:, 4].copy()


def run_session(
    dibits: list[int],
    source_cfg: SourceConfig,
    drift_cfg: DriftConfig,
    interf_cfg: InterferometerConfig,
    timing: TimingConfig,
    master_seed: int,
) -> SessionResult:
    """Transfer a dibit sequence over the simulated link.

    Each frame's window closes at its first detection (later arrivals in
    the same window are ignored) or times out empty into an erasure.  On
    the lossless link no verdict changes the message flow, so the windows
    close at times known in closed form and the final RECEIPT adds one
    hop.  The session runs in two passes over runs of `noise.EVENT_CHUNK`
    frames: the first lays out the timeline, keeping one detection time
    per frame, and the second draws the run's detections in one batch.
    Every generator is consumed in frame order, so the outputs do not
    depend on the run length.  Phase drift advances on operating time, and
    each recalibration period that ends before the last window closes
    inserts a fixed pause; the analyzer sits at the walk's phases,
    whatever offsets `interf_cfg` holds.  Everything is reproducible from
    the master seed.
    """
    for d in dibits:
        if d not in DIBIT_TO_BELL:
            raise ConfigError(f"dibit out of range: {d!r}")
    n = len(dibits)
    walk = noise.PhaseWalk(drift_cfg, substream(master_seed, "protocol.drift"))
    rng_q = substream(master_seed, "protocol.quantum")
    rng_arr = substream(master_seed, "protocol.arrivals")
    runs = [(a, min(a + noise.EVENT_CHUNK, n)) for a in range(0, n, noise.EVENT_CHUNK)]

    # classical pass: each frame's detection time, NaN for an empty window
    times = np.empty(n)
    last_close, timeout_count = None, 0
    for a, b in runs:
        gap = rng_arr.exponential(1.0 / source_cfg.total_rate_hz, b - a)
        closes = _window_closes(gap, timing, last_close)
        last_close = float(closes[-1])
        timed_out = gap >= timing.frame_window_s
        timeout_count += int(timed_out.sum())
        times[a:b] = np.where(timed_out, np.nan, closes)
    op_time = last_close + timing.message_latency_s if n else 0.0
    if not math.isfinite(op_time):
        raise ConfigError(
            "session time overflows; lower message_latency_s, encoder_settle_s or frame_window_s"
        )
    # Every period boundary up to the last window close is a recalibration,
    # by the walk's own floor rule, whether or not a detection follows it.
    periods = last_close / drift_cfg.recalibration_period_s if n else 0.0
    recalibrations = math.floor(periods) if math.isfinite(periods) else 0
    elapsed = op_time + recalibrations * timing.recalibration_pause_s
    if not (math.isfinite(periods) and math.isfinite(elapsed)):
        raise ConfigError(
            "recalibration pauses overflow the session time; raise recalibration_period_s "
            "or lower recalibration_pause_s"
        )

    # quantum pass: each run's detections in one draw, in frame order
    verdict = np.full(n, _AMBIGUOUS, dtype=np.int8)
    counts = np.zeros(len(VERDICTS), dtype=np.int64)
    for a, b in runs:
        run_times, run_verdict = times[a:b], verdict[a:b]
        detected = ~np.isnan(run_times)
        sent = _DIBIT_CLASS[np.array(dibits[a:b], dtype=np.intp)[detected]]
        outcome = noise.sample_detections(sent, run_times[detected], walk, source_cfg, rng_q)
        run_verdict[detected] = OUTCOME_VERDICT[outcome]
        counts += np.bincount(run_verdict, minlength=len(VERDICTS))
    del times
    erasures = verdict == _AMBIGUOUS

    throughput = (2.0 * n / elapsed) if elapsed > 0 else 0.0
    stats = SessionStats(
        frames=n,
        erasure_count=int(erasures.sum()),
        timeout_count=timeout_count,
        elapsed_s=elapsed,
        throughput_bits_per_s=throughput,
        recalibrations=recalibrations,
        verdict_counts={verdict_label(v): c for v, c in zip(VERDICTS, counts.tolist()) if c},
    )
    return SessionResult(_VERDICT_DIBIT[verdict].tolist(), erasures.tolist(), stats)
