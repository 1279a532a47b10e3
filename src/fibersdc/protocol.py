"""Framed dibit transfer over a classical byte channel plus the quantum link.

Each frame moves two bits as one Bell class.  The classical side runs a
strict five-step exchange per frame:

    sender -> SEND_REQUEST(i)      announce frame i
    receiver -> ACKNOWLEDGE(i)     arm the detection window
    sender emits the encoded pair  (quantum link, no bytes)
    receiver closes the window     at the first detection or a timeout
    receiver -> RECEIPT(i)         release the sender for frame i+1

Messages are framed as MAGIC "SDC1", a one-byte kind, a little-endian
u32 frame index and a length-prefixed payload (empty for all current
kinds).  The state machines are the sans-io protocol a real link would
run: they consume decoded messages and return actions.  Retransmissions
after a timeout and stale copies of the previous frame's messages are
idempotent; anything else out of order raises ProtocolError.

`run_session` models a lossless link, on which the exchange never varies:
three one-way hops per frame.  It computes the session's timeline in
closed form rather than replaying the messages.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ProtocolError, require_finite
from .interferometer import OUTCOME_VERDICT, VERDICTS, InterferometerConfig, verdict_label
from .noise import DriftConfig, PhaseWalk, SourceConfig, sample_detections
from .seeds import substream
from .states import BELL_TO_DIBIT, DIBIT_TO_BELL

MAGIC = b"SDC1"
_HEADER = struct.Struct("<4sBII")


class MessageKind(enum.IntEnum):
    SEND_REQUEST = 1
    ACKNOWLEDGE = 2
    RECEIPT = 3


@dataclass(frozen=True)
class Message:
    kind: MessageKind
    frame_index: int
    payload: bytes = b""


def encode_message(msg: Message) -> bytes:
    return _HEADER.pack(MAGIC, int(msg.kind), msg.frame_index, len(msg.payload)) + msg.payload


def decode_message(buffer: bytes, offset: int = 0) -> tuple[Message, int] | None:
    """Decode one message starting at offset, or None if incomplete."""
    if len(buffer) - offset < _HEADER.size:
        return None
    magic, kind, frame, length = _HEADER.unpack_from(buffer, offset)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    try:
        mk = MessageKind(kind)
    except ValueError as exc:
        raise ProtocolError(f"unknown message kind {kind}") from exc
    end = offset + _HEADER.size + length
    if len(buffer) < end:
        return None
    return Message(mk, frame, bytes(buffer[offset + _HEADER.size : end])), end


@dataclass(frozen=True)
class TimingConfig:
    """Wall-clock model of the classical and quantum steps.

    The link never loses a message, so a session charges three one-way
    latencies per frame and no retransmission timeout.
    """

    message_latency_s: float = 0.3
    encoder_settle_s: float = 0.005
    frame_window_s: float = 0.5
    recalibration_pause_s: float = 2.0

    def __post_init__(self):
        require_finite(self)
        for name in (
            "message_latency_s",
            "encoder_settle_s",
            "frame_window_s",
            "recalibration_pause_s",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.frame_window_s <= 0:
            raise ConfigError("frame_window_s must be positive")


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


@dataclass
class SessionStats:
    frames: int
    erasure_count: int
    timeout_count: int
    elapsed_s: float
    throughput_bits_per_s: float
    recalibrations: int
    verdict_counts: dict[str, int] = field(default_factory=dict)


@dataclass
class SessionResult:
    dibits: list[int]
    erasures: list[bool]
    stats: SessionStats


_AMBIGUOUS = len(VERDICTS) - 1
_DIBIT_CLASS = np.array([DIBIT_TO_BELL[d].index for d in sorted(DIBIT_TO_BELL)])
# The received dibit of each verdict; an erasure (an ambiguous verdict or
# an empty window) is filled with 0.
_VERDICT_DIBIT = np.array([BELL_TO_DIBIT.get(v, 0) for v in VERDICTS])


def _window_closes(gap: np.ndarray, timing: TimingConfig) -> np.ndarray:
    """Operating time at which each frame's window closes, given the first
    arrival after each frame's settle.

    A frame is five steps: hop, hop, hop, settle, then the window or the
    first arrival in it; frame 0 has no RECEIPT hop before it.  A
    sequential cumsum, in place, gives the same floats as adding the steps
    one by one.
    """
    clock = np.empty((len(gap), 5))
    clock[:, :3] = timing.message_latency_s
    clock[:, 3] = timing.encoder_settle_s
    clock[:, 4] = np.minimum(gap, timing.frame_window_s)
    clock[:1, 0] = 0.0
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
    close at times known in closed form, the final RECEIPT adds one hop,
    and every detection is drawn in one batch.  Phase drift advances on
    operating time and each recalibration inserts a fixed pause; the
    analyzer sits at the walk's phases, whatever offsets `interf_cfg`
    holds.  Everything is reproducible from the master seed.
    """
    for d in dibits:
        if d not in DIBIT_TO_BELL:
            raise ConfigError(f"dibit out of range: {d!r}")
    n = len(dibits)
    walk = PhaseWalk(drift_cfg, substream(master_seed, "protocol.drift"))
    rng_q = substream(master_seed, "protocol.quantum")
    rng_arr = substream(master_seed, "protocol.arrivals")

    gap = rng_arr.exponential(1.0 / source_cfg.total_rate_hz, n)
    timed_out = gap >= timing.frame_window_s
    closes = _window_closes(gap, timing)

    # quantum pass: every detection in one draw, in frame order
    detected = ~timed_out
    sent = _DIBIT_CLASS[np.array(dibits, dtype=np.intp)[detected]]
    outcome = sample_detections(sent, closes[detected], walk, source_cfg, rng_q)
    verdict = np.full(n, _AMBIGUOUS)
    verdict[detected] = OUTCOME_VERDICT[outcome]
    erasures = verdict == _AMBIGUOUS
    counts = np.bincount(verdict, minlength=len(VERDICTS)).tolist()

    op_time = closes[-1] + timing.message_latency_s if n else 0.0
    elapsed = float(op_time + walk.recalibrations * timing.recalibration_pause_s)
    throughput = (2.0 * n / elapsed) if elapsed > 0 else 0.0
    stats = SessionStats(
        frames=n,
        erasure_count=int(erasures.sum()),
        timeout_count=int(timed_out.sum()),
        elapsed_s=elapsed,
        throughput_bits_per_s=throughput,
        recalibrations=walk.recalibrations,
        verdict_counts={verdict_label(v): c for v, c in zip(VERDICTS, counts) if c},
    )
    return SessionResult(_VERDICT_DIBIT[verdict].tolist(), erasures.tolist(), stats)
