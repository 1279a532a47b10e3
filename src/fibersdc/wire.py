"""The classical side of the framed transfer: its wire format and the
sans-io state machines a real link would run.

Each frame moves two bits as one Bell class.  The classical side runs a
strict five-step exchange per frame:

    sender -> SEND_REQUEST(i)      announce frame i
    receiver -> ACKNOWLEDGE(i)     arm the detection window
    sender emits the encoded pair  (quantum link, no bytes)
    receiver closes the window     at the first detection or a timeout
    receiver -> RECEIPT(i)         release the sender for frame i+1

A message is nine bytes: MAGIC "SDC1", a one-byte kind and a
little-endian u32 frame index; no kind carries anything more, so a
session has at most 2**32 frames.  The state machines consume decoded
messages and return actions.  Retransmissions after a timeout and stale
copies of the previous frame's messages are idempotent; anything else
out of order raises ProtocolError.

`fibersdc.protocol.run_session` models a lossless link, on which this
exchange never varies, in closed form; it does not load this module.
"""

from __future__ import annotations

import enum
import operator
import struct
from typing import NamedTuple

from .errors import ConfigError, ProtocolError

MAGIC = b"SDC1"
_HEADER = struct.Struct("<4sBI")
_MAX_FRAMES = 2**32


class MessageKind(enum.IntEnum):
    SEND_REQUEST = 1
    ACKNOWLEDGE = 2
    RECEIPT = 3


class Message(NamedTuple):
    kind: MessageKind
    frame_index: int


def _integer(value, error: type[Exception], what: str) -> int:
    """`value` as an int by `operator.index`, or `error` naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} {value!r} is not an integer") from None


def encode_message(msg: Message) -> bytes:
    frame = _integer(msg.frame_index, ProtocolError, "frame index")
    if not 0 <= frame < _MAX_FRAMES:
        raise ProtocolError(f"frame index {frame} does not fit a u32")
    try:
        kind = MessageKind(msg.kind)
    except ValueError:
        raise ProtocolError(f"unknown message kind {msg.kind!r}") from None
    return _HEADER.pack(MAGIC, kind, frame)


def decode_message(buffer: bytes, offset: int = 0) -> tuple[Message, int] | None:
    """Decode one message starting at offset, or None if incomplete."""
    offset = _integer(offset, ProtocolError, "offset")
    if offset < 0:
        raise ProtocolError(f"negative offset {offset}")
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


def _frame_count(n_frames) -> int:
    n = _integer(n_frames, ConfigError, "n_frames")
    if not 0 <= n <= _MAX_FRAMES:
        raise ConfigError(f"n_frames must be in [0, 2**32], got {n}")
    return n


class SenderMachine:
    """Drives frames in order; actions are ("wire", Message) to transmit
    bytes and ("transmit", frame_index) to fire the quantum encoder."""

    def __init__(self, n_frames: int):
        self.n_frames = _frame_count(n_frames)
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
        self.n_frames = _frame_count(n_frames)
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
