import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibersdc import sampler
from fibersdc.configs import (
    DEFAULT_INTERFEROMETER,
    DEFAULT_TIMING,
    TRANSFER_DRIFT,
    TRANSFER_SOURCE,
    DriftConfig,
    SourceConfig,
)
from fibersdc.errors import ConfigError, ProtocolError
from fibersdc.imagecodec import ImageRaster, raster_to_dibits, read_ppm, write_ppm
from fibersdc.interferometer import classify
from fibersdc.kernel import BELL_TO_DIBIT, DIBIT_TO_BELL, OUTCOMES, verdict_label
from fibersdc.protocol import TimingConfig, _window_closes, run_session
from fibersdc.sampler import PhaseWalk
from fibersdc.seeds import substream
from fibersdc.wire import (
    MAGIC,
    Message,
    MessageKind,
    ReceiverMachine,
    SenderMachine,
    decode_message,
    encode_message,
)

CLEAN_SOURCE = SourceConfig(source_fidelity=1.0, accidental_rate_hz=0.0)
NO_DRIFT = DriftConfig(sigma_rad_per_sqrt_s=0.0)


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------


def test_message_roundtrip():
    msg = Message(MessageKind.RECEIPT, 77)
    wire = encode_message(msg)
    assert wire == b"SDC1\x03" + (77).to_bytes(4, "little")
    decoded, end = decode_message(wire)
    assert decoded == msg
    assert end == len(wire)
    last = Message(MessageKind.SEND_REQUEST, 2**32 - 1)
    assert decode_message(encode_message(last)) == (last, 9)
    for frame in (2**32, -1, 2.5):
        with pytest.raises(ProtocolError, match=f"frame index {frame}"):
            encode_message(Message(MessageKind.SEND_REQUEST, frame))
    for kind in (5, 300):
        with pytest.raises(ProtocolError, match=f"message kind {kind}"):
            encode_message(Message(kind, 0))


def test_decode_rejects_a_bad_offset():
    # A negative offset would count from the end of the buffer; a float is
    # no index.
    good = encode_message(Message(MessageKind.SEND_REQUEST, 1))
    for offset in (-9, -1, 0.0):
        with pytest.raises(ProtocolError, match="offset"):
            decode_message(good, offset)


# Wire bytes built from pieces that reach every branch of the decoder:
# arbitrary bytes, headers with the right magic and a known or any kind
# byte, and such headers with one magic byte replaced.  Offsets fall
# anywhere, or where a piece starts.
_HEADERS = st.builds(
    lambda kind, frame: MAGIC + bytes([kind]) + frame.to_bytes(4, "little"),
    st.one_of(st.sampled_from([k.value for k in MessageKind]), st.integers(0, 255)),
    st.integers(0, 2**32 - 1),
)
_WIRE_PIECES = st.one_of(
    st.binary(max_size=12),
    _HEADERS,
    st.builds(
        lambda header, at, byte: header[:at] + bytes([byte]) + header[at + 1 :],
        _HEADERS,
        st.integers(0, len(MAGIC) - 1),
        st.integers(0, 255),
    ),
)


@st.composite
def _buffers_and_offsets(draw):
    pieces = draw(st.lists(_WIRE_PIECES, max_size=4))
    buffer = b"".join(pieces)
    starts = [sum(map(len, pieces[:i])) for i in range(len(pieces) + 1)]
    return buffer, draw(st.one_of(st.sampled_from(starts), st.integers(0, len(buffer))))


_REQUEST = encode_message(Message(MessageKind.SEND_REQUEST, 5))
_EXCHANGE = b"".join(encode_message(Message(kind, 0)) for kind in MessageKind)


@settings(max_examples=300)
# Each message of a concatenated exchange, where it starts.
@example((_EXCHANGE, 0))
@example((_EXCHANGE, 9))
@example((_EXCHANGE, 18))
# An incomplete message, alone or after a whole one.
@example((_REQUEST[:7], 0))
@example((_REQUEST[:-1], 0))
@example((_REQUEST + _REQUEST[:-1], 9))
# A bad magic, and an unknown kind.
@example((b"XXX1" + _REQUEST[4:], 0))
@example((_REQUEST[:4] + bytes([200]) + _REQUEST[5:], 0))
@given(_buffers_and_offsets())
def test_decode_any_bytes_at_any_offset(case):
    buffer, offset = case
    head = buffer[offset : offset + 9]
    try:
        decoded = decode_message(buffer, offset)
    except ProtocolError:
        # only a whole header with a bad magic or an unknown kind
        assert len(head) == 9
        assert head[:4] != MAGIC or head[4] not in {k.value for k in MessageKind}
        return
    if len(head) < 9:
        assert decoded is None
    else:
        msg, end = decoded
        assert end == offset + 9
        assert encode_message(msg) == head


# ---------------------------------------------------------------------------
# state machines
# ---------------------------------------------------------------------------


def _wire_only(actions):
    assert all(kind == "wire" for kind, _ in actions)
    return [msg for _, msg in actions]


def test_machines_run_three_frames_in_lockstep():
    sender = SenderMachine(3)
    receiver = ReceiverMachine(3)
    actions = sender.start()
    for frame in range(3):
        (request,) = _wire_only(actions)
        assert request.kind is MessageKind.SEND_REQUEST
        assert request.frame_index == frame
        (ack,) = _wire_only(receiver.handle_message(request))
        assert ack.kind is MessageKind.ACKNOWLEDGE
        ((kind, idx),) = sender.handle_message(ack)
        assert (kind, idx) == ("transmit", frame)
        (receipt,) = _wire_only(receiver.close_window(frame))
        assert receipt.kind is MessageKind.RECEIPT
        actions = sender.handle_message(receipt)
    assert sender.done and receiver.done
    assert actions == []


def _machine_window_closes(gap, timing):
    """Each frame's window close, and the time the last RECEIPT lands, from
    the state machines exchanging encoded messages over a lossless
    loopback: each wire message costs one latency, each transmit the
    encoder settle and then the window or the first arrival in it."""
    n = len(gap)
    sender, receiver = SenderMachine(n), ReceiverMachine(n)
    peer = {sender: receiver, receiver: sender}
    queue = [(sender, action) for action in sender.start()]
    clock, closes = 0.0, []
    while queue:
        machine, (kind, value) = queue.pop(0)
        if kind == "wire":
            clock += timing.message_latency_s
            wire = encode_message(value)
            msg, end = decode_message(wire)
            assert end == len(wire)
            queue += [(peer[machine], action) for action in peer[machine].handle_message(msg)]
        else:
            assert (machine, kind) == (sender, "transmit")
            clock += timing.encoder_settle_s
            clock += min(gap[value], timing.frame_window_s)
            closes.append(clock)
            queue += [(receiver, action) for action in receiver.close_window(value)]
    assert sender.done and receiver.done
    return closes, clock


def test_closed_form_timeline_equals_the_machine_exchange():
    timing = TimingConfig(
        message_latency_s=0.0137, encoder_settle_s=0.0031, frame_window_s=0.29,
    )
    gap = np.random.default_rng(8).exponential(0.2, 40)
    timed_out = gap >= timing.frame_window_s
    assert 0 < timed_out.sum() < len(gap)
    closes, last_receipt = _machine_window_closes(gap.tolist(), timing)
    assert closes == _window_closes(gap, timing).tolist()
    assert last_receipt == closes[-1] + timing.message_latency_s


def test_zero_frame_session_is_immediately_done():
    sender = SenderMachine(0)
    assert sender.start() == []
    assert sender.done
    assert ReceiverMachine(0).done
    # The last frame index must fit the wire's u32.
    assert SenderMachine(2**32).start() == [("wire", Message(MessageKind.SEND_REQUEST, 0))]
    for machine in (SenderMachine, ReceiverMachine):
        for n_frames in (2**32 + 1, 2**33, -1, 2.5):
            with pytest.raises(ConfigError, match="n_frames"):
                machine(n_frames)


def test_sender_ignores_duplicate_ack_and_stale_receipt():
    sender = SenderMachine(2)
    sender.start()
    ack = Message(MessageKind.ACKNOWLEDGE, 0)
    assert sender.handle_message(ack) == [("transmit", 0)]
    assert sender.handle_message(ack) == []
    sender.handle_message(Message(MessageKind.RECEIPT, 0))
    assert sender.handle_message(Message(MessageKind.RECEIPT, 0)) == []


def test_sender_ignores_ack_replayed_after_a_delayed_receipt():
    # The sender retransmits REQUEST(0) while RECEIPT(0) is in flight; the
    # receiver answers the retry with ACK(0) and RECEIPT(0) again, which
    # reach the sender after the delayed receipt has moved it to frame 1.
    sender, receiver = SenderMachine(2), ReceiverMachine(2)
    (request,) = _wire_only(sender.start())
    (ack,) = _wire_only(receiver.handle_message(request))
    assert sender.handle_message(ack) == [("transmit", 0)]
    (receipt,) = _wire_only(receiver.close_window(0))
    (retry,) = _wire_only(sender.handle_timeout())
    replay = _wire_only(receiver.handle_message(retry))
    assert replay == [ack, receipt]
    (request,) = _wire_only(sender.handle_message(receipt))
    assert request == Message(MessageKind.SEND_REQUEST, 1)
    for msg in replay:
        assert sender.handle_message(msg) == []
    (ack,) = _wire_only(receiver.handle_message(request))
    assert sender.handle_message(ack) == [("transmit", 1)]
    assert sender.handle_message(*_wire_only(receiver.close_window(1))) == []
    assert sender.done and receiver.done


def test_sender_rejects_out_of_order_messages():
    sender = SenderMachine(2)
    sender.start()
    with pytest.raises(ProtocolError):
        sender.handle_message(Message(MessageKind.ACKNOWLEDGE, 1))
    with pytest.raises(ProtocolError):
        sender.handle_message(Message(MessageKind.RECEIPT, 1))
    with pytest.raises(ProtocolError):
        sender.handle_message(Message(MessageKind.SEND_REQUEST, 0))
    with pytest.raises(ProtocolError, match="already started"):
        sender.start()


def test_sender_timeout_retransmits_last_message():
    sender = SenderMachine(1)
    assert sender.handle_timeout() == []  # nothing sent yet
    (first,) = _wire_only(sender.start())
    assert sender.handle_timeout() == [("wire", first)]
    assert sender.handle_timeout() == [("wire", first)]
    sender.handle_message(Message(MessageKind.ACKNOWLEDGE, 0))
    assert sender.handle_message(Message(MessageKind.RECEIPT, 0)) == []
    assert sender.done and sender.handle_timeout() == []


def test_receiver_replays_ack_and_receipt_after_lost_receipt():
    receiver = ReceiverMachine(2)
    request = Message(MessageKind.SEND_REQUEST, 0)
    receiver.handle_message(request)
    (receipt,) = _wire_only(receiver.close_window(0))
    replay = _wire_only(receiver.handle_message(request))
    assert replay == [Message(MessageKind.ACKNOWLEDGE, 0), receipt]
    assert receiver.expected == 1 and not receiver.armed


def test_receiver_ignores_late_duplicate_request_while_armed():
    # A retransmitted REQUEST(0) arrives after the receiver has armed frame 1.
    sender, receiver = SenderMachine(2), ReceiverMachine(2)
    (request,) = _wire_only(sender.start())
    (late,) = _wire_only(sender.handle_timeout())
    (ack,) = _wire_only(receiver.handle_message(request))
    assert sender.handle_message(ack) == [("transmit", 0)]
    (request,) = _wire_only(sender.handle_message(*_wire_only(receiver.close_window(0))))
    (ack,) = _wire_only(receiver.handle_message(request))
    assert receiver.handle_message(late) == []
    assert receiver.armed and receiver.expected == 1
    assert sender.handle_message(ack) == [("transmit", 1)]
    assert sender.handle_message(*_wire_only(receiver.close_window(1))) == []
    assert sender.done and receiver.done


def test_receiver_rejects_unexpected_traffic():
    receiver = ReceiverMachine(2)
    with pytest.raises(ProtocolError):
        receiver.handle_message(Message(MessageKind.ACKNOWLEDGE, 0))
    with pytest.raises(ProtocolError):
        receiver.handle_message(Message(MessageKind.SEND_REQUEST, 1))
    with pytest.raises(ProtocolError):
        receiver.close_window(0)


# ---------------------------------------------------------------------------
# end-to-end sessions
# ---------------------------------------------------------------------------


# Each refused session payload, with what its message must hold.
BAD_PAYLOADS = {
    "dibit 4": ([0, 4], "dibit must be 0..3, got 4"),
    "byte 4": (b"\x00\x04", "dibit must be 0..3, got 4"),
    "a float among flags": ([1.0, True, 2], "dibits must be integers or booleans, got float64"),
    "a count": (2, "dibits must be a 1-D sequence"),
    "nested": ([[1]], "dibits must be a 1-D sequence"),
    "ragged": ([[1, 2, 3, 4], [1]], "dibits must be a 1-D sequence"),
}


@pytest.mark.parametrize("dibits, message", BAD_PAYLOADS.values(), ids=BAD_PAYLOADS)
def test_session_rejects_bad_dibits(dibits, message):
    with pytest.raises(ConfigError, match=message):
        run_session(
            dibits, CLEAN_SOURCE, NO_DRIFT, DEFAULT_INTERFEROMETER,
            DEFAULT_TIMING, master_seed=1,
        )


def _frame_by_frame(dibits, source, drift, timing, seed):
    """A session replayed one frame at a time, each detection drawn on its
    own from the streams `run_session` uses.  Over the lossless link
    every frame costs three message hops (the previous RECEIPT, then
    SEND_REQUEST and ACKNOWLEDGE), the first frame two, and the last
    RECEIPT one more.  Each recalibration period that has ended when the
    last window closes adds a pause, counted here by stepping over the
    period boundaries rather than read from the walk, which only sees
    detections."""
    walk = PhaseWalk(drift, substream(seed, "protocol.drift"))
    rng_q = substream(seed, "protocol.quantum")
    rng_arr = substream(seed, "protocol.arrivals")
    op_time, timeouts = 0.0, 0
    received, erasures, counts = [], [], {}
    for frame, dibit in enumerate(dibits):
        for _ in range(3 if frame else 2):
            op_time += timing.message_latency_s
        op_time += timing.encoder_settle_s
        gap = rng_arr.exponential(1.0 / source.total_rate_hz)
        if gap >= timing.frame_window_s:
            op_time += timing.frame_window_s
            timeouts += 1
            verdict = None
        else:
            op_time += gap
            outcome = sampler.sample_detections(
                np.array([DIBIT_TO_BELL[dibit].index]), np.array([op_time]), walk, source, rng_q
            )[0]
            verdict = classify(OUTCOMES[int(outcome)])
        counts[verdict_label(verdict)] = counts.get(verdict_label(verdict), 0) + 1
        received.append(0 if verdict is None else BELL_TO_DIBIT[verdict])
        erasures.append(verdict is None)
    recalibrations = 0
    while (recalibrations + 1) * drift.recalibration_period_s <= op_time:
        recalibrations += 1
    if dibits:
        op_time += timing.message_latency_s
    elapsed = op_time + recalibrations * timing.recalibration_pause_s
    return (
        bytes(received), bytes(erasures), sum(erasures), elapsed, timeouts, recalibrations, counts
    )


# A slow source empties about one window in five, and a short period
# recalibrates every few frames.
_SLOW = TRANSFER_SOURCE._replace(coincidence_rate_hz=2.0)
_SHORT_PERIOD = TRANSFER_DRIFT._replace(recalibration_period_s=7.0)
# A near-silent source times out every window, so no detection is drawn.
_SILENT = TRANSFER_SOURCE._replace(coincidence_rate_hz=1e-3, accidental_rate_hz=0.0)
_DIBITS = bytes(np.random.default_rng(6).integers(0, 4, 300).tolist())

# Each session the reference replays, with what its stats must also show.
SESSIONS = {
    # Drift leaks some detected frames into flagged erasures.
    "busy": (_DIBITS, _SLOW, _SHORT_PERIOD, DEFAULT_TIMING, lambda stats: (
        stats.erasure_count > stats.timeout_count > 20 and stats.recalibrations > 20)),
    "one frame": (_DIBITS[:1], TRANSFER_SOURCE, TRANSFER_DRIFT, DEFAULT_TIMING,
                  lambda stats: stats.frames == 1),
    # The same arrivals without hop times span fewer periods.
    "no latency": (_DIBITS, _SLOW, _SHORT_PERIOD, DEFAULT_TIMING._replace(message_latency_s=0.0),
                   lambda stats: stats.timeout_count > 20 and 0 < stats.recalibrations < 20),
    # The silent session never advances the walk, yet its last window
    # closes at 55.9 s, after seven 7 s periods.
    "silent": (_DIBITS[:40], _SILENT, _SHORT_PERIOD, DEFAULT_TIMING, lambda stats: (
        (stats.timeout_count, stats.recalibrations) == (40, 7)
        and stats.elapsed_s == pytest.approx(55.9 + 0.3 + 7 * 2.0))),
    "empty": ([], TRANSFER_SOURCE, TRANSFER_DRIFT, DEFAULT_TIMING,
              lambda stats: (stats.frames, stats.throughput_bits_per_s) == (0, 0.0)),
}


@pytest.mark.parametrize("frames, source, drift, timing, shows", SESSIONS.values(), ids=SESSIONS)
def test_session_matches_a_frame_by_frame_reference(frames, source, drift, timing, shows):
    result = run_session(frames, source, drift, DEFAULT_INTERFEROMETER, timing, 17)
    stats = result.stats
    assert (
        result.dibits, result.erasures, stats.erasure_count, stats.elapsed_s,
        stats.timeout_count, stats.recalibrations, stats.verdict_counts,
    ) == _frame_by_frame(frames, source, drift, timing, 17)
    assert shows(stats)


def test_session_does_not_depend_on_the_run_length(monkeypatch):
    # The busy case of the frame-by-frame reference.
    slow, drift, dibits = _SLOW, _SHORT_PERIOD, _DIBITS
    n = len(dibits)
    gap = substream(17, "protocol.arrivals").exponential(1.0 / slow.total_rate_hz, n)
    closes = _window_closes(gap, DEFAULT_TIMING)
    timed_out = np.flatnonzero(gap >= DEFAULT_TIMING.frame_window_s)
    new_period = np.flatnonzero(np.diff(np.floor(closes / drift.recalibration_period_s))) + 1
    first_timeout = int(timed_out[timed_out > 1][0])
    # Runs of these lengths start at a timed-out frame, end at one, and
    # start at the first frame whose window closes in a new period.
    edges = [first_timeout, first_timeout + 1, int(new_period[0])]
    results = []
    for chunk in [1, 7, 64, n, n + 1, *edges]:
        monkeypatch.setattr(sampler, "EVENT_CHUNK", chunk)
        results.append(
            run_session(dibits, slow, drift, DEFAULT_INTERFEROMETER, DEFAULT_TIMING, 17)
        )
    stats = results[0].stats
    assert stats.timeout_count > 20 and stats.recalibrations > 20
    assert all(result == results[0] for result in results[1:])


def test_a_session_at_the_timing_bounds_stays_finite():
    # Every step at its bound, the fastest drift and the shortest period,
    # over two runs: nothing overflows (the suite makes a RuntimeWarning an
    # error).  The frame-by-frame reference would step over each of the
    # ~1e16 periods one at a time.
    timing = TimingConfig(*[1e6] * len(TimingConfig._fields))
    drift = DriftConfig(sigma_rad_per_sqrt_s=1e6, recalibration_period_s=1e-6)
    assert sampler.EVENT_CHUNK < 3000 <= 2 * sampler.EVENT_CHUNK
    stats = run_session([0] * 3000, TRANSFER_SOURCE, drift, DEFAULT_INTERFEROMETER, timing, 1).stats
    assert math.isfinite(stats.elapsed_s) and stats.recalibrations > 1e15


# Traced bytes per pixel of reading a generated image and sending it, at
# most.  Measured 34 B/px on a 400x500 image (numpy 2.4), the parse's
# peak: it holds the body text and one int64 per channel.  The session
# peaks at 5 B/px, the image's pixel buffer included: a few one-byte
# arrays, since it reads the pixel buffer in place, counts the verdicts
# run by run and returns the received dibits and the erasure flags as
# bytes (11 B/px with one `np.bincount` of all the verdicts, 12 B/px with
# the flags a list of bools too, 27 B/px with the dibits a list too).
# Parsing one str per token and drawing the session in one batch took
# 208 B/px.
_TRANSFER_BYTES_PER_PIXEL = 48


def test_transfer_memory_is_a_few_bytes_per_pixel(tmp_path):
    width, height = 400, 500
    pixels = np.random.default_rng(4).integers(0, 4, width * height, dtype=np.uint8)
    path = tmp_path / "big.ppm"
    write_ppm(path, ImageRaster(width, height, pixels.tobytes()))
    tracemalloc.start()
    try:
        image = read_ppm(path)
        result = run_session(
            raster_to_dibits(image), TRANSFER_SOURCE, TRANSFER_DRIFT,
            DEFAULT_INTERFEROMETER, DEFAULT_TIMING, master_seed=1,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.stats.frames == width * height
    assert peak / (width * height) < _TRANSFER_BYTES_PER_PIXEL
