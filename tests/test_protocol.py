import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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


def test_decode_splits_concatenated_messages():
    msgs = [
        Message(MessageKind.SEND_REQUEST, 0),
        Message(MessageKind.ACKNOWLEDGE, 0),
        Message(MessageKind.RECEIPT, 0),
    ]
    buffer = b"".join(encode_message(m) for m in msgs)
    decoded, offset = [], 0
    while offset < len(buffer):
        msg, offset = decode_message(buffer, offset)
        decoded.append(msg)
    assert decoded == msgs
    assert offset == len(buffer)


def test_decode_incomplete_returns_none():
    wire = encode_message(Message(MessageKind.SEND_REQUEST, 5))
    assert decode_message(wire[:7]) is None
    assert decode_message(wire[:-1]) is None
    assert decode_message(wire + wire[:-1], len(wire)) is None


def test_decode_rejects_bad_magic_and_kind():
    wire = bytearray(encode_message(Message(MessageKind.SEND_REQUEST, 1)))
    bad_magic = b"XXX1" + bytes(wire[4:])
    with pytest.raises(ProtocolError):
        decode_message(bad_magic)
    wire[4] = 200
    with pytest.raises(ProtocolError):
        decode_message(bytes(wire))
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


@settings(max_examples=300)
@given(st.lists(_WIRE_PIECES, max_size=4), st.data())
def test_decode_any_bytes_at_any_offset(pieces, data):
    buffer = b"".join(pieces)
    starts = [sum(map(len, pieces[:i])) for i in range(len(pieces) + 1)]
    offset = data.draw(
        st.one_of(st.sampled_from(starts), st.integers(0, len(buffer))), label="offset"
    )
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


def test_sender_timeout_retransmits_last_message():
    sender = SenderMachine(1)
    (first,) = _wire_only(sender.start())
    assert sender.handle_timeout() == [("wire", first)]
    assert sender.handle_timeout() == [("wire", first)]


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


def test_session_is_deterministic_per_seed():
    dibits = [3, 1, 0, 2] * 5
    def run():
        return run_session(
            dibits, TRANSFER_SOURCE, TRANSFER_DRIFT, DEFAULT_INTERFEROMETER,
            DEFAULT_TIMING, master_seed=42,
        )
    a = run()
    b = run()
    assert a.dibits == b.dibits
    assert a.erasures == b.erasures
    assert a.stats.elapsed_s == b.stats.elapsed_s


def test_session_throughput_in_expected_band():
    dibits = [1, 2] * 40
    result = run_session(
        dibits, TRANSFER_SOURCE, TRANSFER_DRIFT, DEFAULT_INTERFEROMETER,
        DEFAULT_TIMING, master_seed=9,
    )
    assert 0.3 < result.stats.throughput_bits_per_s < 3.0
    assert result.stats.elapsed_s > 0


def test_heavy_drift_produces_flagged_erasures():
    dibits = [2] * 120
    result = run_session(
        dibits,
        SourceConfig(source_fidelity=1.0, accidental_rate_hz=0.0),
        DriftConfig(sigma_rad_per_sqrt_s=5.0, recalibration_period_s=1e9),
        DEFAULT_INTERFEROMETER, DEFAULT_TIMING, master_seed=21,
    )
    assert result.stats.erasure_count > 0
    for dibit, erased in zip(result.dibits, result.erasures):
        if erased:
            assert dibit == 0
    assert result.stats.erasure_count == sum(result.erasures)


def test_empty_window_times_out_into_erasure():
    slow = SourceConfig(
        coincidence_rate_hz=0.01,
        source_fidelity=1.0, accidental_rate_hz=0.0,
    )
    result = run_session(
        [1, 2, 3], slow, NO_DRIFT, DEFAULT_INTERFEROMETER, DEFAULT_TIMING,
        master_seed=2,
    )
    assert result.stats.timeout_count > 0
    assert result.stats.erasure_count >= result.stats.timeout_count


def test_session_counts_recalibration_pauses():
    dibits = [0] * 40
    fast_recal = DriftConfig(
        sigma_rad_per_sqrt_s=0.0, recalibration_period_s=1.0,
    )
    result = run_session(
        dibits, CLEAN_SOURCE, fast_recal, DEFAULT_INTERFEROMETER,
        DEFAULT_TIMING, master_seed=3,
    )
    assert result.stats.recalibrations > 0
    baseline = run_session(
        dibits, CLEAN_SOURCE, NO_DRIFT, DEFAULT_INTERFEROMETER,
        DEFAULT_TIMING, master_seed=3,
    )
    extra = result.stats.recalibrations * DEFAULT_TIMING.recalibration_pause_s
    assert result.stats.elapsed_s == pytest.approx(
        baseline.stats.elapsed_s + extra, rel=1e-6
    )


def test_empty_session():
    result = run_session(
        [], CLEAN_SOURCE, NO_DRIFT, DEFAULT_INTERFEROMETER, DEFAULT_TIMING,
        master_seed=1,
    )
    assert result.dibits == []
    assert result.stats.throughput_bits_per_s == 0.0


def test_session_rejects_bad_dibits():
    with pytest.raises(ConfigError):
        run_session(
            [0, 4], CLEAN_SOURCE, NO_DRIFT, DEFAULT_INTERFEROMETER,
            DEFAULT_TIMING, master_seed=1,
        )


@pytest.mark.parametrize("timing, drift, message", [
    # The first run's windows close below 1.54e308; the session time
    # first leaves the float range at frame 2,397, in the second run.
    (DEFAULT_TIMING._replace(message_latency_s=2.5e304), TRANSFER_DRIFT,
     "session time overflows"),
    # The pauses first overflow the elapsed time at frame 2,489.
    (DEFAULT_TIMING._replace(message_latency_s=1.0, recalibration_pause_s=2.4e298),
     TRANSFER_DRIFT._replace(recalibration_period_s=1e-6), "recalibration pauses overflow"),
])
def test_session_refuses_an_overflow_first_reached_in_a_later_run(timing, drift, message):
    # Each run is checked before it is drawn, so the walk never meets an
    # infinite time (whose warning the suite turns into an error).
    assert sampler.EVENT_CHUNK < 2396
    with pytest.raises(ConfigError, match=message):
        run_session([0] * 3000, TRANSFER_SOURCE, drift, DEFAULT_INTERFEROMETER, timing, 1)


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
            phases = walk.advance(np.array([op_time]))[0]
            u = rng_q.random(5)
            outcome = sampler._sample_outcomes(DIBIT_TO_BELL[dibit].index, phases, source, u)
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
    return received, erasures, elapsed, timeouts, recalibrations, counts


def test_session_matches_a_frame_by_frame_reference():
    # A slow source empties about one window in five, and a short period
    # recalibrates every few frames.
    slow = TRANSFER_SOURCE._replace(coincidence_rate_hz=2.0)
    drift = TRANSFER_DRIFT._replace(recalibration_period_s=7.0)
    # A near-silent source times out every window, so no detection is drawn.
    silent = TRANSFER_SOURCE._replace(coincidence_rate_hz=1e-3, accidental_rate_hz=0.0)
    instant = DEFAULT_TIMING._replace(message_latency_s=0.0)
    dibits = np.random.default_rng(6).integers(0, 4, 300).tolist()
    cases = [
        (dibits, slow, drift, DEFAULT_TIMING),
        (dibits[:1], TRANSFER_SOURCE, TRANSFER_DRIFT, DEFAULT_TIMING),
        (dibits, slow, drift, instant),
        (dibits[:40], silent, drift, DEFAULT_TIMING),
    ]
    checked = []
    for frames, source, walk_cfg, timing in cases:
        result = run_session(frames, source, walk_cfg, DEFAULT_INTERFEROMETER, timing, 17)
        stats = result.stats
        assert (
            result.dibits, result.erasures, stats.elapsed_s, stats.timeout_count,
            stats.recalibrations, stats.verdict_counts,
        ) == _frame_by_frame(frames, source, walk_cfg, timing, 17)
        checked.append(stats)
    assert checked[0].timeout_count > 20 and checked[0].recalibrations > 20
    # The silent session never advances the walk, yet its last window
    # closes at 55.9 s, after seven 7 s periods.
    assert checked[-1].timeout_count == 40 and checked[-1].recalibrations == 7
    assert checked[-1].elapsed_s == pytest.approx(55.9 + 0.3 + 7 * 2.0)


def test_session_does_not_depend_on_the_run_length(monkeypatch):
    # The slow, often-recalibrated case of the frame-by-frame reference.
    slow = TRANSFER_SOURCE._replace(coincidence_rate_hz=2.0)
    drift = TRANSFER_DRIFT._replace(recalibration_period_s=7.0)
    dibits = np.random.default_rng(6).integers(0, 4, 300).tolist()
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


# Traced bytes per pixel of reading a generated image and sending it, at
# most.  Measured 34 B/px on a 400x500 image (numpy 2.4), the parse's
# peak: it holds the body text and one int64 per channel.  The session
# peaks at 27 B/px, its three lists and one verdict byte per frame.
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
