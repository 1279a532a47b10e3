import dataclasses

import numpy as np
import pytest

from fibersdc import noise
from fibersdc.configs import (
    DEFAULT_INTERFEROMETER,
    DEFAULT_TIMING,
    TRANSFER_DRIFT,
    TRANSFER_SOURCE,
)
from fibersdc.errors import ConfigError, ProtocolError
from fibersdc.interferometer import OUTCOMES, classify, verdict_label
from fibersdc.noise import DriftConfig, PhaseWalk, SourceConfig
from fibersdc.protocol import (
    Message,
    MessageKind,
    ReceiverMachine,
    SenderMachine,
    TimingConfig,
    decode_message,
    encode_message,
    run_session,
)
from fibersdc.seeds import substream
from fibersdc.states import BELL_TO_DIBIT, DIBIT_TO_BELL

CLEAN_SOURCE = SourceConfig(source_fidelity=1.0, accidental_rate_hz=0.0)
NO_DRIFT = DriftConfig(sigma_rad_per_sqrt_s=0.0)


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------


def test_message_roundtrip():
    msg = Message(MessageKind.RECEIPT, 77, b"hello")
    wire = encode_message(msg)
    assert wire[:4] == b"SDC1"
    decoded, end = decode_message(wire)
    assert decoded == msg
    assert end == len(wire)


def test_decode_splits_concatenated_messages():
    msgs = [
        Message(MessageKind.SEND_REQUEST, 0),
        Message(MessageKind.ACKNOWLEDGE, 0),
        Message(MessageKind.RECEIPT, 0, b"x"),
    ]
    buffer = b"".join(encode_message(m) for m in msgs)
    decoded, offset = [], 0
    while offset < len(buffer):
        msg, offset = decode_message(buffer, offset)
        decoded.append(msg)
    assert decoded == msgs
    assert offset == len(buffer)


def test_decode_incomplete_returns_none():
    wire = encode_message(Message(MessageKind.SEND_REQUEST, 5, b"abc"))
    assert decode_message(wire[:7]) is None
    assert decode_message(wire[:-1]) is None


def test_decode_rejects_bad_magic_and_kind():
    wire = bytearray(encode_message(Message(MessageKind.SEND_REQUEST, 1)))
    bad_magic = b"XXX1" + bytes(wire[4:])
    with pytest.raises(ProtocolError):
        decode_message(bad_magic)
    wire[4] = 200
    with pytest.raises(ProtocolError):
        decode_message(bytes(wire))


def test_timing_config_validation():
    with pytest.raises(ConfigError):
        TimingConfig(message_latency_s=-0.1)
    with pytest.raises(ConfigError):
        TimingConfig(frame_window_s=0.0)


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


def test_zero_frame_session_is_immediately_done():
    sender = SenderMachine(0)
    assert sender.start() == []
    assert sender.done
    assert ReceiverMachine(0).done


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


def test_noiseless_session_delivers_exactly():
    dibits = [0, 1, 2, 3, 3, 2, 1, 0, 2, 2]
    result = run_session(
        dibits, CLEAN_SOURCE, NO_DRIFT, DEFAULT_INTERFEROMETER,
        DEFAULT_TIMING, master_seed=5,
    )
    assert result.dibits == dibits
    assert not any(result.erasures)
    assert result.stats.erasure_count == 0
    assert result.stats.frames == len(dibits)


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


def _frame_by_frame(dibits, source, drift, timing, seed):
    """A session replayed one frame at a time, each detection drawn on its
    own from the streams `run_session` uses.  Over the lossless link
    every frame costs three message hops (the previous RECEIPT, then
    SEND_REQUEST and ACKNOWLEDGE), the first frame two, and the last
    RECEIPT one more."""
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
            outcome = noise._sample_outcomes(DIBIT_TO_BELL[dibit].index, phases, source, u)
            verdict = classify(OUTCOMES[int(outcome)])
        counts[verdict_label(verdict)] = counts.get(verdict_label(verdict), 0) + 1
        received.append(0 if verdict is None else BELL_TO_DIBIT[verdict])
        erasures.append(verdict is None)
    if dibits:
        op_time += timing.message_latency_s
    elapsed = op_time + walk.recalibrations * timing.recalibration_pause_s
    return received, erasures, elapsed, timeouts, walk.recalibrations, counts


def test_session_matches_a_frame_by_frame_reference():
    # A slow source empties about one window in five, and a short period
    # recalibrates every few frames.
    slow = dataclasses.replace(TRANSFER_SOURCE, coincidence_rate_hz=2.0)
    drift = dataclasses.replace(TRANSFER_DRIFT, recalibration_period_s=7.0)
    # A near-silent source times out every window, so no detection is drawn.
    silent = dataclasses.replace(
        TRANSFER_SOURCE, coincidence_rate_hz=1e-3, accidental_rate_hz=0.0
    )
    instant = dataclasses.replace(DEFAULT_TIMING, message_latency_s=0.0)
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
    assert checked[-1].timeout_count == 40
