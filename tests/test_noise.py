import numpy as np
import pytest

from conftest import kernel_mixture

from fibersdc import noise, sampler
from fibersdc.configs import (
    CHARACTERIZATION_DRIFT,
    CHARACTERIZATION_SOURCE,
    SECONDS_PER_STATE,
)
from fibersdc.errors import ConfigError
from fibersdc.interferometer import InterferometerConfig
from fibersdc.kernel import (
    BELL_ORDER,
    OUTCOME_VERDICT,
    OUTCOMES,
    UNCORRELATED_DIST,
    VERDICTS,
    verdict_label,
)
from fibersdc.noise import (
    DriftConfig,
    SourceConfig,
    append_events,
    generate_event_stream,
    iter_event_chunks,
    open_event_log,
    tally_verdicts,
)
from fibersdc.sampler import PhaseWalk, sample_detections
from fibersdc.seeds import substream


def _default_schedule(seconds=SECONDS_PER_STATE):
    return [(b, seconds) for b in BELL_ORDER]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_rate_properties():
    cfg = SourceConfig(coincidence_rate_hz=200.0, accidental_rate_hz=2.0)
    assert cfg.total_rate_hz == pytest.approx(202.0)
    assert cfg.accidental_fraction == pytest.approx(2.0 / 202.0)


# ---------------------------------------------------------------------------
# phase drift
# ---------------------------------------------------------------------------


def test_phase_walk_recalibrates_on_period():
    cfg = DriftConfig(sigma_rad_per_sqrt_s=0.0, recalibration_period_s=100.0,
                      recalibration_residual_rad=0.2)
    walk = PhaseWalk(cfg, substream(1, "test.walk"))
    assert walk.advance(np.array([50.0])).tolist() == [[0.2, 0.2]]
    # With drift, a query on a boundary sits at the residual, whether it
    # is one period or several past the query before it.
    walk = PhaseWalk(cfg._replace(sigma_rad_per_sqrt_s=0.5), substream(1, "test.walk"))
    assert np.all(walk.advance(np.array([50.0])) != 0.2)
    assert walk.advance(np.array([100.0])).tolist() == [[0.2, 0.2]]
    assert np.all(walk.advance(np.array([150.0])) != 0.2)
    assert walk.advance(np.array([400.0])).tolist() == [[0.2, 0.2]]


def test_phase_walk_reset_shrinks_excursion():
    cfg = DriftConfig(sigma_rad_per_sqrt_s=2.0, recalibration_period_s=100.0)
    drifted = []
    fresh = []
    for seed in range(40):
        walk = PhaseWalk(cfg, substream(seed, "test.walk.reset"))
        drifted.append(abs(walk.advance(np.array([99.0]))[0, 0]))
        fresh.append(abs(walk.advance(np.array([100.5]))[0, 0]))
    assert np.mean(fresh) < 0.25 * np.mean(drifted)


def test_batch_walk_increments_have_variance_sigma_squared_dt():
    sigma = 0.7
    cfg = DriftConfig(sigma_rad_per_sqrt_s=sigma, recalibration_period_s=1e9)
    dt = np.where(np.arange(20_000) % 2, 0.01, 0.04)
    phases = PhaseWalk(cfg, substream(19, "test.walk.var")).advance(np.cumsum(dt))
    steps = np.diff(np.vstack([[0.0, 0.0], phases]), axis=0)
    for width in (0.01, 0.04):
        assert steps[dt == width].var() == pytest.approx(sigma**2 * width, rel=0.05)


def test_batch_walk_resets_at_boundaries_however_the_times_are_split():
    cfg = DriftConfig(sigma_rad_per_sqrt_s=1.0, recalibration_period_s=10.0,
                      recalibration_residual_rad=0.3)
    times = np.array([1.0, 4.0, 9.5, 10.0, 13.0, 19.9, 20.0, 20.0, 35.0, 40.0, 41.0])
    walk = PhaseWalk(cfg, substream(4, "test.walk.split"))
    whole = walk.advance(times)
    for i in (3, 6, 7, 9):  # queries on a boundary sit at the residual
        assert whole[i].tolist() == [0.3, 0.3]
    assert np.all(whole[[0, 1, 2, 4, 5, 8, 10]] != 0.3)
    for cut in range(len(times) + 1):
        walk = PhaseWalk(cfg, substream(4, "test.walk.split"))
        split = np.vstack([walk.advance(times[:cut]), walk.advance(times[cut:])])
        assert np.array_equal(split, whole), cut
    walk = PhaseWalk(cfg, substream(4, "test.walk.split"))
    assert np.array_equal(np.vstack([walk.advance(np.array([t])) for t in times]), whole)


def test_phase_walk_rejects_backwards_queries():
    walk = PhaseWalk(DriftConfig(), substream(9, "test.walk.back"))
    walk.advance(np.array([10.0]))
    for times in ([5.0], [10.0 - 1e-10], [10.0, 12.0, 11.0], [np.nan], [np.inf], [11.0, np.nan]):
        with pytest.raises(ConfigError, match="non-decreasing"):
            walk.advance(np.array(times))


# ---------------------------------------------------------------------------
# detection sampling
# ---------------------------------------------------------------------------


def _detections_at_zero_phase(sent, source, seed):
    """Outcome indices of detections of the classes in `sent`, all at time
    0 with both loop phases 0."""
    walk = PhaseWalk(DriftConfig(sigma_rad_per_sqrt_s=0.0), substream(seed, "test.walk.still"))
    sent = np.asarray(sent)
    return sample_detections(sent, np.zeros(len(sent)), walk, source, substream(seed, "test.u"))


def test_accidentals_cover_the_signature_space():
    cfg = SourceConfig(coincidence_rate_hz=1e-9, accidental_rate_hz=1e6)
    seen_dt = set()
    seen_ports = set()
    for o in _detections_at_zero_phase([BELL_ORDER[0].index] * 2_000, cfg, 23).tolist():
        outcome = OUTCOMES[o]
        seen_dt.add(outcome.dt_bins)
        seen_ports.add(outcome.first_port)
        seen_ports.add(outcome.second_port)
        if outcome.dt_bins == 0:
            first = (outcome.first_port, outcome.first_pol)
            second = (outcome.second_port, outcome.second_pol)
            assert first <= second
    assert seen_dt == {0, 1, 2, 3}
    assert seen_ports == {"A", "B"}


def test_noiseless_detection_is_always_correct():
    cfg = SourceConfig(source_fidelity=1.0, accidental_rate_hz=0.0)
    sent = np.repeat([which.index for which in BELL_ORDER], 40)
    outcome = _detections_at_zero_phase(sent, cfg, 31)
    verdicts = [VERDICTS[OUTCOME_VERDICT[o]] for o in outcome.tolist()]
    assert verdicts == [BELL_ORDER[k] for k in sent.tolist()]


def test_sampled_outcomes_follow_the_kernel_mixture():
    # With sigma == 0 the loop phases stay at the residual for the whole run.
    source = SourceConfig(source_fidelity=0.9, accidental_rate_hz=20.0)
    drift = DriftConfig(sigma_rad_per_sqrt_s=0.0, recalibration_residual_rad=0.7)
    sent = BELL_ORDER[3]
    chunks = iter_event_chunks([(sent, 400.0)], source, drift, substream(8, "test.mixture"))
    outcome = np.concatenate([chunk.outcome for chunk in chunks])
    n = len(outcome)
    seen = np.bincount(outcome, minlength=len(OUTCOMES)) / n
    kernel = [kernel_mixture(b.index, 0.7, 0.7) for b in BELL_ORDER]
    others = sum(kernel[b.index] for b in BELL_ORDER if b is not sent) / 3.0
    pair = source.source_fidelity * kernel[sent.index] + (1 - source.source_fidelity) * others
    want = (source.accidental_fraction * np.array(UNCORRELATED_DIST)
            + (1 - source.accidental_fraction) * pair)
    assert n > 80_000
    assert np.all(np.abs(seen - want) <= 5 * np.sqrt(want * (1 - want) / n))


# ---------------------------------------------------------------------------
# event streams
# ---------------------------------------------------------------------------


def test_event_stream_rate_and_ordering():
    rng = substream(7, "test.stream")
    events = generate_event_stream(
        _default_schedule(), CHARACTERIZATION_SOURCE, CHARACTERIZATION_DRIFT,
        InterferometerConfig(), rng,
    )
    assert 3800 < len(events) < 4250
    assert np.all(np.diff(events.wall_time_s) > 0)
    slots = np.minimum(events.wall_time_s // SECONDS_PER_STATE, 3).astype(int)
    assert events.truth.tolist() == [BELL_ORDER[slot].index for slot in slots]


@pytest.mark.parametrize("chunk", [3, 2048])
def test_arrivals_match_a_one_at_a_time_reference(monkeypatch, chunk):
    # Reference: one gap per arrival; the arrival at or past an entry's end
    # is dropped and the next entry starts at that end.
    monkeypatch.setattr(sampler, "EVENT_CHUNK", chunk)
    schedule = [(BELL_ORDER[0], 0.2), (BELL_ORDER[1], 0.0), (BELL_ORDER[2], 0.15)]
    source = CHARACTERIZATION_SOURCE
    events = generate_event_stream(
        schedule, source, CHARACTERIZATION_DRIFT, InterferometerConfig(),
        substream(2, "test.arrivals"),
    )
    gaps = substream(2, "test.arrivals").spawn(3)[0]  # the arrival stream
    want, t = [], 0.0
    for sent, duration in schedule:
        end = t + duration
        while True:
            t += gaps.exponential(1.0 / source.total_rate_hz)
            if t >= end:
                t = end
                break
            want.append((t, sent))
    assert len(want) > 30
    got = zip(events.wall_time_s.tolist(), events.truth.tolist())
    assert [(t, BELL_ORDER[k]) for t, k in got] == want


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_chunks_hold_at_most_event_chunk_events_of_one_entry(monkeypatch, chunk):
    schedule = [(BELL_ORDER[2], 0.1), (BELL_ORDER[0], 0.0), (BELL_ORDER[3], 0.3), (BELL_ORDER[1], 0.05)]
    monkeypatch.setattr(sampler, "EVENT_CHUNK", chunk)
    chunks = list(iter_event_chunks(
        schedule, CHARACTERIZATION_SOURCE, CHARACTERIZATION_DRIFT, substream(6, "test.chunks"),
    ))
    assert all(0 < len(c) <= chunk for c in chunks)
    assert all(len(set(c.truth.tolist())) == 1 for c in chunks)
    ends = np.cumsum([duration for _, duration in schedule])
    for c in chunks:
        entry = int(np.searchsorted(ends, c.wall_time_s[0], side="right"))
        assert c.truth[0] == schedule[entry][0].index
        assert c.wall_time_s[-1] < ends[entry]
    sent = [c.truth[0] for c in chunks]
    assert [k for i, k in enumerate(sent) if not i or k != sent[i - 1]] == [
        BELL_ORDER[2].index, BELL_ORDER[3].index, BELL_ORDER[1].index,
    ]


def test_event_stream_rejects_negative_duration():
    with pytest.raises(ConfigError):
        generate_event_stream(
            [(BELL_ORDER[0], -1.0)], CHARACTERIZATION_SOURCE,
            CHARACTERIZATION_DRIFT, InterferometerConfig(), substream(1, "x"),
        )


def test_a_run_that_cannot_end_is_refused_when_called_before_any_draw():
    # At about 201 Hz a 1e300 s entry is far past 2**52 arrivals: their mean
    # gap is below the float spacing of the entry's end, which is never reached.
    schedule = [(BELL_ORDER[0], 1e300)]
    rng = substream(1, "x")
    with pytest.raises(ConfigError, match="coincidence_rate_hz.*seconds_per_state"):
        generate_event_stream(
            schedule, CHARACTERIZATION_SOURCE, CHARACTERIZATION_DRIFT, InterferometerConfig(), rng
        )
    with pytest.raises(ConfigError):
        iter_event_chunks(schedule, CHARACTERIZATION_SOURCE, CHARACTERIZATION_DRIFT, rng)
    assert rng.bit_generator.seed_seq.n_children_spawned == 0
    assert rng.bit_generator.state == substream(1, "x").bit_generator.state


def test_accuracy_degrades_as_drift_grows():
    interf = InterferometerConfig()
    schedule = [(b, 12.5) for b in BELL_ORDER]
    accuracies = []
    for sigma in (0.0, 0.05, 0.2, 1.0):
        drift = DriftConfig(sigma_rad_per_sqrt_s=sigma)
        rng = substream(13, "test.monotone")
        events = generate_event_stream(
            schedule, CHARACTERIZATION_SOURCE, drift, interf, rng)
        counts, _ = tally_verdicts(events)
        accuracies.append(np.trace(counts) / len(events))
    assert all(a > b for a, b in zip(accuracies, accuracies[1:]))


def test_tally_shape_and_totals():
    rng = substream(41, "test.tally")
    events = generate_event_stream(
        _default_schedule(1.0), CHARACTERIZATION_SOURCE, CHARACTERIZATION_DRIFT,
        InterferometerConfig(), rng,
    )
    counts, ambiguous = tally_verdicts(events)
    assert counts.shape == (4, 4)
    assert ambiguous.shape == (4,)
    assert counts.sum() + ambiguous.sum() == len(events)
    assert counts.min() >= 0


def test_empty_schedule_gives_no_events():
    events = generate_event_stream(
        [], CHARACTERIZATION_SOURCE, CHARACTERIZATION_DRIFT,
        InterferometerConfig(), substream(43, "test.empty"),
    )
    assert len(events) == 0
    counts, ambiguous = tally_verdicts(events)
    assert counts.shape == (4, 4) and ambiguous.shape == (4,)
    assert not counts.any() and not ambiguous.any()


# ---------------------------------------------------------------------------
# event-log files
# ---------------------------------------------------------------------------


def test_event_log_writes_the_header_columns_and_one_row_per_event(tmp_path, monkeypatch):
    monkeypatch.setattr(sampler, "EVENT_CHUNK", 64)  # several appended chunks
    chunks = list(iter_event_chunks(
        [(BELL_ORDER[0], 0.5), (BELL_ORDER[3], 0.5)],
        CHARACTERIZATION_SOURCE, CHARACTERIZATION_DRIFT, substream(55, "test.log"),
    ))
    assert len(chunks) > 1
    path = tmp_path / "events.csv"
    header = {"settings_sha256": "abc123", "master_seed": "55"}
    with open_event_log(path, header) as log:
        for chunk in chunks:
            append_events(log, chunk)
    want = [
        "# master_seed: 55",
        "# settings_sha256: abc123",
        "wall_time_s,truth,port1,pol1,port2,pol2,dt_bins,verdict",
    ]
    for chunk in chunks:
        columns = (chunk.wall_time_s, chunk.truth, chunk.outcome, chunk.verdict)
        for t, k, o, v in zip(*(column.tolist() for column in columns)):
            out = OUTCOMES[o]
            want.append(
                f"{t:.6f},{BELL_ORDER[k].label},{out.first_port},{out.first_pol},"
                f"{out.second_port},{out.second_pol},{out.dt_bins},{verdict_label(VERDICTS[v])}"
            )
    assert path.read_text(encoding="utf-8") == "".join(line + "\n" for line in want)

    # A header that cannot be written leaves no file open.
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]
    monkeypatch.setattr(noise, "open", recording_open, raising=False)
    with pytest.raises(TypeError):
        open_event_log(path, {"a": "1", 2: "2"})  # keys that do not sort
    assert len(opened) == 1 and opened[0].closed
