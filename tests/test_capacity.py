import math
import tracemalloc

import numpy as np
import pytest

from conftest import grid_capacity_oracle, mi_many, random_channel

from fibersdc import capacity
from fibersdc.capacity import (
    _blahut_arimoto,
    bootstrap_ci,
    bootstrap_spread,
    channel_capacity,
    estimate_conditionals,
    load_counts,
    load_reference_counts,
    mutual_information,
    partial_bsm_channel,
)
from fibersdc.errors import ConfigError
from fibersdc.noise import save_counts
from fibersdc.seeds import substream

UNIFORM = np.full(4, 0.25)

# Bench count matrix shipped with the package, canonical Bell order.
BENCH_COUNTS = np.array(
    [
        [710, 8, 8, 4],
        [7, 715, 9, 13],
        [15, 8, 748, 9],
        [34, 23, 15, 840],
    ]
)

# Uniform-input information of BENCH_COUNTS, frozen from the brute-force
# oracle in conftest (the same value the solver must reproduce).
BENCH_UNIFORM_BITS = 1.6624704778756465

# bootstrap_ci(BENCH_COUNTS, 1000, substream(1, "bootstrap")) as computed
# by a resample-at-a-time loop of scalar Blahut-Arimoto solves.
BENCH_BOOTSTRAP_STD = 0.02123325974966685


def reference_blahut_arimoto(P, tol, max_iterations=100000):
    """One channel at a time, plain loops: the update and stop rule the
    batched solver must reproduce.  Returns (capacity, input, iterations,
    converged)."""
    n, m = P.shape
    p = [1.0 / n] * n
    last = -math.inf
    capacity = 0.0
    for iterations in range(1, max_iterations + 1):
        q = [sum(p[x] * P[x, y] for x in range(n)) for y in range(m)]
        D = [
            sum(P[x, y] * math.log2(P[x, y] / q[y]) for y in range(m) if P[x, y] > 0)
            for x in range(n)
        ]
        capacity = sum(p[x] * D[x] for x in range(n))
        scale = max(1.0, abs(capacity))
        if (
            abs(capacity - last) <= tol * scale
            and max(D) - capacity <= max(tol * 100, 1e-12) * scale
        ):
            return capacity, np.array(p), iterations, True
        last = capacity
        w = [p[x] * 2.0 ** D[x] for x in range(n)]
        p = [v / sum(w) for v in w]
    return capacity, np.array(p), max_iterations, False


# ---------------------------------------------------------------------------
# conditionals
# ---------------------------------------------------------------------------


def test_estimate_conditionals_normalizes_rows():
    P = estimate_conditionals(BENCH_COUNTS)
    assert np.allclose(P.sum(axis=1), 1.0)
    assert P[0, 0] == pytest.approx(710 / 730)


@pytest.mark.parametrize(
    "bad",
    [
        np.zeros((4, 4)),
        np.ones((3, 4)),
        np.ones((4, 5)),
        -np.ones((4, 4)),
        np.where(np.eye(4) == 1, np.nan, 1.0),
        np.where(np.eye(4) == 1, np.inf, 1.0),
        np.full((4, 4), 1e308),  # finite entries whose row totals overflow
    ],
)
def test_estimate_conditionals_rejects_bad_input(bad):
    with pytest.raises(ConfigError):
        estimate_conditionals(bad)


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------


def test_mi_of_identity_channel_is_two_bits():
    assert mutual_information(UNIFORM, np.eye(4)) == pytest.approx(2.0, abs=1e-12)


def test_mi_of_constant_channel_is_zero():
    P = np.tile([0.1, 0.2, 0.3, 0.4], (4, 1))
    assert mutual_information(UNIFORM, P) == pytest.approx(0.0, abs=1e-12)


def test_mi_of_partial_channel_at_uniform_input():
    assert mutual_information(UNIFORM, partial_bsm_channel()) == pytest.approx(
        1.5, abs=1e-12
    )


def test_mi_matches_vectorized_oracle(rng):
    for _ in range(20):
        P = random_channel(rng)
        p = rng.dirichlet(np.ones(4))
        want = float(mi_many(p[None, :], P)[0])
        assert mutual_information(p, P) == pytest.approx(want, abs=1e-12)


def test_mi_of_bench_counts_matches_frozen_value():
    P = estimate_conditionals(BENCH_COUNTS)
    assert mutual_information(UNIFORM, P) == pytest.approx(
        BENCH_UNIFORM_BITS, abs=1e-12
    )


def test_mi_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        mutual_information([0.5, 0.5], np.eye(4))
    with pytest.raises(ConfigError):
        mutual_information([0.7, 0.1, 0.1, 0.2], np.eye(4))
    for value in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="finite"):
            mutual_information([0.25, 0.25, value, 0.25], np.eye(4))
        channel = np.eye(4)
        channel[0, 1] = value
        with pytest.raises(ConfigError, match="finite"):
            mutual_information(UNIFORM, channel)
    # Rows that do not sum to 1, or negative entries, are no channel: they
    # used to give 4.0 bits (above log2 4) and 0.0 bits.
    with pytest.raises(ConfigError, match="sum to 1"):
        mutual_information(UNIFORM, 2 * np.eye(4))
    with pytest.raises(ConfigError, match="non-negative"):
        mutual_information(UNIFORM, -np.eye(4))


# ---------------------------------------------------------------------------
# capacity solver
# ---------------------------------------------------------------------------


def test_capacity_of_identity_channel():
    res = channel_capacity(np.eye(4))
    assert res.converged
    assert res.capacity_bits == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(res.input_distribution, UNIFORM, atol=1e-6)


def test_capacity_bounded_by_alphabet(rng):
    for _ in range(10):
        res = channel_capacity(random_channel(rng))
        assert -1e-12 <= res.capacity_bits <= 2.0 + 1e-12


def test_capacity_invariant_under_input_relabeling(rng):
    P = random_channel(rng)
    perm = rng.permutation(4)
    a = channel_capacity(P).capacity_bits
    b = channel_capacity(P[perm]).capacity_bits
    assert a == pytest.approx(b, abs=1e-8)


def test_capacity_trajectory_is_non_decreasing(rng):
    for _ in range(5):
        res = channel_capacity(random_channel(rng))
        assert len(res.lower_bounds) == res.iterations
        assert res.lower_bounds[-1] == res.capacity_bits
        assert np.diff(res.lower_bounds).min() > -1e-12


def test_capacity_matches_grid_oracle(rng):
    for _ in range(20):
        P = random_channel(rng)
        res = channel_capacity(P)
        assert res.converged
        assert abs(res.capacity_bits - grid_capacity_oracle(P)) < 1e-4


def test_capacity_dominates_arbitrary_inputs(rng):
    P = random_channel(rng)
    res = channel_capacity(P)
    for _ in range(100):
        q = rng.dirichlet(np.ones(4))
        assert mutual_information(q, P) <= res.capacity_bits + 1e-9


def test_capacity_of_partial_channel_is_log2_three():
    res = channel_capacity(partial_bsm_channel())
    assert res.converged
    assert res.capacity_bits == pytest.approx(math.log2(3.0), abs=1e-9)
    want = np.array([1 / 6, 1 / 6, 1 / 3, 1 / 3])
    assert np.abs(res.input_distribution - want).max() < 1e-6


def test_capacity_of_bench_counts():
    res = channel_capacity(estimate_conditionals(BENCH_COUNTS))
    assert res.converged
    assert 1.65 < res.capacity_bits < 1.68
    assert res.capacity_bits >= BENCH_UNIFORM_BITS - 1e-12


def test_capacity_rejects_bad_channels():
    with pytest.raises(ConfigError):
        channel_capacity(np.full((4, 4), 0.3))
    with pytest.raises(ConfigError):
        channel_capacity(-np.eye(4))
    with pytest.raises(ConfigError, match="at least one row"):
        channel_capacity(np.empty((0, 3)))
    for value in (np.nan, np.inf, -np.inf):
        channel = np.eye(4)
        channel[0, 1] = value
        with pytest.raises(ConfigError):
            channel_capacity(channel)


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------


def test_bootstrap_is_deterministic_per_seed():
    a = bootstrap_ci(BENCH_COUNTS, resamples=60, rng=substream(4, "bootstrap"))
    b = bootstrap_ci(BENCH_COUNTS, resamples=60, rng=substream(4, "bootstrap"))
    assert a == b


def test_bootstrap_spread_is_sane():
    sd = bootstrap_ci(BENCH_COUNTS, resamples=200, rng=substream(8, "bootstrap"))
    assert 0.005 < sd < 0.05


@pytest.mark.parametrize("resamples", [1, 2.5])
def test_bootstrap_rejects_bad_resamples(resamples):
    with pytest.raises(ConfigError, match="resamples"):
        bootstrap_ci(BENCH_COUNTS, resamples=resamples, rng=substream(2, "bootstrap"))


def test_broadcast_multinomial_draws_like_the_row_loop():
    P = estimate_conditionals(BENCH_COUNTS)
    totals = BENCH_COUNTS.sum(axis=1)
    k = 37
    batched = substream(2, "bootstrap").multinomial(
        np.broadcast_to(totals, (k, 4)), np.broadcast_to(P, (k, 4, 4))
    )
    loop_rng = substream(2, "bootstrap")
    looped = np.array(
        [[loop_rng.multinomial(totals[x], P[x]) for x in range(4)] for _ in range(k)]
    )
    assert np.array_equal(batched, looped)


def _solver_cases(rng):
    empty_column = BENCH_COUNTS * np.array([1, 0, 1, 1])
    return [random_channel(rng, c) for c in (0.3, 1.0, 3.0) for _ in range(5)] + [
        np.eye(4),
        partial_bsm_channel(),
        estimate_conditionals(empty_column),
        estimate_conditionals(BENCH_COUNTS),
    ]


@pytest.mark.parametrize("tol, max_iterations", [(1e-9, 100000), (1e-7, 100000), (1e-9, 3)])
def test_batched_solver_matches_per_matrix_reference(rng, tol, max_iterations):
    channels = _solver_cases(rng)
    caps, inputs, iterations, converged = _blahut_arimoto(
        np.stack(channels), tol, max_iterations
    )
    assert len(set(iterations.tolist())) > 1  # channels stop at different steps
    for i, P in enumerate(channels):
        want_cap, want_p, want_it, want_conv = reference_blahut_arimoto(P, tol, max_iterations)
        assert abs(caps[i] - want_cap) <= 1e-12
        assert np.abs(inputs[i] - want_p).max() <= 1e-12
        assert (iterations[i], converged[i]) == (want_it, want_conv)
        if (tol, max_iterations) != (1e-9, 100000):
            continue  # channel_capacity solves with these only
        one = channel_capacity(P)
        assert abs(one.capacity_bits - want_cap) <= 1e-12
        assert np.abs(one.input_distribution - want_p).max() <= 1e-12
        assert (one.iterations, one.converged) == (want_it, want_conv)


def test_batched_solver_closed_forms(rng):
    rows = rng.dirichlet(np.ones(4), size=6)
    symmetric = [np.stack([np.roll(row, s) for s in range(4)]) for row in rows]
    channels = np.stack([np.eye(4), partial_bsm_channel()] + symmetric)
    caps, _, _, converged = _blahut_arimoto(channels, 1e-9, 100000)
    assert converged.all()
    assert abs(caps[0] - 2.0) <= 1e-12
    assert abs(caps[1] - math.log2(3.0)) <= 1e-9
    entropy = -(rows * np.log2(rows)).sum(axis=1)
    assert np.abs(caps[2:] - (2.0 - entropy)).max() <= 1e-12


@pytest.mark.parametrize("resamples", [2, 257])
def test_bootstrap_does_not_depend_on_block_size(monkeypatch, resamples):
    want = bootstrap_spread(BENCH_COUNTS, resamples, substream(6, "bootstrap"))
    for block in (1, 7):
        monkeypatch.setattr(capacity, "BOOTSTRAP_BLOCK", block)
        got = bootstrap_spread(BENCH_COUNTS, resamples, substream(6, "bootstrap"))
        assert abs(got[0] - want[0]) <= 1e-12
        assert got[1] == want[1] == 0


def test_bootstrap_matches_the_resample_loop_value():
    sd = bootstrap_ci(BENCH_COUNTS, 1000, substream(1, "bootstrap"))
    assert abs(sd - BENCH_BOOTSTRAP_STD) <= 1e-12


def _bootstrap_peak_bytes(resamples: int) -> int:
    tracemalloc.start()
    try:
        bootstrap_spread(BENCH_COUNTS, resamples, substream(3, "bootstrap"))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bootstrap_memory_does_not_grow_with_resamples():
    bootstrap_spread(BENCH_COUNTS, 300, substream(3, "bootstrap"))  # one-time allocations
    # ten times the resamples: an array of one float each would add 180 KB
    assert _bootstrap_peak_bytes(25_600) - _bootstrap_peak_bytes(2_560) <= 64 * 1024


def test_bootstrap_counts_nonconverged_resamples(monkeypatch):
    solve = capacity._blahut_arimoto
    # one iteration can never meet the stop rule, which compares two steps
    monkeypatch.setattr(capacity, "_blahut_arimoto", lambda P, tol, _: solve(P, tol, 1))
    _, nonconverged = bootstrap_spread(BENCH_COUNTS, 300, substream(6, "bootstrap"))
    assert nonconverged == 300


def test_bootstrap_draws_the_exact_integer_row_totals():
    # float row sums round 2**53 + 1 down and 2**63 - 1 up, past int64
    counts = np.array([[2**63 - 1, 0, 0, 0], [2**53 + 1, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 5]])
    totals = []

    class Recorder:
        def multinomial(self, n, pvals):
            totals.append(n[0].tolist())
            return np.random.default_rng(1).multinomial(n, pvals)

    bootstrap_spread(counts, 2, Recorder())
    assert totals == [[2**63 - 1, 2**53 + 1, 4, 5]]


@pytest.mark.parametrize(
    "counts, message",
    [
        (load_reference_counts() / 1000, "whole numbers"),
        (np.full((4, 4), 1e300), "int64"),
        # refused before a row sum overflows the float range
        (np.full((4, 4), 1e308), "int64"),
        (np.array([[2**62, 2**62, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]), "int64"),
    ],
    ids=["fractional", "beyond-int64", "row-sum-overflows", "row-total-wraps"],
)
def test_bootstrap_rejects_counts_a_count_file_could_not_hold(counts, message):
    with pytest.raises(ConfigError, match=message):
        bootstrap_spread(counts, 2, substream(1, "bootstrap"))


# ---------------------------------------------------------------------------
# count files
# ---------------------------------------------------------------------------


def test_count_file_roundtrip(tmp_path):
    path = tmp_path / "counts.txt"
    save_counts(path, BENCH_COUNTS)
    assert np.array_equal(load_counts(path), BENCH_COUNTS)


@pytest.mark.parametrize(
    "text",
    [
        "1 2 3\n4 5 6\n7 8 9\n1 2 3\n",
        "1 2 3 4\n5 6 7 8\n",
        "1 2 3 four\n5 6 7 8\n9 1 2 3\n4 5 6 7\n",
    ],
)
def test_count_file_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ConfigError):
        load_counts(path)


def test_count_file_missing_raises_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_counts(tmp_path / "absent.txt")
