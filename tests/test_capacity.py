import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mi_many, random_channel

from fibersdc import capacity
from fibersdc.capacity import (
    _blahut_arimoto,
    bootstrap_ci,
    bootstrap_spread,
    channel_capacity,
    estimate_conditionals,
    mutual_information,
    partial_bsm_channel,
)
from fibersdc.errors import ConfigError
from fibersdc.kernel import load_counts, load_reference_counts, save_counts
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


@pytest.mark.parametrize("estimate", [
    estimate_conditionals, lambda counts: bootstrap_spread(counts, 2, substream(1, "bootstrap"))
], ids=["estimate_conditionals", "bootstrap_spread"])
@pytest.mark.parametrize("counts", [np.zeros((4, 4)), BENCH_COUNTS * [[1], [0], [1], [1]]])
def test_estimates_need_a_count_in_every_row(estimate, counts):
    with pytest.raises(ConfigError, match="at least one count"):
        estimate(counts)


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


# ---------------------------------------------------------------------------
# count files
# ---------------------------------------------------------------------------


def _first_row(row):
    """The all-ones count matrix with `row` first."""
    return [row, *[[1, 1, 1, 1]] * 3]


# What the count rule (`kernel.count_matrix`) refuses: whole numbers >= 0,
# each row total within int64, in a 4x4 matrix.
BAD_COUNT_MATRICES = {
    "fractional": np.full((4, 4), 1.5),
    "fractional-bench": load_reference_counts() / 1000,
    "nan": np.where(np.eye(4) == 1, np.nan, 1.0),
    "inf": np.where(np.eye(4) == 1, np.inf, 1.0),
    "minus-inf": np.where(np.eye(4) == 1, -np.inf, 1.0),
    "negative": np.full((4, 4), -1),
    "negative-float": -np.ones((4, 4)),
    "bool": np.ones((4, 4), dtype=bool),
    "shape-2x3": np.ones((2, 3), dtype=int),
    "shape-3x4": np.ones((3, 4)),
    "shape-4x5": np.ones((4, 5)),
    "ragged": [[1, 2, 3, 4], [1]],
    "strings": np.full((4, 4), "1"),
    "entry-beyond-int64": _first_row([10**29, 1, 1, 1]),
    "float-beyond-int64": np.full((4, 4), 1e300),
    "row-total-wraps": _first_row([2**62, 2**62, 0, 0]),
    # finite entries whose row totals overflow the float range
    "1e308": np.full((4, 4), 1e308),
}


def _load_as_file(tmp_path, counts):
    """`load_counts` of a file of `counts`' values, a row per line, as
    `repr` spells them (a string in its quotes)."""
    path = tmp_path / "input.txt"
    rows = np.asarray(counts, dtype=object).tolist()
    path.write_text("".join(" ".join(map(repr, row)) + "\n" for row in rows))
    return load_counts(path)


COUNT_ENTRY_POINTS = {
    "save_counts": lambda tmp_path, counts: save_counts(tmp_path / "counts.txt", counts),
    "load_counts": _load_as_file,
    "estimate_conditionals": lambda _, counts: estimate_conditionals(counts),
    "bootstrap_spread": lambda _, counts: bootstrap_spread(counts, 2, substream(1, "bootstrap")),
}


@pytest.mark.parametrize("counts", BAD_COUNT_MATRICES.values(), ids=BAD_COUNT_MATRICES.keys())
@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS.values(), ids=COUNT_ENTRY_POINTS.keys())
def test_every_entry_point_refuses_a_bad_count_matrix(tmp_path, entry, counts):
    with pytest.raises(ConfigError):
        entry(tmp_path, counts)
    assert not (tmp_path / "counts.txt").exists()  # refused before the file is opened


def _matrices(entries):
    return st.lists(st.lists(entries, min_size=4, max_size=4), min_size=4, max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    _matrices(st.integers(0, (2**63 - 1) // 4)),
    _matrices(st.integers(0, 2**53)).map(lambda rows: np.array(rows, dtype=float)),
))
@example(BENCH_COUNTS)
@example(np.array(_first_row([2**63 - 4, 1, 1, 1]), dtype=object))  # a row total of 2**63 - 1
@example([[np.int64(1)] * 4] * 4)  # numpy scalars, not Python numbers
def test_count_files_read_back_every_matrix_the_rule_accepts(tmp_path_factory, counts):
    path = tmp_path_factory.mktemp("counts") / "counts.txt"
    save_counts(path, counts)
    got = load_counts(path)
    assert got.dtype == np.int64
    assert got.tolist() == [[int(v) for v in row] for row in np.asarray(counts).tolist()]


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


# Spellings `int()` takes and `save_counts` never writes: a count field is
# ASCII decimal digits, as a PPM number is.
SPELLED_COUNTS = {
    "underscore": "1_0",
    "plus-sign": "+2",
    "minus-zero": "-0",
    "arabic-indic-digit": "\u0663",
    "full-width-digit": "\uff11",
    "decimal-point": "1.0",
}


def _count_file(path, field):
    """A count file of ones whose first field is `field`."""
    path.write_text(f"{field} 1 1 1\n" + "1 1 1 1\n" * 3, encoding="utf-8")
    return path


@pytest.mark.parametrize("field", SPELLED_COUNTS.values(), ids=SPELLED_COUNTS.keys())
def test_count_file_refuses_a_spelled_count(tmp_path, field):
    path = _count_file(tmp_path / "spelled.txt", field)
    message = re.escape(f"counts file {path}: ") + ".*" + re.escape(field)
    with pytest.raises(ConfigError, match=message):
        load_counts(path)


def test_count_file_takes_blanks_comments_and_no_header(tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text("\n  # a comment\n\t1 2 3 4  # a row\n\n" + " 5 6 7 8\n" * 3)
    assert load_counts(path).tolist() == [[1, 2, 3, 4], *[[5, 6, 7, 8]] * 3]


# A text with a blank at either end is not one field: the reader splits on
# blanks.  Four characters cannot hold a row of four fields and a line break.
@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=4), st.text("0123456789", min_size=1, max_size=4))
       .filter(lambda text: text == text.strip()))
@example("0")
@example("\u0663")
def test_a_count_field_loads_if_and_only_if_it_is_ascii_digits(tmp_path_factory, text):
    path = _count_file(tmp_path_factory.mktemp("counts") / "counts.txt", text)
    try:
        load_counts(path)
        loaded = True
    except ConfigError:
        loaded = False
    assert loaded == (text.isascii() and text.isdigit())
