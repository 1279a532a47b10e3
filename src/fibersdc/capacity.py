"""Channel-capacity analysis of the four-class verdict channel.

The characterization run yields a 4x4 count matrix over (sent class,
decoded verdict).  This module turns counts into conditional
probabilities, computes mutual information, maximizes it over input
distributions with the Blahut-Arimoto iteration, and attaches a bootstrap
uncertainty to the capacity estimate.  All information quantities are in
bits (base-2 logs).
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import ConfigError, require_integer


def _as_matrix(counts) -> np.ndarray:
    m = np.asarray(counts, dtype=float)
    if m.shape != (4, 4):
        raise ConfigError(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ConfigError("counts must be finite")
    if (m < 0).any():
        raise ConfigError("counts must be non-negative")
    return m


def estimate_conditionals(counts) -> np.ndarray:
    """Row-normalize a count matrix into P(verdict | sent)."""
    m = _as_matrix(counts)
    with np.errstate(over="ignore"):
        sums = m.sum(axis=1)
    if not np.isfinite(sums).all():
        raise ConfigError("count row totals must be finite")
    if (sums <= 0).any():
        raise ConfigError("every row needs at least one count")
    return m / sums[:, None]


def _log2(a: np.ndarray) -> np.ndarray:
    """Base-2 log of the positive entries, 0 elsewhere."""
    out = np.zeros_like(a)
    np.log2(a, where=a > 0, out=out)
    return out


def _divergences(p: np.ndarray, P: np.ndarray, logP: np.ndarray) -> np.ndarray:
    """D[x, r] = KL(P(.|x) || q) in bits for each channel r of a stack laid
    out class-major, P[x, y, r] = P_r(y | x), with inputs p[:, r] and
    output distribution q[:, r] = sum_x p[x, r] P[x, :, r].  logP is
    `_log2(P)`, so the entries where P is 0 contribute 0.

    The sums run over the short leading axes, each step one vectorized
    operation along the channels; no BLAS call, whose first use alone
    pages in about 0.15 MB."""
    q = (p[:, None] * P).sum(axis=0)
    return (P * (logP - _log2(q))).sum(axis=1)


def _as_channel(conditionals) -> np.ndarray:
    """The channel matrix P[x, y] = P(y | x): finite, non-negative, each
    row summing to 1."""
    P = np.asarray(conditionals, dtype=float)
    if P.ndim != 2 or not np.isfinite(P).all() or (P < -1e-12).any():
        raise ConfigError("channel matrix must be finite and non-negative")
    if not len(P):
        raise ConfigError("channel matrix needs at least one row")
    if np.abs(P.sum(axis=1) - 1.0).max() > 1e-9:
        raise ConfigError("channel rows must each sum to 1")
    return P


def mutual_information(input_dist, conditionals) -> float:
    """I(X;Y) in bits for inputs p(x) and channel P(y|x)."""
    p = np.asarray(input_dist, dtype=float)
    P = _as_channel(conditionals)
    if p.ndim != 1 or P.shape[0] != p.shape[0]:
        raise ConfigError("input distribution does not match channel rows")
    if not np.isfinite(p).all():
        raise ConfigError("input distribution must be finite")
    if abs(p.sum() - 1.0) > 1e-9 or (p < -1e-12).any():
        raise ConfigError("input distribution must be a probability vector")
    D = _divergences(p[:, None], P[..., None], _log2(P)[..., None])[:, 0]
    return float((p * D).sum())


# Not a tuple: bench/tracing.py's capacity hook reads a tuple return as (result, ...).
class CapacityResult:
    """`lower_bounds` holds the capacity lower bound after each iteration;
    it never decreases."""

    __slots__ = ("capacity_bits", "input_distribution", "iterations", "converged", "lower_bounds")

    def __init__(
        self,
        capacity_bits: float,
        input_distribution: np.ndarray,
        iterations: int,
        converged: bool,
        lower_bounds: np.ndarray,
    ):
        self.capacity_bits = capacity_bits
        self.input_distribution = input_distribution
        self.iterations = iterations
        self.converged = converged
        self.lower_bounds = lower_bounds


def _blahut_arimoto(P: np.ndarray, tol: float, max_iterations: int, trajectory=None):
    """Blahut-Arimoto over a stack of channels, P[r, x, y] = P(y | x).

    Each channel alternates the two closed-form updates from the uniform
    input and stops when its capacity lower bound moves by less than `tol`
    (relative) in one step and the duality gap max_x D(x) - I is small
    too, which brackets the true capacity.  A channel that meets the rule
    is frozen there, its input and so its lower bound no longer change,
    while the others go on.  Returns the capacities, input distributions,
    iteration counts and converged mask; with a `trajectory` list, each
    iteration's lower bounds are appended.

    The iteration runs on the stack laid out class-major, (x, y, r).
    """
    R, n, _ = P.shape
    P = np.ascontiguousarray(P.transpose(1, 2, 0))
    p = np.full((n, R), 1.0 / n)
    logP = _log2(P)
    capacity = np.zeros(R)
    last = np.full(R, -np.inf)
    iterations = np.zeros(R, dtype=np.int64)
    active = np.ones(R, dtype=bool)
    for _ in range(max_iterations):
        D = _divergences(p, P, logP)
        capacity = (p * D).sum(axis=0)
        if trajectory is not None:
            trajectory.append(capacity)
        iterations += active
        scale = np.maximum(1.0, np.abs(capacity))
        active &= ~(
            (np.abs(capacity - last) <= tol * scale)
            & (D.max(axis=0) - capacity <= max(tol * 100, 1e-12) * scale)
        )
        if not active.any():
            break
        last = capacity
        w = p * np.exp2(D)
        p = np.where(active, w / w.sum(axis=0), p)
    return capacity, p.T, iterations, ~active


# Stop rule of `channel_capacity`; the bootstrap solves to 1e-7.
_TOL = 1e-9
_MAX_ITERATIONS = 100000


def channel_capacity(conditionals) -> CapacityResult:
    """Blahut-Arimoto capacity of a discrete memoryless channel, solved to
    a relative tolerance of 1e-9 in at most 100,000 iterations (see
    `_blahut_arimoto`)."""
    P = _as_channel(conditionals)
    trajectory = []
    capacity, p, iterations, converged = _blahut_arimoto(
        P[None], _TOL, _MAX_ITERATIONS, trajectory
    )
    return CapacityResult(
        float(capacity[0]), p[0].copy(), int(iterations[0]), bool(converged[0]),
        np.array(trajectory)[:, 0],
    )


# Resamples drawn and solved together; the block's arrays bound the memory
# a bootstrap needs, whatever the number of resamples.
BOOTSTRAP_BLOCK = 256


def bootstrap_spread(counts, resamples: int, rng: np.random.Generator) -> tuple[float, int]:
    """Bootstrap standard deviation of the capacity, and the number of
    resamples whose Blahut-Arimoto solve did not converge.

    Each resample redraws every row of the count matrix with its observed
    total and empirical distribution.  Resamples are drawn and solved
    `BOOTSTRAP_BLOCK` at a time; one broadcast multinomial call draws a
    block in the same order as drawing row by row, resample by resample.
    The spread is accumulated block by block, so memory does not grow
    with `resamples`.
    """
    m = _as_matrix(counts)
    resamples = require_integer(resamples, "resamples")
    if resamples < 2:
        raise ConfigError("need at least 2 resamples")
    # Exact row totals in Python ints: whole counts, each total within
    # int64, as `load_counts` requires of a file.
    rows = np.asarray(counts).tolist()
    if any(v != int(v) for row in rows for v in row):
        raise ConfigError("counts must be whole numbers")
    totals = [sum(map(int, row)) for row in rows]
    if max(totals) > np.iinfo(np.int64).max:
        raise ConfigError("count row totals must fit in int64")
    P = estimate_conditionals(m)
    # running count, mean and sum of squared deviations of the capacities
    n, mean, m2 = 0, 0.0, 0.0
    nonconverged = 0
    for start in range(0, resamples, BOOTSTRAP_BLOCK):
        k = min(BOOTSTRAP_BLOCK, resamples - start)
        draws = rng.multinomial(
            np.broadcast_to(totals, (k, 4)), np.broadcast_to(P, (k, 4, 4))
        )
        # a verdict column can come back empty; row sums stay positive
        resampled = draws / draws.sum(axis=2, keepdims=True)
        caps, _, _, converged = _blahut_arimoto(resampled, 1e-7, _MAX_ITERATIONS)
        nonconverged += int(k - converged.sum())
        # merge the block's moments into the running ones (Chan et al.)
        block_mean = float(caps.mean())
        block_m2 = float(np.square(caps - block_mean).sum())
        delta = block_mean - mean
        n += k
        mean += delta * k / n
        m2 += block_m2 + delta * delta * (n - k) * k / n
    return math.sqrt(m2 / (n - 1)), nonconverged


def bootstrap_ci(counts, resamples: int, rng: np.random.Generator) -> float:
    """Standard deviation of the capacity under row-wise multinomial
    resampling of the count matrix (see `bootstrap_spread`)."""
    return bootstrap_spread(counts, resamples, rng)[0]


def partial_bsm_channel() -> np.ndarray:
    """Verdict channel of an analyzer without the time-bin stage.

    Such a device resolves only the two antisymmetric-signature classes;
    the two parallel-polarization classes produce identical statistics and
    are decoded by a fair guess between them.  Rows and columns follow
    canonical Bell order.
    """
    return np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def load_reference_counts() -> np.ndarray:
    """The bundled bench count matrix (canonical Bell order).  Read by
    path, as `kernel` reads its tables: `importlib.resources` would add
    its import to the command's start-up."""
    path = os.path.join(os.path.dirname(__file__), "data", "characterization_counts.txt")
    return load_counts(path)


def load_counts(path) -> np.ndarray:
    """Read a whitespace-separated 4x4 integer count matrix.

    `#` starts a comment; four data rows of four fields each are required,
    and every entry and row total must fit in int64.
    """
    int64 = np.iinfo(np.int64)
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read counts file {path}: {exc}") from exc
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ConfigError(f"count rows need 4 entries, got: {raw!r}")
        try:
            row = [int(p) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"bad count entry in line: {raw!r}") from exc
        if min(row) < int64.min or max(*row, sum(row)) > int64.max:
            raise ConfigError(f"count entry or row total beyond int64 in line: {raw!r}")
        rows.append(row)
    if len(rows) != 4:
        raise ConfigError(f"expected 4 count rows, got {len(rows)}")
    return np.array(rows, dtype=np.int64)

