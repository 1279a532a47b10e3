"""Shared test helpers, most importantly an independent capacity oracle.

The oracle maximizes mutual information by brute force on the input
simplex (coarse sweep, then a local refinement), sharing no code with the
iterative solver under test.  `kernel_mixture` is the kernel's whole
outcome distribution, built from the pieces the sampler draws from.
"""

import numpy as np
import pytest

from fibersdc.kernel import BRANCH_OUTCOMES, leak_weight


def kernel_mixture(which: int, phi0, phi1) -> np.ndarray:
    """(1 - w) T_k + w L_k over OUTCOMES, on the last axis, for class index
    `which` at loop phases (phi0, phi1), with w = `leak_weight` and T_k,
    L_k the class's `BRANCH_OUTCOMES`: the mixture the sampler draws from."""
    target, leak = np.array(BRANCH_OUTCOMES[which])
    w = np.asarray(leak_weight(which, phi0, phi1))[..., None]
    return (1.0 - w) * target + w * leak


def mi_many(points: np.ndarray, channel: np.ndarray) -> np.ndarray:
    """Mutual information in bits for many input distributions at once."""
    P = np.asarray(channel, dtype=float)
    logP = np.zeros_like(P)
    np.log2(P, where=P > 0, out=logP)
    row_neg_entropy = (P * logP).sum(axis=1)  # sum_y P log2 P per row
    Q = points @ P
    logQ = np.zeros_like(Q)
    np.log2(Q, where=Q > 0, out=logQ)
    return points @ row_neg_entropy - (Q * logQ).sum(axis=1)


def _simplex_grid(n_parts: int, step: float) -> np.ndarray:
    n = int(round(1.0 / step))
    pts = []
    for a in range(n + 1):
        for b in range(n + 1 - a):
            for c in range(n + 1 - a - b):
                d = n - a - b - c
                pts.append((a, b, c, d))
    return np.array(pts, dtype=float) / n


def _refine(channel: np.ndarray, best: np.ndarray, radius: float, step: float):
    """Dense local sweep around `best`.

    The grid runs over the first three coordinates; the fourth is the
    remainder.  Slightly negative remainders are clamped to zero and the
    point renormalized, which places samples exactly on that face of the
    simplex (boundary optima are common for skewed channels).
    """
    axes = [
        np.arange(max(0.0, best[i] - radius), best[i] + radius + step / 2, step)
        for i in range(3)
    ]
    g0, g1, g2 = np.meshgrid(*axes, indexing="ij")
    p3 = 1.0 - g0 - g1 - g2
    keep = p3 >= -step
    pts = np.stack(
        [g0[keep], g1[keep], g2[keep], np.maximum(p3[keep], 0.0)], axis=1
    )
    pts = pts / pts.sum(axis=1, keepdims=True)
    vals = mi_many(pts, channel)
    top = int(np.argmax(vals))
    return pts[top], float(vals[top])


def grid_capacity_oracle(channel: np.ndarray) -> float:
    """Multi-stage grid search for the capacity of a 4-input channel."""
    coarse = _simplex_grid(4, 0.05)
    vals = mi_many(coarse, channel)
    best = coarse[int(np.argmax(vals))]
    value = float(vals.max())
    for radius, step in ((0.075, 0.004), (0.006, 0.0004)):
        best, refined = _refine(channel, best, radius, step)
        value = max(value, refined)
    return value


def random_channel(rng: np.random.Generator, concentration: float = 1.0) -> np.ndarray:
    """Random 4x4 row-stochastic matrix via Dirichlet rows."""
    return rng.dirichlet(np.full(4, concentration), size=4)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
