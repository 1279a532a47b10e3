"""Shared test helpers, most importantly an independent capacity oracle.

The oracle maximizes mutual information by brute force on the input
simplex (coarse sweep, then a local refinement), sharing no code with the
iterative solver under test.  `kernel_mixture` is the kernel's whole
outcome distribution, built from the pieces the sampler draws from.
`run_python` runs the command line, or any code, in a child interpreter.
Every test must leave the cyclic garbage collector on and its frozen set
as it found them (`_collector_left_as_found`).
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fibersdc.kernel import BRANCH_OUTCOMES, leak_weight

SRC = Path(__file__).resolve().parents[1] / "src"

# Child code that ends by running the process entry, `fibersdc.__main__.run`,
# as `python -m fibersdc` does, on the child's own arguments.
THROUGH_THE_ENTRY = """
import runpy, sys
sys.argv = ["fibersdc", *sys.argv[1:]]
runpy.run_module("fibersdc", run_name="__main__", alter_sys=True)
"""


def run_python(*argv: str, code: str | None = None, **options) -> subprocess.CompletedProcess:
    """Run `python -m fibersdc ARGV` in a child, or `python -c CODE ARGV`
    when `code` is given, with this checkout's `src` first on the path and
    PYTHONUNBUFFERED unset.  The child's stdout
    is block-buffered, as on a pipe by default, so output the entry fails
    to flush is lost.  stdout and stderr are captured as text unless
    `options`, passed on to `subprocess.run`, say otherwise."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    entry = ["-m", "fibersdc"] if code is None else ["-c", code]
    options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True, **options}
    return subprocess.run([sys.executable, *entry, *argv], env=env, **options)


@pytest.fixture(autouse=True)
def _collector_left_as_found():
    """Fail a test that ends with the cyclic garbage collector off or with
    a different number of frozen objects.  The process entry turns the
    collector off for good; an in-process test of it that did not turn it
    back on would run the rest of the session without it, unnoticed."""
    frozen = gc.get_freeze_count()
    yield
    enabled, left_frozen = gc.isenabled(), gc.get_freeze_count()
    gc.enable()
    if not frozen:
        gc.unfreeze()
    assert (enabled, left_frozen) == (True, frozen), "the test left the collector changed"


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
