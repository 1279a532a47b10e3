"""The analyzer's closed-form kernel and the constants every run needs.

`fibersdc.states` and `fibersdc.interferometer` model the analyzer with
two-photon state algebra; that model is the reference oracle and the
golden-file contract, and no command loads it.  Because each Bell class
leaks into a vector whose outcomes are disjoint from its target's, its
outcome distribution at loop phases (phi0, phi1) is the closed-form
mixture

    (1 - w) * T_k + w * L_k,    w = 2 v (1 - v) (1 - cos theta_k),

with T_k and L_k the outcome distributions of the target and leak
vectors, v = CAL_DEPTH[k] and theta_k the phase of the class's
path-family monomial.  `leak_weight` evaluates w with numpy, for the
event sampler, which then draws from T_k or L_k; `mean_diagonal` scores
a calibration point in `math`.

This module holds the kernel and what runs around it: the Bell classes,
the dibit maps, the outcome and verdict tables.  The tables are plain
tuples, stored in `data/kernel_tables.txt` as `repr` floats and read at
import, so the module loads no numpy; the tests rebuild every one of
them bit for bit from the state algebra.
"""

from __future__ import annotations

import enum
import os
from math import cos
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .states import PhotonMode


class BellState(enum.Enum):
    """The four maximally entangled polarization classes.

    Enum order doubles as the canonical row/column order used by count
    matrices, channel matrices and reports.
    """

    PHI_MINUS = "phi_minus"
    PHI_PLUS = "phi_plus"
    PSI_MINUS = "psi_minus"
    PSI_PLUS = "psi_plus"

    @property
    def label(self) -> str:
        return self.value

    @property
    def index(self) -> int:
        return BELL_ORDER.index(self)


BELL_ORDER = (
    BellState.PHI_MINUS,
    BellState.PHI_PLUS,
    BellState.PSI_MINUS,
    BellState.PSI_PLUS,
)

# Dibit encoding on the second source port (see `fibersdc.states.encode_dibit`).
DIBIT_TO_BELL = {
    0: BellState.PHI_PLUS,
    1: BellState.PHI_MINUS,
    2: BellState.PSI_PLUS,
    3: BellState.PSI_MINUS,
}

BELL_TO_DIBIT = {b: d for d, b in DIBIT_TO_BELL.items()}


class DetectionOutcome(NamedTuple):
    """Which two detectors fired and how many delay bins apart.

    For dt_bins > 0 `first` is the earlier photon; for dt_bins == 0 the
    two (port, pol) labels are stored in sorted order, since simultaneous
    clicks carry no ordering.
    """

    first_port: str
    first_pol: str
    second_port: str
    second_pol: str
    dt_bins: int

    @classmethod
    def from_modes(cls, m1: PhotonMode, m2: PhotonMode) -> "DetectionOutcome":
        dt = abs(m1.t - m2.t)
        if dt == 0:
            a, b = sorted(((m1.port, m1.pol), (m2.port, m2.pol)))
        else:
            early, late = (m1, m2) if m1.t < m2.t else (m2, m1)
            a, b = (early.port, early.pol), (late.port, late.pol)
        return cls(a[0], a[1], b[0], b[1], dt)

    def same_port(self) -> bool:
        return self.first_port == self.second_port

    def same_pol(self) -> bool:
        return self.first_pol == self.second_pol


VERDICT_AMBIGUOUS = "ambiguous"


def verdict_label(verdict: BellState | None) -> str:
    return VERDICT_AMBIGUOUS if verdict is None else verdict.label


VERDICTS = (*BELL_ORDER, None)
"""Verdict order of the kernel tables: the four classes, then ambiguous."""

# Interference depth per class, indexed like BELL_ORDER: the detuned
# fraction of the class amplitude that rides the phase-dependent path
# family.  At depth v the worst-case probability remaining on the
# calibrated signature is (1-2v)^2.  Fitted jointly with
# `interferometer.LEAK_TO_PHI_MINUS` to bench confusion rates; PHI_MINUS
# and PSI_PLUS traverse path pairs that nearly share loops and so are the
# least sensitive.
CAL_DEPTH = (0.0644, 0.2031, 0.2359, 0.0643)

# Net loop traversals (short, long), indexed like BELL_ORDER, separating
# the two interfering path families of each class: both loops twice for
# PHI_MINUS, the short loop twice for PHI_PLUS and PSI_MINUS, the long
# loop twice for PSI_PLUS.
LOOP_TRAVERSALS = ((2.0, 2.0), (2.0, 0.0), (2.0, 0.0), (0.0, 2.0))


def _read_tables() -> tuple[tuple, ...]:
    """The tables below, from the table file, opened by path:
    `importlib.resources` would cost about a millisecond of every
    command's start-up.  The outcome rows end in one column per
    distribution: the accidentals, then each class's target and leak."""
    path = os.path.join(os.path.dirname(__file__), "data", "kernel_tables.txt")
    sections: dict[str, list[list[str]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.split("#", 1)[0].split()
            if fields and fields[0].startswith("["):
                rows = sections[fields[0][1:-1]] = []
            elif fields:
                rows.append(fields)
    outcomes = sections["outcomes"]
    columns = tuple(zip(*(map(float, row[6:]) for row in outcomes)))
    verdict_rows = [tuple(map(float, row)) for row in sections["branch_verdicts"]]
    return (
        tuple(DetectionOutcome(*row[:4], int(row[4])) for row in outcomes),
        tuple(int(row[5]) for row in outcomes),
        columns[0],
        tuple(zip(columns[1::2], columns[2::2])),
        tuple(zip(verdict_rows[0::2], verdict_rows[1::2])),
    )


# OUTCOMES: every signature the detectors can report, in sorted order: two
# clicks on any of the four detectors, 0 to 3 time bins apart.  OUTCOME_VERDICT:
# each one's index into VERDICTS.  UNCORRELATED_DIST: two uncorrelated clicks,
# an accidental.  BRANCH_OUTCOMES[k][b]: T_k (b = 0) and L_k (b = 1), class k's
# target and leak distributions, whose supports are disjoint; BRANCH_VERDICTS
# the same over VERDICTS.
OUTCOMES, OUTCOME_VERDICT, UNCORRELATED_DIST, BRANCH_OUTCOMES, BRANCH_VERDICTS = _read_tables()

# Per class: 2 v (1 - v), its traversals, and its own verdict's target and leak probabilities.
_DIAGONAL = [
    (2.0 * v * (1.0 - v), *LOOP_TRAVERSALS[k], BRANCH_VERDICTS[k][0][k], BRANCH_VERDICTS[k][1][k])
    for k, v in enumerate(CAL_DEPTH)
]


def leak_weight(which, phi0, phi1):
    """Probability that class `which` leaves its target signature at loop
    phases (phi0, phi1): 2 v (1 - v) (1 - cos theta).

    `which` indexes BELL_ORDER; it and the phases may be scalars or arrays
    that broadcast together.  theta is the phase of the class's path-family
    monomial, `LOOP_TRAVERSALS[which]` dotted with the phases.
    """
    import numpy as np

    v = np.take(CAL_DEPTH, which)
    # One take per loop: taking whole rows builds an (n, 2) temporary, and
    # that raised characterize's peak RSS by about 0.09 MB (median of 20 runs).
    short, long = zip(*LOOP_TRAVERSALS)
    theta = np.take(short, which) * phi0 + np.take(long, which) * phi1
    return 2.0 * v * (1.0 - v) * (1.0 - np.cos(theta))


def mean_diagonal(phi0: float, phi1: float) -> float:
    """The calibration score at loop phases (phi0, phi1): the mean over the
    classes of the probability that a class is decoded as itself.  The
    kernel's verdict mixture on its diagonal, in `math`, with each w
    computed in `leak_weight`'s operation order."""
    total = 0.0
    for a, short, long, target, leak in _DIAGONAL:
        w = a * (1.0 - cos(short * phi0 + long * phi1))
        total += (1.0 - w) * target + w * leak
    return total / 4.0
