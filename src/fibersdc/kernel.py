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
path-family monomial.  `kernel_distribution` and `kernel_verdicts`
evaluate that kernel on whole arrays of phases; the event sampler, the
transfer session and the calibration sweep use it.

This module holds the kernel and what runs around it: the Bell classes,
the dibit maps, the outcome and verdict tables.  The tables are stored
in `data/kernel_tables.txt` as `repr` floats and read at import; the
tests rebuild every one of them bit for bit from the state algebra.
"""

from __future__ import annotations

import enum
import os
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

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
CAL_DEPTH = np.array([0.0644, 0.2031, 0.2359, 0.0643])

# Net loop traversals (short, long), indexed like BELL_ORDER, separating
# the two interfering path families of each class: both loops twice for
# PHI_MINUS, the short loop twice for PHI_PLUS and PSI_MINUS, the long
# loop twice for PSI_PLUS.
LOOP_TRAVERSALS = np.array([(2, 2), (2, 0), (2, 0), (0, 2)], dtype=float)


def _read_tables() -> dict[str, list[list[str]]]:
    """The whitespace-split rows of each `[section]` of the table file.

    The file is opened by path: `importlib.resources` would cost about a
    millisecond of every command's start-up."""
    path = os.path.join(os.path.dirname(__file__), "data", "kernel_tables.txt")
    sections: dict[str, list[list[str]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.split("#", 1)[0].split()
            if fields and fields[0].startswith("["):
                rows = sections[fields[0][1:-1]] = []
            elif fields:
                rows.append(fields)
    return sections


_TABLES = _read_tables()
_OUTCOME_ROWS = _TABLES["outcomes"]
_OUTCOME_VALUES = np.array([[float(x) for x in row[6:]] for row in _OUTCOME_ROWS])

OUTCOMES = tuple(DetectionOutcome(*row[:4], int(row[4])) for row in _OUTCOME_ROWS)
"""Every signature the detectors can report, in sorted order: two clicks
on any of the four detectors, 0 to 3 time bins apart."""

OUTCOME_VERDICT = np.array([int(row[5]) for row in _OUTCOME_ROWS])
"""Index into VERDICTS of each outcome's verdict."""

UNCORRELATED_DIST = _OUTCOME_VALUES[:, 0].copy()
"""Outcome distribution of two uncorrelated clicks (an accidental)."""

BRANCH_OUTCOMES = _OUTCOME_VALUES[:, 1:].T.reshape(len(BELL_ORDER), 2, len(OUTCOMES)).copy()
"""Shape (4, 2, len(OUTCOMES)): T_k and L_k, the outcome distributions of
class k's target (branch 0) and leak (branch 1) vectors.  Their supports
are disjoint, so they mix without interference."""

BRANCH_VERDICTS = np.array(
    [[float(x) for x in row] for row in _TABLES["branch_verdicts"]]
).reshape(len(BELL_ORDER), 2, len(VERDICTS))
"""The same two distributions per class over VERDICTS."""


def leak_weight(which, phi0, phi1):
    """Probability that class `which` leaves its target signature at loop
    phases (phi0, phi1): 2 v (1 - v) (1 - cos theta).

    `which` indexes BELL_ORDER; it and the phases may be scalars or arrays
    that broadcast together.  theta is the phase of the class's path-family
    monomial, `LOOP_TRAVERSALS[which]` dotted with the phases.
    """
    v = CAL_DEPTH[which]
    theta = LOOP_TRAVERSALS[which, 0] * phi0 + LOOP_TRAVERSALS[which, 1] * phi1
    return 2.0 * v * (1.0 - v) * (1.0 - np.cos(theta))


def _mix(table: np.ndarray, which, phi0, phi1) -> np.ndarray:
    w = np.asarray(leak_weight(which, phi0, phi1))[..., None]
    return (1.0 - w) * table[which, 0] + w * table[which, 1]


def kernel_distribution(which, phi0, phi1) -> np.ndarray:
    """Outcome distribution over OUTCOMES of class `which` (an index into
    BELL_ORDER) at loop phases (phi0, phi1), on the last axis.

    Equals `measurement_distribution(evolve_bsm(make_bell(...), ...))`
    without building a state; arguments broadcast as in `leak_weight`.
    """
    return _mix(BRANCH_OUTCOMES, which, phi0, phi1)


def kernel_verdicts(which, phi0, phi1) -> np.ndarray:
    """Verdict distribution over VERDICTS of class `which` at loop phases
    (phi0, phi1), on the last axis: `verdict_distribution` as an array."""
    return _mix(BRANCH_VERDICTS, which, phi0, phi1)
