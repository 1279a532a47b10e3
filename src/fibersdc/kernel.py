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
the dibit maps, the one rule for a dibit payload and the one rule for a
count matrix, the count file (`save_counts` writes it and `load_counts`
reads that grammar only), and the outcome tables.  The tables are plain
tuples, so the module loads no numpy.  One table is stored, in
`data/kernel_tables.txt` as `repr` floats, and read at import: each
outcome's signature, its verdict and its probability on each class's
target and leak branch.  The accidental distribution and the verdict
diagonal that the calibration score needs are derived from it.  The
tests rebuild every stored and derived value bit for bit from the state
algebra.
"""

from __future__ import annotations

import enum
import os
from math import cos
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConfigError

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


def dibit_array(dibits):
    """`dibits` as a uint8 array, by the one rule for a dibit payload: a
    1-D sequence of integers or booleans, each 0..3, or else ConfigError.
    A `bytes` payload, such as an image's pixel buffer, is read in place."""
    import numpy as np

    try:
        values = (np.frombuffer(dibits, np.uint8) if isinstance(dibits, bytes)
                  else np.asarray(dibits))
    except ValueError:  # a ragged nesting
        values = None
    if values is None or values.ndim != 1:
        raise ConfigError(f"dibits must be a 1-D sequence, got {type(dibits).__name__}")
    if values.size and values.dtype.kind not in "biu":
        raise ConfigError(f"dibits must be integers or booleans, got {values.dtype}")
    bad = (values < 0) | (values > 3)
    if bad.any():
        raise ConfigError(f"dibit must be 0..3, got {values[bad][0].item()!r}")
    return values.astype(np.uint8, copy=False)


def count_matrix(counts):
    """`counts` as a 4x4 int64 array, by the one rule for a count matrix
    over (sent class, verdict): every entry a whole number >= 0, not a
    boolean or a string, and every row total within int64, or else
    ConfigError naming the first bad row by its values."""
    import numpy as np

    try:
        m = np.asarray(counts)
    except ValueError:  # a ragged nesting, refused by its shape or a row below
        m = np.asarray(counts, dtype=object)
    if m.shape != (4, 4):
        raise ConfigError(f"a count matrix is 4x4, got shape {m.shape}")
    for row in m.tolist():
        whole = all(type(v) is int or (type(v) is float and v.is_integer()) for v in row)
        if not (whole and min(row) >= 0 and sum(map(int, row)) < 2**63):
            raise ConfigError(
                "count rows need whole numbers >= 0 with a total within int64, got: "
                + " ".join(map(str, row))
            )
    return m.astype(np.int64, copy=False)


# Data files are read by path: `importlib.resources` costs ~1 ms of each command's start-up.
_DATA = os.path.join(os.path.dirname(__file__), "data")


def _rows(lines) -> list[list[str]]:
    """The fields of each row of a whitespace table; `#` starts a comment."""
    return [fields for line in lines if (fields := line.split("#", 1)[0].split())]


def save_counts(path, counts) -> None:
    """Write a count matrix over (sent class, verdict), such as the first of
    `noise.tally_verdicts`, a row per sent class; `count_matrix`'s rule
    refuses, before the file is opened, what `load_counts` could not read."""
    m = count_matrix(counts)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# rows: sent class, columns: verdict, canonical Bell order\n")
        fh.writelines(" ".join(map(str, row)) + "\n" for row in m.tolist())


def load_counts(path):
    """Read a count matrix as `save_counts` writes it: `#` starts a comment
    and a row is four fields of ASCII decimal digits, then `count_matrix`'s
    rule.  Anything else, or a file not readable as UTF-8, is ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            rows = _rows(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read counts file {path}: {exc}") from exc
    for row in rows:
        if len(row) != 4 or not all(f.isascii() and f.isdigit() for f in row):
            line = " ".join(row)
            raise ConfigError(f"counts file {path}: need four ASCII decimal counts, got {line!r}")
    return count_matrix([[int(f) for f in row] for row in rows])


def load_reference_counts():
    """The bundled bench count matrix (canonical Bell order)."""
    return load_counts(os.path.join(_DATA, "characterization_counts.txt"))


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


def _read_table() -> tuple[tuple, ...]:
    """The outcome table, from the table file.  Each row ends in one
    column per distribution: each class's target, then its leak.  A
    missing file is a broken install, not a ConfigError."""
    with open(os.path.join(_DATA, "kernel_tables.txt"), encoding="utf-8") as fh:
        rows = _rows(fh)
    columns = tuple(zip(*(map(float, row[6:]) for row in rows)))
    return (
        tuple(DetectionOutcome(*row[:4], int(row[4])) for row in rows),
        tuple(int(row[5]) for row in rows),
        tuple(zip(columns[0::2], columns[1::2])),
    )


# OUTCOMES: every signature the detectors can report, in sorted order: two
# clicks on any of the four detectors, 0 to 3 time bins apart.  OUTCOME_VERDICT:
# each one's index into VERDICTS.  BRANCH_OUTCOMES[k][b]: T_k (b = 0) and L_k
# (b = 1), class k's target and leak distributions, whose supports are disjoint.
OUTCOMES, OUTCOME_VERDICT, BRANCH_OUTCOMES = _read_table()

# Two uncorrelated clicks, an accidental: uniform over the 64 ordered pairs
# of detectors and delays, so simultaneous clicks on two detectors, stored
# in sorted order, count twice.
UNCORRELATED_DIST = tuple((1 + (o.dt_bins == 0 and o[:2] != o[2:4])) / 64 for o in OUTCOMES)

# Per class: 2 v (1 - v), its traversals, and the probability that its
# target and its leak branch are decoded as the class itself: the branch
# times the one-hot of OUTCOME_VERDICT, on the diagonal, summed in outcome order.
_DIAGONAL = [
    (2.0 * v * (1.0 - v), *LOOP_TRAVERSALS[k],
     *(sum((p for p, c in zip(d, OUTCOME_VERDICT) if c == k), 0.0) for d in BRANCH_OUTCOMES[k]))
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
