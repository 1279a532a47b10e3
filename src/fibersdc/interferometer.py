"""Linear-optics analyzer that resolves all four Bell classes.

The physical device routes both photons of an entangled pair through a
polarization-splitting interferometer with two fiber delay loops (a short
one and a long one of exactly twice the length), then recombines them so
that each Bell class maps to a disjoint signature in which detectors fire
and with what arrival-time difference.  Detection works in time bins of
one short delay, and the two-to-one loop ratio is what makes a single
long traversal and a double short one land in the same bin and
interfere; both facts are fixed, built into the signatures and into
`LOOP_TRAVERSALS`, so no delay or resolution is a setting.  One fiber
coupler stage, `beamsplitter`, is modeled structurally as a single-photon
unitary applied to both photons of a pair state.

The full analyzer is modeled as a canonical unitary map (`evolve_bsm`)
from the Bell basis to four fixed, mutually orthogonal target signatures,
rather than as a literal composition of optical elements.  Each Bell class
interferes along two path families whose relative phase is a monomial in
the per-traversal loop phases, so detuning the loops away from the
calibration point moves amplitude from a class's target signature into a
fixed orthogonal leak vector.  The map stays exactly unitary at every
phase setting, reduces to the four calibrated signatures when both phase
offsets vanish, and leaks into ambiguous or wrong-class signatures in a
way that reproduces measured confusion rates (see `CAL_DEPTH`).

`evolve_bsm` and `measurement_distribution` are the reference oracle and
the golden-file contract; no hot path calls them.  Because each class
leaks into a vector whose outcomes are disjoint from its target's, its
outcome distribution at loop phases (phi0, phi1) is the closed-form
mixture

    (1 - w) * T_k + w * L_k,    w = 2 v (1 - v) (1 - cos theta_k),

with T_k and L_k the outcome distributions of the target and leak
vectors, v = CAL_DEPTH[k] and theta_k the phase of the class's path-family
monomial.  `kernel_distribution` and `kernel_verdicts` evaluate that
kernel on whole arrays of phases from tables built once, at import, from
the states below; the event sampler and the calibration sweep use it.
"""

from __future__ import annotations

import cmath
import math
from importlib import resources
from typing import NamedTuple

import numpy as np

from .configs import InterferometerConfig
from .errors import StateError
from .states import (
    BELL_ORDER,
    H,
    OUTPUT_PORTS,
    POLARIZATIONS,
    V,
    BellState,
    PhotonMode,
    TwoPhotonState,
    apply_single_photon_map,
    make_bell,
    overlap,
    parse_state,
)

_SQ2 = math.sqrt(2.0)
_R2 = 1.0 / _SQ2
_R8 = 1.0 / math.sqrt(8.0)


# ---------------------------------------------------------------------------
# structural single-photon elements
# ---------------------------------------------------------------------------


# (input port, polarization) -> its (output port, amplitude) images
_COUPLER = {
    ("0", H): (("2", _R2), ("3", 1j * _R2)),
    ("1", H): (("2", 1j * _R2), ("3", _R2)),
    ("0", V): (("2", -1j * _R2), ("3", _R2)),
    ("1", V): (("2", _R2), ("3", -1j * _R2)),
}


def beamsplitter(state: TwoPhotonState) -> TwoPhotonState:
    """50/50 fiber coupler acting on both polarizations, from input ports
    0 and 1 (in0, in1) to output ports 2 and 3 (out0, out1).

    The H coupler is the usual symmetric one,

        H at in0 -> (H at out0 + i H at out1) / sqrt(2)
        H at in1 -> (i H at out0 + H at out1) / sqrt(2)

    and the V coupler is its conjugate with the input roles crossed,

        V at in0 -> (-i V at out0 + V at out1) / sqrt(2)
        V at in1 -> (V at out0 - i V at out1) / sqrt(2)

    With this pairing the antisymmetric polarization singlet is the one
    class that anti-bunches, while both symmetric parallel-polarization
    classes bunch with identical output statistics, which is exactly the
    partial distinguishability a polarization-blind coupler provides.
    """

    def images(m):
        outputs = _COUPLER.get((m.port, m.pol))
        if outputs is None:
            return [(m, 1.0)]
        return [(PhotonMode(port, m.pol, m.t), c) for port, c in outputs]

    return apply_single_photon_map(state, images)


# ---------------------------------------------------------------------------
# detection outcomes and classification
# ---------------------------------------------------------------------------


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


def classify(outcome: DetectionOutcome) -> BellState | None:
    """Map a detection signature to its Bell class, or None if ambiguous.

    Simultaneous clicks on one port with crossed polarizations identify
    PHI_PLUS; simultaneous clicks on both ports with equal polarizations
    identify PHI_MINUS; a one-bin separation across ports identifies
    PSI_PLUS; a two-bin separation with crossed polarizations identifies
    PSI_MINUS.  Everything else is ambiguous and gets discarded or counted
    as an erasure by the layers above.
    """
    if outcome.dt_bins == 0 and outcome.same_port() and not outcome.same_pol():
        return BellState.PHI_PLUS
    if outcome.dt_bins == 0 and not outcome.same_port() and outcome.same_pol():
        return BellState.PHI_MINUS
    if outcome.dt_bins == 1 and not outcome.same_port():
        return BellState.PSI_PLUS
    if outcome.dt_bins == 2 and not outcome.same_pol():
        return BellState.PSI_MINUS
    return None


VERDICT_AMBIGUOUS = "ambiguous"


def verdict_label(verdict: BellState | None) -> str:
    return VERDICT_AMBIGUOUS if verdict is None else verdict.label


# ---------------------------------------------------------------------------
# the analyzer map
# ---------------------------------------------------------------------------

_A, _B = "A", "B"


def _target_states() -> dict[BellState, TwoPhotonState]:
    """Calibrated output signature for each Bell class.

    PHI_PLUS: both photons on one port, simultaneous, crossed polarization.
    PHI_MINUS: one photon per port, simultaneous, equal polarization.
    PSI_PLUS: one photon per port, one bin apart (eight coherent terms).
    PSI_MINUS: two bins apart, crossed polarization, with the cross-port
    terms in quadrature.
    """
    t = {}
    t[BellState.PHI_PLUS] = TwoPhotonState([
        (((_A, H, 0), (_A, V, 0)), _R2),
        (((_B, H, 0), (_B, V, 0)), _R2),
    ])
    t[BellState.PHI_MINUS] = TwoPhotonState([
        (((_A, H, 0), (_B, H, 0)), _R2),
        (((_A, V, 0), (_B, V, 0)), -_R2),
    ])
    t[BellState.PSI_PLUS] = TwoPhotonState([
        (((_A, H, 0), (_B, H, 1)), _R8),
        (((_A, H, 1), (_B, H, 0)), _R8),
        (((_A, V, 0), (_B, V, 1)), _R8),
        (((_A, V, 1), (_B, V, 0)), _R8),
        (((_A, H, 0), (_B, V, 1)), _R8),
        (((_A, H, 1), (_B, V, 0)), -_R8),
        (((_A, V, 0), (_B, H, 1)), _R8),
        (((_A, V, 1), (_B, H, 0)), -_R8),
    ])
    t[BellState.PSI_MINUS] = TwoPhotonState([
        (((_A, H, 0), (_A, V, 2)), _R8),
        (((_A, H, 2), (_A, V, 0)), _R8),
        (((_B, H, 0), (_B, V, 2)), -_R8),
        (((_B, H, 2), (_B, V, 0)), -_R8),
        (((_A, H, 0), (_B, V, 2)), 1j * _R8),
        (((_A, H, 2), (_B, V, 0)), -1j * _R8),
        (((_A, V, 0), (_B, H, 2)), 1j * _R8),
        (((_A, V, 2), (_B, H, 0)), -1j * _R8),
    ])
    return t


# Fraction of the PSI_PLUS leak (in probability) that lands in the
# PHI_MINUS signature zone instead of ambiguous time bins.  Fitted, with
# CAL_DEPTH below, to reproduce bench confusion rates.
LEAK_TO_PHI_MINUS = 0.4245


def _leak_states() -> dict[BellState, TwoPhotonState]:
    """Unit leak vector per class: where amplitude goes when detuned.

    Each leak vector is orthogonal to every calibrated target and to every
    other leak vector, which is what keeps the full map unitary.  The
    PHI_PLUS, PHI_MINUS and PSI_MINUS leaks sit entirely in ambiguous
    time-bin patterns.  The PSI_PLUS leak splits: a fixed fraction lands
    on the simultaneous equal-polarization pattern that classifies as
    PHI_MINUS (but on the vector orthogonal to the PHI_MINUS target, so
    orthogonality survives), and the rest is ambiguous.
    """
    wa = math.sqrt(LEAK_TO_PHI_MINUS)
    wr = math.sqrt(1.0 - LEAK_TO_PHI_MINUS)
    leak = {}
    leak[BellState.PHI_PLUS] = TwoPhotonState([
        (((_A, H, 0), (_A, V, 1)), _R2),
        (((_B, H, 0), (_B, V, 1)), _R2),
    ])
    leak[BellState.PHI_MINUS] = TwoPhotonState([
        (((_A, H, 1), (_A, V, 0)), _R2),
        (((_B, H, 1), (_B, V, 0)), _R2),
    ])
    leak[BellState.PSI_MINUS] = TwoPhotonState([
        (((_A, H, 0), (_B, H, 2)), _R2),
        (((_A, V, 0), (_B, V, 2)), _R2),
    ])
    leak[BellState.PSI_PLUS] = TwoPhotonState([
        (((_A, H, 0), (_B, H, 0)), wa * _R2),
        (((_A, V, 0), (_B, V, 0)), wa * _R2),
        (((_A, H, 0), (_A, H, 1)), wr * 0.5),
        (((_A, V, 0), (_A, V, 1)), wr * 0.5),
        (((_B, H, 0), (_B, H, 1)), wr * 0.5),
        (((_B, V, 0), (_B, V, 1)), wr * 0.5),
    ])
    return leak


TARGET_STATES = _target_states()
LEAK_STATES = _leak_states()

# Interference depth per class, indexed like BELL_ORDER: the detuned
# fraction of the class amplitude that rides the phase-dependent path
# family.  At depth v the worst-case probability remaining on the
# calibrated signature is (1-2v)^2.  Fitted jointly with LEAK_TO_PHI_MINUS
# to bench confusion rates; PHI_MINUS and PSI_PLUS traverse path pairs
# that nearly share loops and so are the least sensitive.
CAL_DEPTH = np.array([0.0644, 0.2031, 0.2359, 0.0643])


# Net loop traversals (short, long), indexed like BELL_ORDER, separating
# the two interfering path families of each class: both loops twice for
# PHI_MINUS, the short loop twice for PHI_PLUS and PSI_MINUS, the long
# loop twice for PSI_PLUS.
LOOP_TRAVERSALS = np.array([(2, 2), (2, 0), (2, 0), (0, 2)], dtype=float)


def _phase_monomial(which: BellState, alpha: complex, beta: complex) -> complex:
    """Relative phase between the two interfering path families.

    alpha and beta are the per-traversal phase factors of the short and
    long loop, raised to the class's `LOOP_TRAVERSALS`.
    """
    short, long = LOOP_TRAVERSALS[which.index].tolist()
    return alpha**short * beta**long


def evolve_bsm(state: TwoPhotonState, config: InterferometerConfig) -> TwoPhotonState:
    """Run a source pair through the analyzer.

    The input must hold one photon on each source port, both in time bin
    0.  The state is decomposed in the Bell basis; each component k with
    depth v = CAL_DEPTH[k] and path-family phase m produces

        ((1-v) + v*m) * target_k  +  sqrt(v(1-v)) * (1-m) * leak_k.

    Because |(1-v)+v*m|^2 + v(1-v)|1-m|^2 == 1 for any unimodular m, the
    map is exactly unitary at every phase setting, and at m == 1 (both
    offsets zero) it returns the calibrated signatures untouched.
    """
    for (m1, m2), _ in state.items():
        ports = sorted((m1.port, m2.port))
        if ports != ["0", "1"] or m1.t != 0 or m2.t != 0:
            raise StateError(
                "analyzer input must have one photon on each source port in time bin 0"
            )
    alpha = cmath.exp(1j * config.phi0_rad)
    beta = cmath.exp(1j * config.phi1_rad)
    out = TwoPhotonState()
    for which in BELL_ORDER:
        c = overlap(make_bell(which), state)
        if abs(c) < 1e-15:
            continue
        v = CAL_DEPTH.item(which.index)
        u = 1.0 - v
        m = _phase_monomial(which, alpha, beta)
        f = u + v * m
        g = math.sqrt(u * v) * (1.0 - m)
        out = out.added(TARGET_STATES[which].scaled(c * f))
        if abs(g) > 0.0:
            out = out.added(LEAK_STATES[which].scaled(c * g))
    return out


def measurement_distribution(state: TwoPhotonState) -> dict[DetectionOutcome, float]:
    """Detector statistics of a two-photon state.

    Detectors see arrival-time differences, not absolute emission time, so
    pairs that differ only by a rigid time translation interfere: each
    pair is shifted so its earlier photon sits in bin 0, amplitudes are
    summed coherently within the resulting class, and the squared
    magnitude is the outcome probability.
    """
    if abs(state.norm() - 1.0) > 1e-6:
        raise StateError("measurement_distribution expects a normalized state")

    def shifted(m1, m2):
        shift = min(m1.t, m2.t)
        return m1._replace(t=m1.t - shift), m2._replace(t=m2.t - shift)

    # A reduced pair and its outcome determine each other, so the outcome
    # probabilities need no second sum.
    reduced = TwoPhotonState((shifted(m1, m2), a) for (m1, m2), a in state.items())
    dist: dict[DetectionOutcome, float] = {}
    for (m1, m2), a in reduced.items():
        p = abs(a) ** 2
        if p >= 1e-15:
            dist[DetectionOutcome.from_modes(m1, m2)] = p
    return dist


def verdict_distribution(
    which: BellState, config: InterferometerConfig
) -> dict[BellState | None, float]:
    """Probability of each verdict when a given Bell class enters the
    analyzer at the configured phase offsets.  Pure device model, no
    source noise or accidentals."""
    dist = measurement_distribution(evolve_bsm(make_bell(which), config))
    out: dict[BellState | None, float] = {}
    for outcome, p in dist.items():
        v = classify(outcome)
        out[v] = out.get(v, 0.0) + p
    return out


# ---------------------------------------------------------------------------
# closed-form kernel
# ---------------------------------------------------------------------------

COINCIDENCE_BINS = range(4)
"""Time-bin separations the coincidence window resolves."""


# Every ordered pair of detector clicks in the coincidence window; two
# uncorrelated clicks land on each with equal probability.
_DETECTORS = [(port, pol) for port in OUTPUT_PORTS for pol in POLARIZATIONS]
_CLICK_PAIRS = [
    DetectionOutcome.from_modes(PhotonMode(*a, 0), PhotonMode(*b, dt))
    for dt in COINCIDENCE_BINS
    for a in _DETECTORS
    for b in _DETECTORS
]

OUTCOMES = tuple(sorted(set(_CLICK_PAIRS)))
"""Every signature the detectors can report, in sorted order."""

OUTCOME_INDEX = {o: i for i, o in enumerate(OUTCOMES)}

VERDICTS = (*BELL_ORDER, None)
"""Verdict order of the kernel tables: the four classes, then ambiguous."""


OUTCOME_VERDICT = np.array([VERDICTS.index(classify(o)) for o in OUTCOMES])
"""Index into VERDICTS of each outcome's verdict."""

UNCORRELATED_DIST = np.bincount(
    [OUTCOME_INDEX[o] for o in _CLICK_PAIRS],
    weights=np.full(len(_CLICK_PAIRS), 1.0 / len(_CLICK_PAIRS)),
    minlength=len(OUTCOMES),
)
"""Outcome distribution of two uncorrelated clicks (an accidental)."""


def _branch(state: TwoPhotonState) -> np.ndarray:
    dist = measurement_distribution(state)
    return np.bincount(
        [OUTCOME_INDEX[o] for o in dist], weights=list(dist.values()), minlength=len(OUTCOMES)
    )


BRANCH_OUTCOMES = np.array(
    [[_branch(TARGET_STATES[b]), _branch(LEAK_STATES[b])] for b in BELL_ORDER]
)
"""Shape (4, 2, len(OUTCOMES)): T_k and L_k, the outcome distributions of
class k's target (branch 0) and leak (branch 1) vectors.  Their supports
are disjoint, so they mix without interference."""

BRANCH_VERDICTS = np.array(
    [
        [np.bincount(OUTCOME_VERDICT, weights=dist, minlength=len(VERDICTS)) for dist in pair]
        for pair in BRANCH_OUTCOMES
    ]
)
"""The same two distributions per class over VERDICTS."""

def leak_weight(which, phi0, phi1):
    """Probability that class `which` leaves its target signature at loop
    phases (phi0, phi1): 2 v (1 - v) (1 - cos theta).

    `which` indexes BELL_ORDER; it and the phases may be scalars or arrays
    that broadcast together.  theta is the phase of `_phase_monomial`.
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


def load_reference_outputs() -> dict[BellState, TwoPhotonState]:
    """Bundled calibrated output signatures, parsed from the data file.

    The file is the golden record: tests compare `evolve_bsm` at zero
    offsets against it bit-exactly (after phase alignment).
    """
    text = (
        resources.files("fibersdc.data")
        .joinpath("bell_outputs_calibrated.txt")
        .read_text(encoding="utf-8")
    )
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = sections.setdefault(stripped[1:-1], [])
        elif current is not None:
            current.append(line)
    return {BellState(label): parse_state(lines) for label, lines in sections.items()}
