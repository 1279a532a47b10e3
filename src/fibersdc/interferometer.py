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
the golden-file contract; no command loads this module.  The commands
run the closed-form kernel of `fibersdc.kernel` instead, whose stored
tables the tests rebuild from the states below.
"""

from __future__ import annotations

import cmath
import math
import os

from .configs import InterferometerConfig
from .errors import StateError
from .kernel import BELL_ORDER, CAL_DEPTH, LOOP_TRAVERSALS, BellState, DetectionOutcome
from .states import (
    H,
    V,
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
# CAL_DEPTH, to reproduce bench confusion rates.
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


def _phase_monomial(which: BellState, alpha: complex, beta: complex) -> complex:
    """Relative phase between the two interfering path families.

    alpha and beta are the per-traversal phase factors of the short and
    long loop, raised to the class's `LOOP_TRAVERSALS`.
    """
    short, long = LOOP_TRAVERSALS[which.index]
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
        v = CAL_DEPTH[which.index]
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


def load_reference_outputs() -> dict[BellState, TwoPhotonState]:
    """Bundled calibrated output signatures, parsed from the data file.

    The file is the golden record: tests compare `evolve_bsm` at zero
    offsets against it bit-exactly (after phase alignment).
    """
    path = os.path.join(os.path.dirname(__file__), "data", "bell_outputs_calibrated.txt")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = sections.setdefault(stripped[1:-1], [])
        elif current is not None:
            current.append(line)
    return {BellState(label): parse_state(lines) for label, lines in sections.items()}
