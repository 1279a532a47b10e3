"""Two-photon polarization/time-bin states: the analyzer's reference algebra.

A photon mode is a (port, polarization, time_bin) triple.  Ports are short
strings ("0" and "1" at the source, "A" and "B" at the analyzer outputs),
polarization is "H" or "V", and the time bin is a small non-negative
integer counting short-delay quanta relative to the undelayed arrival.

A two-photon state is stored as a map from an unordered mode pair to a
complex amplitude.  The pair (m1, m2) and (m2, m1) are the same key; keys
are kept sorted.  A pair with both photons in the same mode is allowed by
the container (it shows up mid-pipeline in bunched configurations) and is
normalized so that the squared magnitudes of the stored amplitudes sum to
one for a normalized state.

The Bell classes and the dibit maps live in `fibersdc.kernel`, which the
commands load without this module.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple

from . import kernel
from .errors import StateError

# The kernel's objects; tests/test_acceptance.py imports both from here.
BellState = kernel.BellState
BELL_ORDER = kernel.BELL_ORDER

H = "H"
V = "V"
POLARIZATIONS = (H, V)

OUTPUT_PORTS = ("A", "B")

_PRUNE_TOL = 1e-12
_SQ2 = math.sqrt(2.0)


class PhotonMode(NamedTuple):
    port: str
    pol: str
    t: int


def pair_key(m1: PhotonMode, m2: PhotonMode) -> tuple[PhotonMode, PhotonMode]:
    """Canonical (sorted) form of an unordered mode pair."""
    a = PhotonMode(*m1)
    b = PhotonMode(*m2)
    return (a, b) if a <= b else (b, a)


class TwoPhotonState:
    """Immutable-by-convention container of pair amplitudes, built from
    ((m1, m2), amplitude) terms; terms on one unordered pair add up."""

    __slots__ = ("_amp",)

    def __init__(self, terms: Iterable = ()):
        amp: dict[tuple[PhotonMode, PhotonMode], complex] = {}
        for (m1, m2), a in terms:
            k = pair_key(m1, m2)
            amp[k] = amp.get(k, 0.0) + complex(a)
        self._amp = {k: a for k, a in amp.items() if abs(a) > _PRUNE_TOL}

    def items(self) -> Iterator[tuple[tuple[PhotonMode, PhotonMode], complex]]:
        return iter(sorted(self._amp.items()))

    def amplitude(self, m1: PhotonMode, m2: PhotonMode) -> complex:
        return self._amp.get(pair_key(m1, m2), 0.0 + 0.0j)

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self._amp.values()))

    def scaled(self, c: complex) -> "TwoPhotonState":
        return TwoPhotonState((k, a * c) for k, a in self._amp.items())

    def added(self, other: "TwoPhotonState") -> "TwoPhotonState":
        return TwoPhotonState(chain(self._amp.items(), other._amp.items()))

    def __len__(self) -> int:
        return len(self._amp)

    def __repr__(self) -> str:
        terms = ", ".join(
            f"{m1.port}{m1.pol}{m1.t}|{m2.port}{m2.pol}{m2.t}:{a:.3g}"
            for (m1, m2), a in list(self.items())[:6]
        )
        more = "" if len(self._amp) <= 6 else f", +{len(self._amp) - 6} more"
        return f"TwoPhotonState({terms}{more})"


def overlap(a: TwoPhotonState, b: TwoPhotonState) -> complex:
    """Inner product <a|b> over the unordered-pair amplitude maps."""
    if len(a._amp) > len(b._amp):
        return complex(overlap(b, a).conjugate())
    return sum(x.conjugate() * b._amp.get(k, 0.0) for k, x in a._amp.items())


def state_fidelity(a: TwoPhotonState, b: TwoPhotonState) -> float:
    """|<a|b>|^2, insensitive to global phase."""
    return abs(overlap(a, b)) ** 2


def align_global_phase(state: TwoPhotonState) -> TwoPhotonState:
    """Rotate the global phase so the first (canonically sorted) amplitude
    with magnitude above 1e-9 is real and positive.  Used when comparing
    against reference states where only the ray matters."""
    for _, a in state.items():
        if abs(a) > 1e-9:
            return state.scaled(abs(a) / a)
    return state


def make_bell(which: BellState) -> TwoPhotonState:
    """Bell state on the two source ports, both photons in time bin 0."""
    r = 1.0 / _SQ2
    h0 = PhotonMode("0", H, 0)
    v0 = PhotonMode("0", V, 0)
    h1 = PhotonMode("1", H, 0)
    v1 = PhotonMode("1", V, 0)
    if which is BellState.PHI_PLUS:
        data = {(h0, h1): r, (v0, v1): r}
    elif which is BellState.PHI_MINUS:
        data = {(h0, h1): r, (v0, v1): -r}
    elif which is BellState.PSI_PLUS:
        data = {(h0, v1): r, (v0, h1): r}
    else:
        data = {(h0, v1): r, (v0, h1): -r}
    return TwoPhotonState(data.items())


def apply_single_photon_map(state: TwoPhotonState, images: Callable) -> TwoPhotonState:
    """Apply a single-photon linear map to both photons of each pair.

    `images(mode)` lists the (mode, amplitude) images of one photon.  Pair
    amplitudes are converted to creation-operator coefficients (a factor
    1/sqrt(2) on doubly occupied modes), transformed photon by photon, and
    converted back, so bunched terms keep the right normalization.
    """

    def terms():
        for (m1, m2), amp in state.items():
            coeff = amp / _SQ2 if m1 == m2 else amp
            for n1, c1 in images(m1):
                for n2, c2 in images(m2):
                    c = coeff * c1 * c2
                    yield (n1, n2), c * _SQ2 if n1 == n2 else c

    return TwoPhotonState(terms())


def apply_pauli(state: TwoPhotonState, gate: str, port: str) -> TwoPhotonState:
    """Apply a polarization Pauli gate to every photon in the given port.

    "I" leaves the state alone, "X" swaps H and V, "Z" multiplies each V
    photon's amplitude by -1.
    """
    if gate == "I":
        return state
    if gate not in ("X", "Z"):
        raise StateError(f"unknown gate {gate!r}, expected I, X or Z")

    def images(m):
        if m.port != port:
            return [(m, 1.0)]
        if gate == "X":
            return [(m._replace(pol=V if m.pol == H else H), 1.0)]
        return [(m, -1.0 if m.pol == V else 1.0)]

    return apply_single_photon_map(state, images)


# Dibit encoding on the second source port, into the classes of
# `kernel.DIBIT_TO_BELL`.  Gates are listed in the order they are applied.
# Since X and Z anticommute, 3 produces PSI_MINUS only up to a global sign,
# which no measurement can see.
DIBIT_GATES = {0: (), 1: ("Z",), 2: ("X",), 3: ("X", "Z")}

ENCODING_PORT = "1"


def encode_dibit(dibit: int) -> TwoPhotonState:
    """Encode two classical bits by local gates on one photon of PHI_PLUS."""
    if dibit not in DIBIT_GATES:
        raise StateError(f"dibit must be 0..3, got {dibit!r}")
    state = make_bell(BellState.PHI_PLUS)
    for gate in DIBIT_GATES[dibit]:
        state = apply_pauli(state, gate, ENCODING_PORT)
    return state


def _fmt(x: float) -> str:
    if abs(x) < 5e-13:
        x = 0.0
    return f"{x:.12f}"


def dump_state(state: TwoPhotonState) -> str:
    """Serialize to the line format `port,pol,t,port,pol,t,re,im`.

    Lines are sorted by canonical pair key and amplitudes are printed with
    twelve decimals, so equal states serialize to equal text.
    """
    lines = []
    for (m1, m2), a in state.items():
        lines.append(
            ",".join(
                [m1.port, m1.pol, str(m1.t), m2.port, m2.pol, str(m2.t), _fmt(a.real), _fmt(a.imag)]
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_state(text: str | Iterable[str]) -> TwoPhotonState:
    """Inverse of dump_state.  Blank lines and `#` comments are ignored."""
    lines = text.splitlines() if isinstance(text, str) else list(text)
    terms = []
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 8:
            raise StateError(f"bad state line (need 8 fields): {raw!r}")
        try:
            m1 = PhotonMode(parts[0], parts[1], int(parts[2]))
            m2 = PhotonMode(parts[3], parts[4], int(parts[5]))
            a = complex(float(parts[6]), float(parts[7]))
        except ValueError as exc:
            raise StateError(f"bad state line: {raw!r}") from exc
        for m in (m1, m2):
            if m.pol not in POLARIZATIONS:
                raise StateError(f"bad polarization in line: {raw!r}")
            if m.t < 0:
                raise StateError(f"negative time bin in line: {raw!r}")
        terms.append(((m1, m2), a))
    return TwoPhotonState(terms)
