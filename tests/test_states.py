import math

import numpy as np
import pytest

from fibersdc.errors import StateError
from fibersdc.kernel import BELL_ORDER, DIBIT_TO_BELL, BellState
from fibersdc.states import (
    PhotonMode,
    TwoPhotonState,
    align_global_phase,
    apply_pauli,
    dump_state,
    encode_dibit,
    make_bell,
    overlap,
    pair_key,
    parse_state,
    state_fidelity,
)

R2 = 1.0 / math.sqrt(2.0)


def _vector_of(state):
    """Amplitudes over the (pol0, pol1) computational basis, as a 4-vector.

    Only valid for one photon on port 0 and one on port 1, both in bin 0;
    used to compare against plain matrix algebra.
    """
    vec = np.zeros(4, dtype=complex)
    for i, p0 in enumerate("HV"):
        for j, p1 in enumerate("HV"):
            vec[2 * i + j] = state.amplitude(
                PhotonMode("0", p0, 0), PhotonMode("1", p1, 0)
            )
    return vec


def _state_of(vec):
    amp = {}
    for i, p0 in enumerate("HV"):
        for j, p1 in enumerate("HV"):
            amp[(PhotonMode("0", p0, 0), PhotonMode("1", p1, 0))] = vec[2 * i + j]
    return TwoPhotonState(amp.items())


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I = np.eye(2, dtype=complex)


def test_bell_states_orthonormal():
    for a in BELL_ORDER:
        for b in BELL_ORDER:
            got = overlap(make_bell(a), make_bell(b))
            want = 1.0 if a is b else 0.0
            assert abs(got - want) < 1e-12


def test_bell_amplitudes_explicit():
    phi_plus = make_bell(BellState.PHI_PLUS)
    assert phi_plus.amplitude(PhotonMode("0", "H", 0), PhotonMode("1", "H", 0)) == pytest.approx(R2)
    assert phi_plus.amplitude(PhotonMode("0", "V", 0), PhotonMode("1", "V", 0)) == pytest.approx(R2)
    psi_minus = make_bell(BellState.PSI_MINUS)
    assert psi_minus.amplitude(PhotonMode("0", "H", 0), PhotonMode("1", "V", 0)) == pytest.approx(R2)
    assert psi_minus.amplitude(PhotonMode("0", "V", 0), PhotonMode("1", "H", 0)) == pytest.approx(-R2)


@pytest.mark.parametrize("gate,matrix", [("I", _I), ("X", _X), ("Z", _Z)])
@pytest.mark.parametrize("port,kron_side", [("0", "left"), ("1", "right")])
def test_apply_pauli_matches_matrix_algebra(gate, matrix, port, kron_side):
    big = np.kron(matrix, _I) if kron_side == "left" else np.kron(_I, matrix)
    rng = np.random.default_rng(7)
    for _ in range(5):
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        got = _vector_of(apply_pauli(_state_of(vec), gate, port))
        np.testing.assert_allclose(got, big @ vec, atol=1e-12)


def test_apply_pauli_on_two_photons_in_one_port():
    h1, v1 = PhotonMode("1", "H", 0), PhotonMode("1", "V", 0)
    out = apply_pauli(TwoPhotonState([((h1, h1), 1.0)]), "X", "1")
    assert len(out) == 1
    assert out.amplitude(v1, v1) == pytest.approx(1.0, abs=1e-12)


def test_apply_pauli_rejects_unknown_gate():
    with pytest.raises(StateError):
        apply_pauli(make_bell(BellState.PHI_PLUS), "Y", "1")


def test_encode_dibit_reaches_all_four_classes():
    for dibit, bell in DIBIT_TO_BELL.items():
        encoded = encode_dibit(dibit)
        assert state_fidelity(encoded, make_bell(bell)) == pytest.approx(1.0, abs=1e-12)


def test_encode_dibit_three_is_singlet_up_to_sign():
    # X then Z on the second photon turns PHI_PLUS into minus the singlet
    got = overlap(make_bell(BellState.PSI_MINUS), encode_dibit(3))
    assert got == pytest.approx(-1.0, abs=1e-12)


def test_encode_dibit_range():
    with pytest.raises(StateError):
        encode_dibit(4)


def test_pair_key_is_unordered():
    m1 = PhotonMode("B", "V", 2)
    m2 = PhotonMode("A", "H", 0)
    assert pair_key(m1, m2) == pair_key(m2, m1)
    state = TwoPhotonState([((m1, m2), 0.5), ((m2, m1), 0.5)])
    assert state.amplitude(m1, m2) == pytest.approx(1.0)


def test_norm_and_scaling():
    state = make_bell(BellState.PHI_MINUS)
    assert state.norm() == pytest.approx(1.0)
    assert state.scaled(2.0).norm() == pytest.approx(2.0)
    doubled = state.added(state)
    assert doubled.norm() == pytest.approx(2.0)


def test_fidelity_properties(rng):
    for _ in range(10):
        va = rng.normal(size=4) + 1j * rng.normal(size=4)
        vb = rng.normal(size=4) + 1j * rng.normal(size=4)
        va /= np.linalg.norm(va)
        vb /= np.linalg.norm(vb)
        a, b = _state_of(va), _state_of(vb)
        f = state_fidelity(a, b)
        assert 0.0 <= f <= 1.0 + 1e-12
        assert state_fidelity(a, a) == pytest.approx(1.0)
        assert f == pytest.approx(state_fidelity(b, a))
    assert state_fidelity(
        make_bell(BellState.PHI_PLUS), make_bell(BellState.PSI_PLUS)
    ) == pytest.approx(0.0, abs=1e-12)
    # Either order of a larger and a smaller state is the plain inner product.
    bell = make_bell(BellState.PHI_PLUS)
    assert len(a) > len(bell)
    assert overlap(a, bell) == pytest.approx(np.vdot(va, _vector_of(bell)))
    assert overlap(bell, a) == pytest.approx(np.vdot(_vector_of(bell), va))


def test_dump_parse_roundtrip(rng):
    for _ in range(5):
        amp = {}
        for _ in range(6):
            m1 = PhotonMode(rng.choice(["A", "B"]), rng.choice(["H", "V"]), int(rng.integers(0, 4)))
            m2 = PhotonMode(rng.choice(["A", "B"]), rng.choice(["H", "V"]), int(rng.integers(0, 4)))
            amp[(m1, m2)] = complex(rng.normal(), rng.normal())
        state = TwoPhotonState(amp.items())
        again = parse_state(dump_state(state))
        assert dump_state(again) == dump_state(state)
        assert abs(overlap(state, again) - state.norm() ** 2) < 1e-9


def test_dump_is_sorted_and_stable():
    state = make_bell(BellState.PHI_PLUS)
    text = dump_state(state)
    assert text.splitlines() == sorted(text.splitlines())
    assert dump_state(parse_state(text)) == text


@pytest.mark.parametrize(
    "line",
    [
        "A,H,0,B,V",  # too few fields
        "A,H,0,B,V,0,1.0",  # seven fields
        "A,Q,0,B,V,0,1.0,0.0",  # bad polarization
        "A,H,-1,B,V,0,1.0,0.0",  # negative bin
        "A,H,zero,B,V,0,1.0,0.0",  # bad int
        "A,H,0,B,V,0,one,0.0",  # bad float
    ],
)
def test_parse_rejects_malformed(line):
    with pytest.raises(StateError):
        parse_state(line)


def test_parse_skips_comments_and_blanks():
    text = "# comment\n\n0,H,0,1,H,0,0.707106781187,0.0\n0,V,0,1,V,0,-0.707106781187,0.0\n"
    state = parse_state(text)
    assert state_fidelity(state, make_bell(BellState.PHI_MINUS)) == pytest.approx(1.0)


def test_align_global_phase_removes_rotation(rng):
    state = make_bell(BellState.PSI_PLUS)
    rotated = state.scaled(np.exp(1j * 1.234))
    assert dump_state(align_global_phase(rotated)) == dump_state(align_global_phase(state))
    # aligning twice changes nothing
    once = align_global_phase(rotated)
    assert dump_state(align_global_phase(once)) == dump_state(once)
