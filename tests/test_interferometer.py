import functools
import math
from importlib import resources

import numpy as np
import pytest

from conftest import kernel_mixture

from fibersdc.errors import StateError
from fibersdc import interferometer, kernel, states
from fibersdc.interferometer import (
    LEAK_STATES,
    TARGET_STATES,
    InterferometerConfig,
    beamsplitter,
    classify,
    evolve_bsm,
    measurement_distribution,
    verdict_distribution,
)
from fibersdc.kernel import (
    BELL_ORDER,
    BRANCH_OUTCOMES,
    OUTCOME_VERDICT,
    OUTCOMES,
    VERDICTS,
    BellState,
    DetectionOutcome,
    leak_weight,
    mean_diagonal,
)
from fibersdc.states import (
    OUTPUT_PORTS,
    POLARIZATIONS,
    PhotonMode,
    TwoPhotonState,
    make_bell,
    overlap,
)

R2 = 1.0 / math.sqrt(2.0)


def _mix(coeffs):
    out = TwoPhotonState()
    for c, b in zip(coeffs, BELL_ORDER):
        out = out.added(make_bell(b).scaled(c))
    return out


def _random_bell_mix(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return _mix(v / np.linalg.norm(v))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_defaults_valid():
    cfg = InterferometerConfig()
    assert (cfg.phi0_rad, cfg.phi1_rad) == (0.0, 0.0)  # the calibration point
    assert cfg.with_phases(0.5, 1.5) == InterferometerConfig(0.5, 1.5)


# ---------------------------------------------------------------------------
# structural elements
# ---------------------------------------------------------------------------


def _pair(a, b):
    """The modes of two photons in bin 0, each named port then pol: "2H"."""
    return PhotonMode(a[0], a[1], 0), PhotonMode(b[0], b[1], 0)


# Hand-expanded coupler images, with the H arms on the symmetric coupler
# and the V arms on its conjugate, input-crossed.  The parallel-polarization
# Bell classes bunch into the same four outcomes with equal weight, the
# symmetric crossed class bunches per port, and the singlet anti-bunches.
# With both photons in one input port, the doubly occupied input and the
# bunched outputs carry the sqrt(2) between pair amplitudes and
# creation-operator coefficients.
BEAMSPLITTER_IMAGES = {
    "PHI_PLUS": (make_bell(BellState.PHI_PLUS),
                 {("2H", "2H"): 0.5j, ("3H", "3H"): 0.5j, ("2V", "2V"): -0.5j, ("3V", "3V"): -0.5j}),
    "PHI_MINUS": (make_bell(BellState.PHI_MINUS),
                  {("2H", "2H"): 0.5j, ("3H", "3H"): 0.5j, ("2V", "2V"): 0.5j, ("3V", "3V"): 0.5j}),
    "PSI_PLUS": (make_bell(BellState.PSI_PLUS), {("2H", "2V"): R2, ("3H", "3V"): R2}),
    "PSI_MINUS": (make_bell(BellState.PSI_MINUS), {("2H", "3V"): -1j * R2, ("2V", "3H"): 1j * R2}),
    "both in port 0": (TwoPhotonState([(_pair("0H", "0H"), 1.0)]),
                       {("2H", "2H"): 0.5, ("2H", "3H"): 1j * R2, ("3H", "3H"): -0.5}),
}


@pytest.mark.parametrize("state, expect", BEAMSPLITTER_IMAGES.values(), ids=BEAMSPLITTER_IMAGES)
def test_beamsplitter_image(state, expect):
    out = beamsplitter(state)
    assert len(out) == len(expect)
    for (a, b), amp in expect.items():
        assert out.amplitude(*_pair(a, b)) == pytest.approx(amp, abs=1e-12)


def test_beamsplitter_preserves_inner_products(rng):
    for _ in range(25):
        a = _random_bell_mix(rng)
        b = _random_bell_mix(rng)
        before = overlap(a, b)
        after = overlap(beamsplitter(a), beamsplitter(b))
        assert after == pytest.approx(before, abs=1e-10)
        assert beamsplitter(a).norm() == pytest.approx(a.norm(), abs=1e-10)


# ---------------------------------------------------------------------------
# the analyzer map
# ---------------------------------------------------------------------------


def test_evolve_rejects_bad_support():
    cfg = InterferometerConfig()
    both_same_port = TwoPhotonState(
        [((PhotonMode("0", "H", 0), PhotonMode("0", "V", 0)), 1.0)]
    )
    with pytest.raises(StateError):
        evolve_bsm(both_same_port, cfg)
    late = TwoPhotonState([((PhotonMode("0", "H", 1), PhotonMode("1", "V", 1)), 1.0)])
    with pytest.raises(StateError):
        evolve_bsm(late, cfg)
    wrong_ports = TwoPhotonState([((PhotonMode("A", "H", 0), PhotonMode("B", "V", 0)), 1.0)])
    with pytest.raises(StateError):
        evolve_bsm(wrong_ports, cfg)


def test_evolve_unitary_at_random_phases(rng):
    cfg = InterferometerConfig()
    worst = 0.0
    for _ in range(100):
        c = cfg.with_phases(*(rng.uniform(0, 2 * np.pi, 2)))
        mix = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        outs = [evolve_bsm(_mix(row), c) for row in mix]
        for i in range(4):
            for j in range(4):
                want = 1.0 if i == j else 0.0
                worst = max(worst, abs(overlap(outs[i], outs[j]) - want))
    assert worst < 1e-9


def test_evolve_is_linear(rng):
    cfg = InterferometerConfig().with_phases(0.4, 1.1)
    a = _random_bell_mix(rng)
    b = _random_bell_mix(rng)
    combined = evolve_bsm(a.added(b.scaled(0.5j)), cfg)
    separate = evolve_bsm(a, cfg).added(evolve_bsm(b, cfg).scaled(0.5j))
    assert abs(overlap(combined, separate) - combined.norm() ** 2) < 1e-10


# ---------------------------------------------------------------------------
# measurement statistics
# ---------------------------------------------------------------------------


def test_distribution_phi_plus_two_outcomes():
    cfg = InterferometerConfig()
    dist = measurement_distribution(evolve_bsm(make_bell(BellState.PHI_PLUS), cfg))
    want = {
        DetectionOutcome("A", "H", "A", "V", 0): 0.5,
        DetectionOutcome("B", "H", "B", "V", 0): 0.5,
    }
    assert set(dist) == set(want)
    for k, p in want.items():
        assert dist[k] == pytest.approx(p, abs=1e-12)


def test_distribution_psi_plus_eight_outcomes():
    cfg = InterferometerConfig()
    dist = measurement_distribution(evolve_bsm(make_bell(BellState.PSI_PLUS), cfg))
    assert len(dist) == 8
    for outcome, p in dist.items():
        assert p == pytest.approx(0.125, abs=1e-12)
        assert outcome.dt_bins == 1
        assert not outcome.same_port()


def test_distribution_psi_minus_two_bin_separation():
    cfg = InterferometerConfig()
    dist = measurement_distribution(evolve_bsm(make_bell(BellState.PSI_MINUS), cfg))
    assert len(dist) == 8
    for outcome, p in dist.items():
        assert p == pytest.approx(0.125, abs=1e-12)
        assert outcome.dt_bins == 2
        assert not outcome.same_pol()


def test_distribution_requires_normalized_input():
    with pytest.raises(StateError):
        measurement_distribution(make_bell(BellState.PHI_PLUS).scaled(2.0))


def test_distribution_sums_to_one_at_random_phases(rng):
    cfg = InterferometerConfig()
    for _ in range(30):
        c = cfg.with_phases(*(rng.uniform(0, 2 * np.pi, 2)))
        state = evolve_bsm(_random_bell_mix(rng), c)
        total = sum(measurement_distribution(state).values())
        assert total == pytest.approx(1.0, abs=1e-9)


def test_distribution_ignores_global_time_translation():
    cfg = InterferometerConfig()
    state = evolve_bsm(make_bell(BellState.PSI_PLUS), cfg)
    shifted = TwoPhotonState(
        ((PhotonMode(m1.port, m1.pol, m1.t + 1), PhotonMode(m2.port, m2.pol, m2.t + 1)), amp)
        for (m1, m2), amp in state.items()
    )
    a = measurement_distribution(state)
    b = measurement_distribution(shifted)
    assert set(a) == set(b)
    for k in a:
        assert a[k] == pytest.approx(b[k], abs=1e-12)


def test_diagonal_score_is_maximal_at_calibration():
    cfg = InterferometerConfig()
    def score(p0, p1):
        c = cfg.with_phases(p0, p1)
        return sum(verdict_distribution(b, c).get(b, 0.0) for b in BELL_ORDER) / 4.0
    peak = score(0.0, 0.0)
    assert peak == pytest.approx(1.0, abs=1e-12)
    for p0 in np.linspace(0, 2 * np.pi, 13, endpoint=False):
        for p1 in np.linspace(0, 2 * np.pi, 13, endpoint=False):
            assert score(float(p0), float(p1)) <= peak + 1e-12


def test_detuning_leaks_but_stays_normalized():
    cfg = InterferometerConfig().with_phases(np.pi / 2, 0.0)
    vd = verdict_distribution(BellState.PSI_MINUS, cfg)
    assert vd.get(BellState.PSI_MINUS, 0.0) < 1.0 - 1e-3
    assert vd.get(None, 0.0) > 1e-3
    assert sum(vd.values()) == pytest.approx(1.0, abs=1e-9)


def test_distributions_vary_continuously_in_phase():
    cfg = InterferometerConfig()
    eps = 1e-5
    base = verdict_distribution(BellState.PHI_PLUS, cfg.with_phases(0.7, 0.3))
    nudged = verdict_distribution(BellState.PHI_PLUS, cfg.with_phases(0.7 + eps, 0.3))
    keys = set(base) | set(nudged)
    drift = max(abs(base.get(k, 0.0) - nudged.get(k, 0.0)) for k in keys)
    assert drift < 1e-3


# ---------------------------------------------------------------------------
# closed-form kernel against the state algebra
# ---------------------------------------------------------------------------


def test_kernel_branches_are_disjoint_distributions():
    branches = np.array(BRANCH_OUTCOMES)
    assert branches.shape == (4, 2, len(OUTCOMES))
    assert np.allclose(branches.sum(axis=-1), 1.0, atol=1e-12)
    assert not np.any((branches[:, 0] > 0) & (branches[:, 1] > 0))


# Every ordered pair of detector clicks in the coincidence window, 0 to 3
# bins apart; two uncorrelated clicks land on each with equal probability.
_DETECTORS = [(port, pol) for port in OUTPUT_PORTS for pol in POLARIZATIONS]
CLICK_PAIRS = [
    DetectionOutcome.from_modes(PhotonMode(*a, 0), PhotonMode(*b, dt))
    for dt in range(4)
    for a in _DETECTORS
    for b in _DETECTORS
]


@functools.cache
def rebuild_kernel_tables() -> dict:
    """The tables `fibersdc.kernel` stores or derives, built from the state
    algebra, and the verdict table whose diagonal the kernel derives."""
    outcomes = tuple(sorted(set(CLICK_PAIRS)))
    index = {o: i for i, o in enumerate(outcomes)}
    verdicts = (*BELL_ORDER, None)
    outcome_verdict = np.array([verdicts.index(classify(o)) for o in outcomes])

    def branch(state):
        dist = measurement_distribution(state)
        return np.bincount(
            [index[o] for o in dist], weights=list(dist.values()), minlength=len(outcomes)
        )

    branch_outcomes = np.array(
        [[branch(TARGET_STATES[b]), branch(LEAK_STATES[b])] for b in BELL_ORDER]
    )
    return {
        "OUTCOMES": outcomes,
        "OUTCOME_VERDICT": outcome_verdict,
        "UNCORRELATED_DIST": np.bincount(
            [index[o] for o in CLICK_PAIRS],
            weights=np.full(len(CLICK_PAIRS), 1.0 / len(CLICK_PAIRS)),
            minlength=len(outcomes),
        ),
        "BRANCH_OUTCOMES": branch_outcomes,
        "branch_verdicts": np.array(
            [
                [np.bincount(outcome_verdict, weights=d, minlength=len(verdicts)) for d in pair]
                for pair in branch_outcomes
            ]
        ),
    }


_TABLE_FILE_HEADER = """\
# Outcome table of fibersdc.kernel, built from the state algebra.  Do not
# edit: tests/test_interferometer.py rebuilds it and checks this file bit
# for bit, and run as a script it writes the file anew:
#   PYTHONPATH=src python tests/test_interferometer.py > src/fibersdc/data/kernel_tables.txt
#
# One row per entry of OUTCOMES, in order: the signature (first port,
# first pol, second port, second pol, dt_bins), its index in
# OUTCOME_VERDICT, then its BRANCH_OUTCOMES probability for each class in
# BELL_ORDER, target branch then leak branch.  The kernel derives the rest.
"""


def render_kernel_tables(tables: dict) -> str:
    """The text of `data/kernel_tables.txt` for `tables`; floats as repr."""
    lines = [_TABLE_FILE_HEADER]
    branches = tables["BRANCH_OUTCOMES"].reshape(-1, len(tables["OUTCOMES"])).T
    for o, v, row in zip(tables["OUTCOMES"], tables["OUTCOME_VERDICT"].tolist(), branches.tolist()):
        lines.append(" ".join([*o[:4], str(o.dt_bins), str(v), *map(repr, row)]) + "\n")
    return "".join(lines)


def test_stored_kernel_tables_equal_the_state_algebras():
    # Seeded outputs depend on the tables' last bits, through the sampler's
    # inverse-CDF table and the calibration score: each bin must be the sum
    # of its terms in order, which `np.bincount` adds as the algebra lists
    # them.  UNCORRELATED_DIST and the verdict diagonal are derived in the
    # kernel, and must match too.
    rebuilt = rebuild_kernel_tables()
    assert kernel.OUTCOMES == rebuilt["OUTCOMES"]
    for name in ("OUTCOME_VERDICT", "UNCORRELATED_DIST", "BRANCH_OUTCOMES"):
        got, want = np.array(getattr(kernel, name)), rebuilt[name]
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
    own = rebuilt["branch_verdicts"][range(4), :, range(4)]
    assert np.array([d[3:] for d in kernel._DIAGONAL]).tobytes() == own.tobytes()


def test_kernel_table_file_is_the_rendered_algebra():
    stored = resources.files("fibersdc.data").joinpath("kernel_tables.txt")
    assert stored.read_text(encoding="utf-8") == render_kernel_tables(rebuild_kernel_tables())


def test_a_missing_kernel_table_is_not_a_config_error(tmp_path, monkeypatch):
    # It shares its row reader with the count file, whose read errors are
    # ConfigError (exit 2); a command without its table exits 1.
    monkeypatch.setattr(kernel, "_DATA", str(tmp_path))
    with pytest.raises(FileNotFoundError):
        kernel._read_table()


MOVED_TO_KERNEL = {
    states: ["BellState", "BELL_ORDER"],
    interferometer: ["BellState", "BELL_ORDER", "DetectionOutcome", "CAL_DEPTH", "LOOP_TRAVERSALS"],
}


def test_oracle_modules_reexport_the_kernels_objects():
    for module, names in MOVED_TO_KERNEL.items():
        for name in names:
            assert getattr(module, name) is getattr(kernel, name), f"{module.__name__}.{name}"


def test_kernel_matches_state_algebra_at_random_phases():
    rng = np.random.default_rng(20261018)
    phases = rng.uniform(-4 * np.pi, 4 * np.pi, size=(300, 2))
    cfg = InterferometerConfig()
    # One column per verdict, marking the outcomes classified as it.
    by_verdict = np.eye(len(VERDICTS))[list(OUTCOME_VERDICT)]
    diagonal = np.zeros(len(phases))
    worst = 0.0
    for which in BELL_ORDER:
        outcomes = kernel_mixture(which.index, phases[:, 0], phases[:, 1])
        verdicts = outcomes @ by_verdict
        for i, ((p0, p1), got, got_verdicts) in enumerate(
            zip(phases.tolist(), outcomes, verdicts)
        ):
            c = cfg.with_phases(p0, p1)
            dist = measurement_distribution(evolve_bsm(make_bell(which), c))
            assert set(dist) <= set(OUTCOMES)
            want = np.array([dist.get(o, 0.0) for o in OUTCOMES])
            vd = verdict_distribution(which, c)
            want_verdicts = np.array([vd.get(v, 0.0) for v in VERDICTS])
            diagonal[i] += vd.get(which, 0.0) / 4.0
            worst = max(
                worst,
                np.abs(got - want).max(),
                np.abs(got_verdicts - want_verdicts).max(),
                np.abs(kernel_mixture(which.index, p0, p1) - want).max(),
            )
    scores = [mean_diagonal(p0, p1) for p0, p1 in phases.tolist()]
    worst = max(worst, np.abs(np.array(scores) - diagonal).max())
    assert worst < 1e-12


@pytest.mark.parametrize("n", [7, 32, 101])
def test_mean_diagonal_is_the_leak_weight_mixture(n):
    # The calibration score in `math` and the sampler's `leak_weight` in
    # numpy evaluate one formula.  numpy may vectorize cos differently
    # from libm, so they agree within 4 ulp and in the sweep's 9-decimal
    # text, not bit for bit.
    phis = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    phi0, phi1 = (a.ravel() for a in np.meshgrid(phis, phis, indexing="ij"))
    verdicts = rebuild_kernel_tables()["branch_verdicts"]
    want = 0.0
    for k in range(len(BELL_ORDER)):
        w = leak_weight(k, phi0, phi1)
        want += (1.0 - w) * verdicts[k, 0, k] + w * verdicts[k, 1, k]
    want /= 4.0
    got = np.array([mean_diagonal(p0, p1) for p0, p1 in zip(phi0.tolist(), phi1.tolist())])
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
    assert [f"{s:.9f}" for s in got.tolist()] == [f"{s:.9f}" for s in want.tolist()]


# ---------------------------------------------------------------------------
# outcome classification
# ---------------------------------------------------------------------------


def test_outcome_orders_earlier_photon_first():
    outcome = DetectionOutcome.from_modes(
        PhotonMode("B", "H", 2), PhotonMode("A", "V", 0)
    )
    assert (outcome.first_port, outcome.first_pol) == ("A", "V")
    assert outcome.dt_bins == 2


def test_outcome_sorts_simultaneous_clicks():
    a = DetectionOutcome.from_modes(PhotonMode("B", "V", 1), PhotonMode("A", "H", 1))
    b = DetectionOutcome.from_modes(PhotonMode("A", "H", 1), PhotonMode("B", "V", 1))
    assert a == b
    assert a.dt_bins == 0


@pytest.mark.parametrize(
    "outcome,want",
    [
        (DetectionOutcome("A", "H", "A", "V", 0), BellState.PHI_PLUS),
        (DetectionOutcome("B", "H", "B", "V", 0), BellState.PHI_PLUS),
        (DetectionOutcome("A", "H", "B", "H", 0), BellState.PHI_MINUS),
        (DetectionOutcome("A", "V", "B", "V", 0), BellState.PHI_MINUS),
        (DetectionOutcome("A", "H", "B", "V", 1), BellState.PSI_PLUS),
        (DetectionOutcome("B", "V", "A", "V", 1), BellState.PSI_PLUS),
        (DetectionOutcome("A", "H", "A", "V", 2), BellState.PSI_MINUS),
        (DetectionOutcome("A", "H", "B", "V", 2), BellState.PSI_MINUS),
        (DetectionOutcome("A", "H", "A", "H", 0), None),
        (DetectionOutcome("A", "H", "B", "V", 0), None),
        (DetectionOutcome("A", "H", "A", "V", 1), None),
        (DetectionOutcome("A", "H", "B", "H", 2), None),
        (DetectionOutcome("A", "H", "B", "V", 3), None),
    ],
)
def test_classify_signature_table(outcome, want):
    assert classify(outcome) is want


if __name__ == "__main__":
    print(render_kernel_tables(rebuild_kernel_tables()), end="")
