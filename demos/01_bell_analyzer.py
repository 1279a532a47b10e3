"""Walk the four Bell classes through the analyzer and print what each
one looks like at the detectors.

The analyzer turns every class into a distinct signature built from three
observables per coincidence: which output ports clicked, whether the two
polarizations matched, and how many time bins separated the clicks.  Run
this to see which class each dibit encodes, the full signature tables,
and how they blur when the loop phases are detuned.
"""

import numpy as np

from fibersdc import (
    BELL_ORDER,
    InterferometerConfig,
    encode_dibit,
    evolve_bsm,
    make_bell,
    measurement_distribution,
    state_fidelity,
    verdict_distribution,
)

cfg = InterferometerConfig()

# Local gates on one photon of PHI_PLUS select the class: each dibit lands
# on exactly one Bell state, up to a global phase.
print("dense coding: fidelity of each encoded dibit to each Bell class")
print("=" * 60)
print("dibit".ljust(12) + "".join(b.label.ljust(12) for b in BELL_ORDER))
for dibit in range(4):
    encoded = encode_dibit(dibit)
    row = f"{dibit:02b}".ljust(12)
    row += "".join(f"{state_fidelity(encoded, make_bell(b)):<12.4f}" for b in BELL_ORDER)
    print(row)
print()

print("calibrated analyzer, exact outcome tables")
print("=" * 60)
for which in BELL_ORDER:
    state = evolve_bsm(make_bell(which), cfg)
    dist = measurement_distribution(state)
    print(f"\nsent {which.label}:")
    for outcome, p in sorted(dist.items()):
        pair = (
            f"{outcome.first_port}{outcome.first_pol}"
            f"+{outcome.second_port}{outcome.second_pol}"
        )
        print(f"  {pair}  dt={outcome.dt_bins}  p={p:.4f}")

print("\nverdicts (probability of each decoded class per sent class)")
print("=" * 60)
header = "sent".ljust(12) + "".join(b.label.ljust(12) for b in BELL_ORDER) + "ambiguous"
print(header)
for which in BELL_ORDER:
    vd = verdict_distribution(which, cfg)
    row = which.label.ljust(12)
    for b in BELL_ORDER:
        row += f"{vd.get(b, 0.0):<12.4f}"
    row += f"{vd.get(None, 0.0):.4f}"
    print(row)

# Detune one loop phase and watch the verdict table pick up leakage.
print("\nsame table with the short loop detuned by pi/2")
print("=" * 60)
detuned = cfg.with_phases(np.pi / 2, 0.0)
print(header)
for which in BELL_ORDER:
    vd = verdict_distribution(which, detuned)
    row = which.label.ljust(12)
    for b in BELL_ORDER:
        row += f"{vd.get(b, 0.0):<12.4f}"
    row += f"{vd.get(None, 0.0):.4f}"
    print(row)

print("\nambiguous outcomes are discarded by the decoder;")
print("wrong-verdict mass is what limits the channel, see 03_capacity.py")
