"""How many bits per coincidence does the measured channel carry?

Loads the bundled bench count matrix, row-normalizes it into a channel,
and compares three numbers: the mutual information at uniform inputs, the
capacity (optimized inputs), and the capacity of a weaker analyzer that
cannot separate the two parallel-polarization classes.
"""

import numpy as np

from fibersdc import (
    BELL_ORDER,
    bootstrap_ci,
    channel_capacity,
    estimate_conditionals,
    load_reference_counts,
    mutual_information,
    partial_bsm_channel,
    substream,
)

counts = load_reference_counts()
P = estimate_conditionals(counts)

print("bench count matrix:")
print(counts)

uniform = mutual_information(np.full(4, 0.25), P)
result = channel_capacity(P)
sd = bootstrap_ci(counts, resamples=500, rng=substream(1, "bootstrap"))

print(f"\nuniform-input information: {uniform:.6f} bits")
print(f"capacity:                  {result.capacity_bits:.6f} bits"
      f"  (+/- {sd:.4f} bootstrap)")
print(f"solver iterations:         {result.iterations}")
print("optimal input distribution:")
for b, p in zip(BELL_ORDER, result.input_distribution):
    print(f"  {b.label:<10} {p:.4f}")

# The iteration climbs monotonically; show the first few steps.
print("\ncapacity lower bound per iteration (first 8):")
print("  " + "  ".join(f"{v:.6f}" for v in result.lower_bounds[:8]))

partial = channel_capacity(partial_bsm_channel())
print(f"\nwithout the time-bin stage the device resolves 3 of 4 classes:")
print(f"  capacity {partial.capacity_bits:.6f} bits = log2(3)")
print(f"  measured analyzer beats it by "
      f"{result.capacity_bits - partial.capacity_bits:.4f} bits per symbol")
