"""`fibersdc characterize`: a timed verdict-channel measurement.

It samples a timed run per sent class, tallies and logs each chunk of
events, and writes the count matrix.  It loads numpy, the settings, the
timed run (`fibersdc.noise`), the sampler and the kernel, and no
capacity layer: the kernel owns the count file, whose `save_counts`
writes what its `load_counts` reads back.
"""

import math

import numpy as np

from ..configs import merged_settings, resolved_settings
from ..errors import ConfigError
from ..kernel import BELL_ORDER, save_counts
from ..noise import append_events, iter_event_chunks, open_event_log, tally_verdicts
from ..seeds import settings_digest, substream


def run(args, outdir):
    source, drift = merged_settings(args)
    seconds = args.seconds_per_state
    if not (math.isfinite(seconds) and seconds > 0):
        raise ConfigError(f"seconds_per_state must be finite and positive, got {seconds!r}")
    schedule = [(b, seconds) for b in BELL_ORDER]
    settings = resolved_settings((source, drift), seconds_per_state=seconds)

    # Each chunk is tallied and logged, then dropped: memory stays bounded.
    counts = np.zeros((len(BELL_ORDER), len(BELL_ORDER)), dtype=np.int64)
    ambiguous = np.zeros(len(BELL_ORDER), dtype=np.int64)
    header = {"settings_sha256": settings_digest(settings), "master_seed": str(args.seed)}
    # The schedule is checked here, before the log is opened.
    chunks = iter_event_chunks(schedule, source, drift, substream(args.seed, "characterize"))
    with open_event_log(outdir / "events.csv", header) as log:
        for chunk in chunks:
            kept_counts, ambiguous_counts = tally_verdicts(chunk)
            counts += kept_counts
            ambiguous += ambiguous_counts
            append_events(log, chunk)
    save_counts(outdir / "counts.txt", counts)

    lines = [f"events_total={counts.sum() + ambiguous.sum()}"]
    # P(verdict | sent) over the kept events; a class with none has no
    # estimate, so its row is nan rather than a made-up distribution.
    P = []
    for i, b in enumerate(BELL_ORDER):
        kept = counts[i].sum()
        P.append(counts[i] / kept if kept else np.full(len(BELL_ORDER), np.nan))
        lines.append(f"accuracy_{b.label}={P[i][i]:.6f}")
        lines.append(f"kept_{b.label}={kept}")
        lines.append(f"ambiguous_{b.label}={ambiguous[i]}")
    for i, b in enumerate(BELL_ORDER):
        row = " ".join(f"{v:.6f}" for v in P[i])
        lines.append(f"conditionals_{b.label}={row}")
    return "characterization_report.txt", lines, settings
