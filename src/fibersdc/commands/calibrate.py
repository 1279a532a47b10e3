"""`fibersdc calibrate`: sweep static phase offsets and score the verdict
diagonal at each grid point.

The sweep needs only `math` and the kernel's `mean_diagonal`, so this
command loads no numpy.
"""

import math

from ..errors import ConfigError
from ..kernel import mean_diagonal


def run(args, outdir):
    n = args.grid
    if n < 2:
        raise ConfigError("--grid must be at least 2")
    # Equal bit for bit to np.linspace(0, 2 pi, n, endpoint=False)
    phis = [i * (2.0 * math.pi / n) for i in range(n)]
    texts = [f"{p:.9f}\t" for p in phis]
    best = (-math.inf, 0.0, 0.0)
    # Each phi0 row is written as it is scored: memory stays bounded
    # whatever the grid.
    with open(outdir / "calibration_grid.tsv", "w", encoding="utf-8") as fh:
        fh.write("phi0_rad\tphi1_rad\tmean_diagonal\n")
        for phi0, text0 in zip(phis, texts):
            scores = [mean_diagonal(phi0, phi1) for phi1 in phis]
            fh.writelines([f"{text0}{text1}{s:.9f}\n" for text1, s in zip(texts, scores)])
            # The first point scanned wins a tie: a row's first top, if it beats earlier rows.
            top = max(scores)
            if top > best[0]:
                best = (top, phi0, phis[scores.index(top)])
    lines = [
        f"best_score={best[0]:.9f}",
        f"best_phi0_rad={best[1]:.9f}",
        f"best_phi1_rad={best[2]:.9f}",
    ]
    return "calibration_report.txt", lines, {"grid": repr(n)}
