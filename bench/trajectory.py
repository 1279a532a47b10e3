#!/usr/bin/env python3
"""Repeat bench/run.py over seeds and write one point of the BENCH trajectory.

    python3 bench/trajectory.py --seeds 1-10 --out bench/BENCH_1.json
    python3 bench/trajectory.py --seeds 1,101 --trace 1 --out bench/BENCH_1_trace.json

For every seed it runs each workload of BENCHMARK.json once, for the
run_seconds BENCHMARK.json fixes (workloads interleaved, so slow drift in
host load falls on all of them), then reports per workload and
metric the median, quartiles and spread, the distance between the quartiles
as a share of the median, next to the metric's bound in BENCHMARK.json.
With --trace 1 it records the per-layer metrics instead.  --out writes the
runs, the summary and the host facts as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def host_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    if l3.is_file():
        facts["l3"] = l3.read_text().strip()
    try:
        import numpy

        facts["numpy"] = numpy.__version__
    except ImportError:
        pass
    return facts


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            for line in lines:
                if line.startswith("unscaled "):
                    result["unscaled"] = json.loads(line.split(" ", 1)[1])
            runs.append({"workload": workload, "seed": seed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload:>12} seed {seed:>3} correct={result['correct']} "
                  f"{'' if args.trace else values}", flush=True)

    summary: dict[str, dict] = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        summary[workload] = {
            "correct": all(r["correct"] for r in mine),
            "failed_run_ratio": f"{sum(r['failed'] for r in mine)}/"
                                f"{sum(r['attempted'] for r in mine)}",
        }
        columns = {n: ([r["metrics"][n]["value"] for r in mine], m["unit"])
                   for n, m in mine[0]["metrics"].items()}
        for name in mine[0].get("unscaled", {}):
            columns[f"unscaled.{name}"] = ([r["unscaled"][name] for r in mine], "s")
        for name, (values, unit) in columns.items():
            median = statistics.median(values)
            row = {"unit": unit, "median": median}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
            if name in bounds:
                row["bound"] = bounds[name]
            summary[workload][name] = row
    print()
    for workload, rows in summary.items():
        print(f"{workload}: correct={rows['correct']} failed_run_ratio={rows['failed_run_ratio']}")
        for name, row in rows.items():
            if not isinstance(row, dict) or (args.trace and "spread" not in row):
                continue
            spread = row.get("spread")
            flag = ""
            if spread is not None and row.get("bound"):
                flag = "ok" if spread < row["bound"] / 3 else "WIDE"
            print(f"  {name:<36} {row['median']:>14.6g} {row['unit']:<6} "
                  f"spread={spread if spread is None else round(spread, 4)} "
                  f"bound={row.get('bound')} {flag}")
    if args.out:
        import run

        doc = {
            "trace": args.trace,
            "run_seconds": spec["run_seconds"],
            "seeds": parse_seeds(args.seeds),
            "sizes": {
                "characterize_seconds_per_state": run.SECONDS_PER_STATE,
                "transfer_pixels": run.IMAGE_SIZE[0] * run.IMAGE_SIZE[1],
                "analyze_grid": run.GRID,
                "analyze_resamples": run.RESAMPLES,
                "reference_nominal_s": run.REF_NOMINAL_S,
            },
            "host": host_facts(),
            "summary": summary,
            "runs": runs,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
