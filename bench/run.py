#!/usr/bin/env python3
"""fibersdc benchmark: the CLI workflows, timed and checked from outside the package.

    python3 bench/run.py --workload {characterize,transfer,analyze} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout: the package is imported from
./src, nothing is installed.  The inputs (the CLI seed, the transfer image,
the analyze count matrix) are generated from --seed and written to files.
Each workflow run starts fresh `python3 -m fibersdc ...` children one after
another, times each from spawn to exit, takes its peak RSS from wait4, and
checks its output files.  Runs repeat until --seconds have passed and every
metric is the median over the runs.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
runs with runs under bench/traced_cli.py, which records spans at the layer
boundaries, and reports the per-layer metrics.  Metric names and units come
from BENCHMARK.json.  The last line on stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import cmath
import json
import math
import os
import random
import shutil
import signal
import statistics
import struct
import sys
import time
from pathlib import Path

from tracing import LAYERS, reduce_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "fibersdc"
WORK = ROOT / ".bench_work"

# Workload sizes.
SECONDS_PER_STATE = 10.0  # characterize: about 8,050 coincidences at 201.4 Hz
IMAGE_SIZE = (68, 100)  # transfer: 6,800 pixels, half the bundled demo, for more runs
GRID = 32  # analyze, calibrate step: 1,024 phase points
RESAMPLES = 4000  # analyze, capacity step

# Output checks.  Accuracy targets are acceptance criterion 07's, in canonical
# class order; the band is its 0.01 tolerance on the mean plus ACCURACY_Z
# binomial standard errors for one run.  Uniform four-gray pixels at the
# transfer operating point land near 0.86 fidelity (0.853-0.868 over four
# seeds of 13,600-pixel images).
CLASSES = ("phi_minus", "phi_plus", "psi_minus", "psi_plus")
ACCURACY_TARGETS = (710 / 730, 715 / 744, 748 / 780, 840 / 912)
ACCURACY_SLACK = 0.01
ACCURACY_Z = 5.0
FIDELITY_BAND = (0.81, 0.91)
PALETTE = (255, 170, 85, 0)

# The host's speed changes by up to ~45% for minutes at a time (a fixed
# pure-Python loop took 23-24 ms per call for a minute, then 32-35 ms), and
# CPU time tracks wall time, so medians of raw times from runs minutes apart
# disagree by more than any useful bound.  End-to-end times are therefore
# reported at a nominal host speed: t * REF_NOMINAL_S / (mean duration of
# the reference blocks timed right before and right after the run).  The
# mean, not the median: the host stalls in bursts shorter than a block, and
# a run pays for every stall, so the blocks' total time tracks it best.
# REF_NOMINAL_S is the reference block time of a 2-vCPU Xeon host when it is
# quiet (0.028-0.036 s per workload and set of ten seeds), so scaled and raw
# seconds agree there.
REF_ITERATIONS = 25_000
REF_NOMINAL_S = 0.031
REF_BLOCKS = 6

MIN_RUNS = 3
MAX_SECONDS = 150.0  # no new run starts past this, whatever --seconds says
CHILD_LIMIT_S = 120.0


class CheckFailed(Exception):
    """A child exited non-zero or its outputs failed a check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


def spawn(argv: list[str], log: Path, env: dict) -> tuple[float, float, int]:
    """Run the interpreter on argv; return wall seconds, peak RSS in MB and
    exit code.  The child's stdout and stderr go to `log`.

    Linux starts a child's ru_maxrss at the RSS of the parent it was spawned
    from, so this process imports nothing large (no numpy) and stays well
    below the smallest child."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, CHILD_LIMIT_S)
    reaped = False
    try:
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    wall = time.perf_counter() - t0
    return wall, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


def run_workflow(workload, out: Path, env: dict, trace: Path | None = None) -> dict:
    """One workflow run: every CLI step in order, then the output checks."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    walls, rss, traces = [], [], []
    for i, args in enumerate(workload.commands(out)):
        if trace is None:
            argv = ["-m", "fibersdc", *args]
        else:
            traces.append(str(trace) + f"-{i}")
            argv = [str(BENCH / "traced_cli.py"), traces[-1], *args]
        log = out / f"step{i}.log"
        wall, peak, code = spawn(argv, log, env)
        if code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-400:]
            raise CheckFailed(f"`fibersdc {args[0]}` exited with {code}: {tail}")
        walls.append(wall)
        rss.append(peak)
    try:
        units = workload.check(out)
    except (OSError, KeyError, ValueError) as exc:
        raise CheckFailed(f"outputs unreadable: {exc!r}") from exc
    return {
        "wall": sum(walls),
        "steps": walls,
        "rss": max(rss),
        "units": units,
        "traces": [reduce_spans(t) for t in traces],
    }


# ---------------------------------------------------------------------------
# plain-text formats, read and written without the package
# ---------------------------------------------------------------------------


def read_report(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def read_counts(path: Path) -> list[list[int]]:
    rows = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].split()
        if line:
            rows.append([int(v) for v in line])
    require(len(rows) == 4 and all(len(r) == 4 for r in rows), f"{path.name} is not 4x4")
    return rows


def write_ppm(path: Path, width: int, height: int, pixels: list[int]) -> None:
    lines = ["P3", f"{width} {height}", "255"]
    for y in range(height):
        row = pixels[y * width : (y + 1) * width]
        lines.append(" ".join(f"{PALETTE[v]} {PALETTE[v]} {PALETTE[v]}" for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_ppm(path: Path) -> tuple[int, int, list[int]]:
    tokens = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        tokens.extend(raw.split("#", 1)[0].split())
    require(tokens[:1] == ["P3"] and len(tokens) >= 4, f"{path.name} is not a P3 image")
    width, height, maxval = (int(t) for t in tokens[1:4])
    values = [int(t) for t in tokens[4:]]
    require(maxval == 255 and len(values) == 3 * width * height, f"{path.name} has a bad body")
    level = {v: i for i, v in enumerate(PALETTE)}
    pixels = []
    for i in range(0, len(values), 3):
        r, g, b = values[i : i + 3]
        require(r == g == b and r in level, f"{path.name}: colour {r},{g},{b} not in palette")
        pixels.append(level[r])
    return width, height, pixels


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def cli_seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**31))


class Characterize:
    """Timed verdict-channel measurement at the bench operating point."""

    def __init__(self, rng: random.Random, inputs: Path):
        self.seed = cli_seed(rng)

    def commands(self, out: Path) -> list[list[str]]:
        return [
            ["characterize", "--seed", self.seed, "--seconds-per-state",
             str(SECONDS_PER_STATE), "--outdir", str(out)],
        ]

    def check(self, out: Path) -> int:
        report = read_report(out / "characterization_report.txt")
        counts = read_counts(out / "counts.txt")
        total = int(report["events_total"])
        ambiguous = sum(int(report[f"ambiguous_{c}"]) for c in CLASSES)
        require(sum(map(sum, counts)) + ambiguous == total, "counts + ambiguous != events_total")
        for i, (label, target) in enumerate(zip(CLASSES, ACCURACY_TARGETS)):
            kept = sum(counts[i])
            require(kept == int(report[f"kept_{label}"]), f"kept_{label} disagrees with counts")
            accuracy = counts[i][i] / kept
            band = ACCURACY_SLACK + ACCURACY_Z * math.sqrt(target * (1 - target) / kept)
            require(
                abs(accuracy - target) <= band,
                f"accuracy_{label}={accuracy:.4f} outside {target:.4f} +- {band:.4f}",
            )
        with open(out / "events.csv", encoding="utf-8") as fh:
            logged = sum(1 for line in fh if not line.startswith("#")) - 1
        require(logged == total, f"events.csv holds {logged} events, report says {total}")
        return total

    def rates(self, run: dict) -> dict[str, float]:
        return {"cli.characterize.events_per_s": run["units"] / run["wall"]}


class Transfer:
    """A seeded four-gray image sent pixel by pixel over the framed link."""

    def __init__(self, rng: random.Random, inputs: Path):
        self.seed = cli_seed(rng)
        self.width, self.height = IMAGE_SIZE
        self.pixels = [rng.randrange(4) for _ in range(self.width * self.height)]
        self.image = inputs / "sent.ppm"
        write_ppm(self.image, self.width, self.height, self.pixels)

    def commands(self, out: Path) -> list[list[str]]:
        return [["transfer", "--seed", self.seed, "--image", str(self.image), "--outdir", str(out)]]

    def check(self, out: Path) -> int:
        report = read_report(out / "transfer_report.txt")
        frames = int(report["frames"])
        require(frames == len(self.pixels), f"frames={frames}, image has {len(self.pixels)} pixels")
        width, height, received = read_ppm(out / "received.ppm")
        require((width, height) == (self.width, self.height), "received.ppm has the wrong size")
        verdicts = sum(int(v) for k, v in report.items() if k.startswith("verdicts_"))
        require(verdicts == frames, f"verdict counts sum to {verdicts}, not {frames}")
        fidelity = sum(a == b for a, b in zip(self.pixels, received)) / frames
        require(
            abs(fidelity - float(report["image_fidelity"])) <= 1e-6,
            "reported fidelity disagrees with received.ppm",
        )
        lo, hi = FIDELITY_BAND
        require(lo <= fidelity <= hi, f"fidelity {fidelity:.4f} outside [{lo}, {hi}]")
        return frames

    def rates(self, run: dict) -> dict[str, float]:
        return {"cli.transfer.frames_per_s": run["units"] / run["wall"]}


class Analyze:
    """Phase-grid calibration, then capacity with bootstrap of a seeded
    count matrix drawn from the bundled bench conditionals."""

    def __init__(self, rng: random.Random, inputs: Path):
        self.seed = cli_seed(rng)
        rows = []
        for ref in read_counts(PACKAGE / "data" / "characterization_counts.txt"):
            edges = [sum(ref[: j + 1]) for j in range(4)]
            row = [0] * 4
            for _ in range(edges[-1]):
                row[bisect.bisect_right(edges, rng.random() * edges[-1])] += 1
            rows.append(row)
        self.counts = inputs / "counts.txt"
        self.counts.write_text(
            "".join(" ".join(map(str, row)) + "\n" for row in rows), encoding="utf-8"
        )

    def commands(self, out: Path) -> list[list[str]]:
        return [
            ["calibrate", "--seed", self.seed, "--grid", str(GRID), "--outdir", str(out)],
            ["capacity", "--seed", self.seed, "--counts", str(self.counts),
             "--resamples", str(RESAMPLES), "--outdir", str(out)],
        ]

    def check(self, out: Path) -> int:
        report = read_report(out / "capacity_report.txt")
        require(report["ba_converged"] == "True", "Blahut-Arimoto did not converge")
        capacity = float(report["capacity_bits"])
        uniform = float(report["uniform_input_bits"])
        require(uniform <= capacity <= 2.0, f"capacity {capacity} outside [{uniform}, 2]")
        require(float(report["bootstrap_std_bits"]) > 0, "bootstrap spread is zero")
        grid = (out / "calibration_grid.tsv").read_text(encoding="utf-8").splitlines()[1:]
        rows = [tuple(float(v) for v in line.split("\t")) for line in grid]
        require(len(rows) == GRID * GRID, f"calibration grid has {len(rows)} points")
        require(rows[0][:2] == (0.0, 0.0), "grid does not start at the calibration point")
        at_calibration = rows[0][2]
        best = float(read_report(out / "calibration_report.txt")["best_score"])
        require(abs(at_calibration - 1.0) <= 1e-9, f"calibration-point score {at_calibration}")
        require(abs(best - at_calibration) <= 1e-9, f"best score {best} != calibration point's")
        require(max(r[2] for r in rows) <= best + 1e-9, "a grid point beats the best score")

    def rates(self, run: dict) -> dict[str, float]:
        calibrate_s, capacity_s = run["steps"]
        return {
            "cli.calibrate.grid_points_per_s": GRID * GRID / calibrate_s,
            "cli.capacity.resamples_per_s": RESAMPLES / capacity_s,
        }


WORKLOADS = {"characterize": Characterize, "transfer": Transfer, "analyze": Analyze}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def merge_traces(traces: list[dict]) -> dict:
    """One workflow run's traces (one per CLI step) summed together."""
    spans: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    samples: dict[str, list[float]] = {}
    for t in traces:
        for name, row in t["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for j in range(3):
                acc[j] += row[j]
        for key, v in t["counts"].items():
            counts[key] = counts.get(key, 0) + v
        for key, vs in t["samples"].items():
            samples.setdefault(key, []).extend(vs)
    return {
        "spans": spans,
        "counts": counts,
        "samples": samples,
        "span_count": sum(t["span_count"] for t in traces),
        "public_api_names": traces[0]["public_api_names"],
    }


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced workflow run."""
    spans, counts = trace["spans"], trace["counts"]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total_s(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS[:-1]:
        m[f"{layer}.self_s"] = sum(r[2] for n, r in spans.items() if n.startswith(layer + "."))
    detections = calls("noise.sample_detection")
    frames = counts.get("protocol.frames", 0)
    m["states.objects_built"] = counts.get("states.objects_built", 0)
    m["states.objects_per_event"] = ratio(m["states.objects_built"], detections)
    for fn in ("evolve_bsm", "measurement_distribution", "verdict_distribution"):
        m[f"interferometer.{fn}.calls"] = calls(f"interferometer.{fn}")
        m[f"interferometer.{fn}.self_s"] = self_s(f"interferometer.{fn}")
    m["interferometer.us_per_distribution"] = 1e6 * ratio(
        total_s("interferometer.evolve_bsm") + total_s("interferometer.measurement_distribution"),
        calls("interferometer.measurement_distribution"),
    )
    for fn in ("sample_detection", "phase_walk"):
        m[f"noise.{fn}.calls"] = calls(f"noise.{fn}")
        m[f"noise.{fn}.self_s"] = self_s(f"noise.{fn}")
    m["noise.event_stream_s"] = total_s("noise.generate_event_stream")
    m["noise.events"] = counts.get("noise.events", 0)
    m["noise.write_event_log_s"] = total_s("noise.write_event_log")
    m["noise.event_log_bytes"] = counts.get("noise.event_log_bytes", 0)
    m["noise.ambiguous_ratio"] = ratio(counts.get("noise.ambiguous", 0), detections)
    m["capacity.channel_capacity.calls"] = calls("capacity.channel_capacity")
    m["capacity.channel_capacity.self_s"] = self_s("capacity.channel_capacity")
    iterations = trace["samples"].get("capacity.ba_iterations", [])
    m["capacity.ba_iterations_median"] = statistics.median(iterations) if iterations else 0
    m["capacity.us_per_resample"] = 1e6 * ratio(
        total_s("capacity.bootstrap_ci"), counts.get("capacity.resamples", 0)
    )
    m["capacity.nonconverged"] = counts.get("capacity.nonconverged", 0)
    m["protocol.run_session.self_s"] = self_s("protocol.run_session")
    m["protocol.codec.calls"] = calls("protocol.codec")
    m["protocol.codec.self_s"] = self_s("protocol.codec")
    m["protocol.messages_per_frame"] = ratio(counts.get("protocol.messages", 0), frames)
    m["protocol.wire_bytes"] = counts.get("protocol.wire_bytes", 0)
    m["protocol.erasure_ratio"] = ratio(counts.get("protocol.erasures", 0), frames)
    m["imagecodec.read_ppm_s"] = total_s("imagecodec.read_ppm")
    m["imagecodec.write_ppm_s"] = total_s("imagecodec.write_ppm")
    m["imagecodec.ppm_bytes"] = counts.get("imagecodec.ppm_bytes", 0)
    m["cli.main.self_s"] = self_s("cli.main")
    m["trace.spans"] = trace["span_count"]
    m["public_api_names"] = trace["public_api_names"]
    return m


def source_lines() -> dict[str, int]:
    def lines(path: Path) -> int:
        with open(path, "rb") as fh:
            return sum(1 for _ in fh)

    out = {}
    for layer in LAYERS:
        path = PACKAGE / f"{layer}.py"
        out[f"src_lines.{layer}"] = lines(path) if path.is_file() else 0
    out["src_lines.total"] = sum(lines(p) for p in sorted(PACKAGE.rglob("*.py")))
    return out


def median_of(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r.get(k, 0.0) for r in rows) for k in rows[0]}


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


# ---------------------------------------------------------------------------
# measurement loop
# ---------------------------------------------------------------------------


def reference_blocks(count: int = REF_BLOCKS) -> list[float]:
    """Durations of `count` blocks of fixed work shaped like the package's
    hot paths: tuple-keyed dict updates, complex arithmetic, struct packing
    and small objects kept alive.  Pure Python, so this process stays small
    (see spawn)."""
    header = struct.Struct("<4sBII")
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        amplitudes: dict = {}
        kept = []
        for i in range(REF_ITERATIONS):
            key = (i % 7, i % 11, "AB"[i % 2])
            amplitudes[key] = amplitudes.get(key, 0j) + cmath.exp(1j * (i % 13)) * 0.5
            kept.append((key, header.unpack(header.pack(b"SDC1", i % 3, i, 0))))
        del kept
        out.append(time.perf_counter() - t0)
    return out


def measure(workload, rundir: Path, env: dict, seconds: float, traced: bool):
    """Repeat the workflow until `seconds` have passed (at least MIN_RUNS).

    Untraced: each iteration times a set-up probe, then one workflow run.
    Traced: each iteration makes one untraced and one traced run, in
    alternating order.  Reference blocks run before the first iteration and
    after each one; the runs of an iteration are scaled by REF_NOMINAL_S over
    the mean of the blocks on either side of them.
    """
    out = rundir / "out"
    probe = ["-m", "fibersdc", "calibrate", "--grid", "2", "--outdir", str(rundir / "probe")]
    spawn(probe, rundir / "probe.log", env)  # fills the bytecode cache
    samples: dict[str, list] = {"plain": [], "traced": [], "ref": []}
    attempted = failed = 0
    t_start = time.perf_counter()
    before = reference_blocks()
    samples["ref"].extend(before)
    iteration = 0
    while True:
        t_iter = time.perf_counter()
        if traced:
            kinds = ("plain", "traced") if iteration % 2 == 0 else ("traced", "plain")
        else:
            kinds = ("plain",)
        done = []
        for kind in kinds:
            attempted += 1
            try:
                setup_wall = 0.0
                if not traced:
                    setup_wall, _, code = spawn(probe, rundir / "probe.log", env)
                    require(code == 0, f"set-up probe exited with {code}")
                trace = rundir / f"trace{iteration}" if kind == "traced" else None
                run = run_workflow(workload, out, env, trace)
            except CheckFailed as exc:
                failed += 1
                print(f"run {attempted} failed: {exc}", file=sys.stderr)
                continue
            run["setup"] = setup_wall
            done.append((kind, run))
        after = reference_blocks()
        samples["ref"].extend(after)
        scale = REF_NOMINAL_S / statistics.fmean(before + after)
        for kind, run in done:
            run["scale"] = scale
            samples[kind].append(run)
            print(f"{kind} run: wall {run['wall']:.4f} s, scaled {run['wall'] * scale:.4f} s, "
                  f"reference blocks {min(before + after):.4f}..{max(before + after):.4f} s",
                  file=sys.stderr)
        before = after
        iteration += 1
        now = time.perf_counter()
        elapsed = now - t_start
        if attempted >= MIN_RUNS and (
            elapsed >= seconds or elapsed + (now - t_iter) > MAX_SECONDS
        ):
            break
    return samples, attempted, failed


def end_to_end_metrics(samples) -> dict[str, float]:
    """Medians over the runs of the times scaled to the nominal host speed."""
    runs = samples["plain"]
    return {
        "setup_s": statistics.median(r["setup"] * r["scale"] for r in runs),
        "wall_s": statistics.median(r["wall"] * r["scale"] for r in runs),
        "peak_rss_mb": statistics.median(r["rss"] for r in runs),
    }


def per_layer_metrics(workload, samples) -> dict[str, float]:
    plain, traced = samples["plain"], samples["traced"]
    m = median_of([layer_metrics(merge_traces(r["traces"])) for r in traced])
    traced_wall = statistics.median(r["wall"] for r in traced)
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - statistics.median(r["wall"] for r in plain)
    rates = {
        "cli.characterize.events_per_s": 0.0,
        "cli.transfer.frames_per_s": 0.0,
        "cli.calibrate.grid_points_per_s": 0.0,
        "cli.capacity.resamples_per_s": 0.0,
    }
    rates.update(median_of([workload.rates(r) for r in plain]))
    m.update(rates)
    m["host.ref_block_s"] = statistics.fmean(samples["ref"])
    m.update(source_lines())
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"no fibersdc sources at {PACKAGE}: run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("FIBERSDC_OUTDIR", None)
    # One CPU for this process and its children, so the reference blocks
    # time the CPU the workflow runs on.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"running unpinned: {exc}", file=sys.stderr)
    rundir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    rundir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](random.Random(args.seed), rundir)
        samples, attempted, failed = measure(
            workload, rundir, env, args.seconds, traced=bool(args.trace)
        )
        if not samples["plain"] or (args.trace and not samples["traced"]):
            print(f"all {attempted} runs failed", file=sys.stderr)
            return 1
        if args.trace:
            metrics = per_layer_metrics(workload, samples)
        else:
            metrics = end_to_end_metrics(samples)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if set(metrics) != set(wanted):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(wanted))}",
              file=sys.stderr)
        return 1

    walls = [r["wall"] for r in samples["plain"]]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"workflow wall before scaling: {quartiles(walls)} s; "
          f"reference block: {quartiles(samples['ref'])} s (nominal {REF_NOMINAL_S})")
    for name, unit in wanted.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"failed_run_ratio = {failed}/{attempted}")
    if not args.trace:
        runs = samples["plain"]
        print("unscaled " + json.dumps({
            "setup_s": statistics.median(r["setup"] for r in runs),
            "wall_s": statistics.median(walls),
            "ref_block_s": statistics.fmean(samples["ref"]),
        }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
