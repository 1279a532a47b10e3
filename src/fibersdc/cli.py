"""Command-line front end.

Four subcommands cover the package's workflows:

    characterize   timed verdict-channel measurement, writes counts
    capacity       channel capacity of a count matrix, with bootstrap
    calibrate      sweep static phase offsets, score the verdict diagonal
    transfer       send a four-gray image over the simulated link

Every run writes a manifest (subcommand, resolved settings, their hash,
seed, package version, random-stream version, no timestamps), so
rerunning with the same seed and settings reproduces every output byte
for byte.  Settings come from an optional key=value config file plus
repeatable --set overrides; the output directory falls back to
$FIBERSDC_OUTDIR, then the current directory.  Exit codes: 0 success, 2 configuration problem, 3 protocol
violation, 1 anything else.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .capacity import (
    bootstrap_spread,
    channel_capacity,
    estimate_conditionals,
    load_counts,
    load_reference_counts,
    mutual_information,
    save_counts,
)
from .configs import (
    CHARACTERIZATION_DRIFT,
    CHARACTERIZATION_SOURCE,
    DEFAULT_INTERFEROMETER,
    DEFAULT_TIMING,
    SECONDS_PER_STATE,
    TRANSFER_DRIFT,
)
from .errors import ConfigError, ProtocolError
from .imagecodec import (
    dibits_to_raster,
    image_fidelity,
    make_demo_image,
    pack_dibits,
    raster_to_dibits,
    read_ppm,
    write_ppm,
)
from .interferometer import InterferometerConfig, kernel_verdicts
from .noise import (
    DriftConfig,
    SourceConfig,
    append_events,
    iter_event_chunks,
    open_event_log,
)
from .protocol import TimingConfig, run_session
from .seeds import STREAM_VERSION, substream
from .states import BELL_ORDER

OUTDIR_ENV = "FIBERSDC_OUTDIR"

_SOURCE_KEYS = {f.name for f in fields(SourceConfig)}
_DRIFT_KEYS = {f.name for f in fields(DriftConfig)}
# Every workflow puts the analyzer at the walk's or the grid's loop phases,
# so the static offsets on InterferometerConfig are not settings.
_INTERF_KEYS = {f.name for f in fields(InterferometerConfig)} - {"phi0_rad", "phi1_rad"}
_TIMING_KEYS = {f.name for f in fields(TimingConfig)}
_EXTRA_KEYS = {"seconds_per_state"}
_ALL_KEYS = _SOURCE_KEYS | _DRIFT_KEYS | _INTERF_KEYS | _TIMING_KEYS | _EXTRA_KEYS


def parse_config_file(path) -> dict[str, float]:
    """Read key=value lines; `#` comments and blank lines are skipped."""
    values: dict[str, float] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        try:
            values[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad number {val!r}") from exc
    return values


def _apply_overrides(values: dict[str, float], pairs: list[str]) -> dict[str, float]:
    out = dict(values)
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set needs key=value, got {pair!r}")
        key, val = (part.strip() for part in pair.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown setting {key!r}")
        try:
            out[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad number for {key}: {val!r}") from exc
    return out


def build_configs(values: dict[str, float], transfer: bool = False):
    """Materialize the dataclass configs from a flat settings map."""
    src_base = TRANSFER_DRIFT if transfer else CHARACTERIZATION_DRIFT
    source_kwargs = {k: v for k, v in values.items() if k in _SOURCE_KEYS}
    drift_kwargs = {k: v for k, v in values.items() if k in _DRIFT_KEYS}
    interf_kwargs = {k: v for k, v in values.items() if k in _INTERF_KEYS}
    timing_kwargs = {k: v for k, v in values.items() if k in _TIMING_KEYS}
    base_source = CHARACTERIZATION_SOURCE
    source = SourceConfig(
        **{
            f.name: source_kwargs.get(f.name, getattr(base_source, f.name))
            for f in fields(SourceConfig)
        }
    )
    drift = DriftConfig(
        **{
            f.name: drift_kwargs.get(f.name, getattr(src_base, f.name))
            for f in fields(DriftConfig)
        }
    )
    interf = InterferometerConfig(
        **{
            f.name: interf_kwargs.get(f.name, getattr(DEFAULT_INTERFEROMETER, f.name))
            for f in fields(InterferometerConfig)
        }
    )
    timing = TimingConfig(
        **{
            f.name: timing_kwargs.get(f.name, getattr(DEFAULT_TIMING, f.name))
            for f in fields(TimingConfig)
        }
    )
    return source, drift, interf, timing


def _resolved_settings(source, drift, interf, timing, extras: dict) -> dict[str, str]:
    out: dict[str, str] = {}
    for cfg in (source, drift, interf, timing):
        for f in fields(cfg):
            if f.name in _ALL_KEYS:
                out[f.name] = repr(getattr(cfg, f.name))
    for k, v in extras.items():
        out[k] = repr(v)
    return out


def _settings_body(settings: dict[str, str]) -> str:
    return "".join(f"{k}={settings[k]}\n" for k in sorted(settings))


def settings_digest(settings: dict[str, str]) -> str:
    """SHA-256 of the resolved settings, one `key=value` line per key."""
    return hashlib.sha256(_settings_body(settings).encode("utf-8")).hexdigest()


def _write_manifest(
    outdir: Path, command: str, settings: dict[str, str], seed: int, digest: str
) -> None:
    lines = [
        f"command={command}",
        f"package_version={__version__}",
        f"stream_version={STREAM_VERSION}",
        f"master_seed={seed}",
        f"settings_sha256={digest}",
        "",
        _settings_body(settings).rstrip("\n"),
    ]
    (outdir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _outdir(args) -> Path:
    raw = args.outdir or os.environ.get(OUTDIR_ENV) or "."
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _gather_settings(args, transfer: bool = False):
    values = parse_config_file(args.config) if args.config else {}
    values = _apply_overrides(values, args.set or [])
    extras = {k: values.pop(k) for k in list(values) if k in _EXTRA_KEYS}
    source, drift, interf, timing = build_configs(values, transfer=transfer)
    return source, drift, interf, timing, extras


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_characterize(args) -> int:
    outdir = _outdir(args)
    source, drift, interf, timing, extras = _gather_settings(args)
    seconds = float(extras.get("seconds_per_state", args.seconds_per_state))
    if not (math.isfinite(seconds) and seconds > 0):
        raise ConfigError(f"seconds_per_state must be finite and positive, got {seconds!r}")
    schedule = [(b, seconds) for b in BELL_ORDER]
    settings = _resolved_settings(
        source, drift, interf, timing, {"seconds_per_state": seconds}
    )
    digest = settings_digest(settings)

    # Each chunk is tallied and logged, then dropped: memory stays bounded.
    table = np.zeros((len(BELL_ORDER), len(BELL_ORDER) + 1), dtype=np.int64)
    header = {"settings_sha256": digest, "master_seed": str(args.seed)}
    with open_event_log(outdir / "events.csv", header) as log:
        rng = substream(args.seed, "characterize")
        for chunk in iter_event_chunks(schedule, source, drift, rng):
            table += chunk.tally()
            append_events(log, chunk)
    counts, ambiguous = table[:, :-1], table[:, -1]
    save_counts(outdir / "counts.txt", counts)

    lines = [f"events_total={table.sum()}"]
    safe = counts.copy()
    safe[safe.sum(axis=1) == 0] = 1  # uniform placeholder so tiny runs still report
    P = estimate_conditionals(safe)
    for i, b in enumerate(BELL_ORDER):
        kept = counts[i].sum()
        acc = counts[i, i] / kept if kept else float("nan")
        lines.append(f"accuracy_{b.label}={acc:.6f}")
        lines.append(f"kept_{b.label}={kept}")
        lines.append(f"ambiguous_{b.label}={ambiguous[i]}")
    for i, b in enumerate(BELL_ORDER):
        row = " ".join(f"{v:.6f}" for v in P[i])
        lines.append(f"conditionals_{b.label}={row}")
    (outdir / "characterization_report.txt").write_text(
        "\n".join(lines) + "\n", encoding="utf-8"
    )
    _write_manifest(outdir, "characterize", settings, args.seed, digest)
    print("\n".join(lines))
    return 0


def cmd_capacity(args) -> int:
    outdir = _outdir(args)
    if args.counts:
        counts = load_counts(args.counts)
        counts_name = str(args.counts)
    else:
        counts = load_reference_counts()
        counts_name = "bundled:characterization_counts.txt"
    P = estimate_conditionals(counts)
    result = channel_capacity(P)
    uniform = mutual_information(np.full(4, 0.25), P)
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
    (outdir / "capacity_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    settings = {"counts": counts_name, "resamples": repr(args.resamples)}
    _write_manifest(outdir, "capacity", settings, args.seed, settings_digest(settings))
    print("\n".join(lines))
    return 0


def cmd_calibrate(args) -> int:
    outdir = _outdir(args)
    source, drift, interf, timing, extras = _gather_settings(args)
    n = args.grid
    if n < 2:
        raise ConfigError("--grid must be at least 2")
    phis = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    phi0, phi1 = (a.ravel() for a in np.meshgrid(phis, phis, indexing="ij"))
    score = sum(kernel_verdicts(b.index, phi0, phi1)[:, b.index] for b in BELL_ORDER) / 4.0
    rows = ["phi0_rad\tphi1_rad\tmean_diagonal"]
    rows.extend(
        f"{p0:.9f}\t{p1:.9f}\t{s:.9f}"
        for p0, p1, s in zip(phi0.tolist(), phi1.tolist(), score.tolist())
    )
    top = int(np.argmax(score))  # the first point scanned wins a tie
    best = (float(score[top]), float(phi0[top]), float(phi1[top]))
    (outdir / "calibration_grid.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    settings = _resolved_settings(source, drift, interf, timing, {"grid": n})
    _write_manifest(outdir, "calibrate", settings, args.seed, settings_digest(settings))
    summary = (
        f"best_score={best[0]:.9f}\nbest_phi0_rad={best[1]:.9f}\nbest_phi1_rad={best[2]:.9f}"
    )
    print(summary)
    (outdir / "calibration_report.txt").write_text(summary + "\n", encoding="utf-8")
    return 0


def cmd_transfer(args) -> int:
    outdir = _outdir(args)
    source, drift, interf, timing, extras = _gather_settings(args, transfer=True)
    if args.image:
        image = read_ppm(args.image)
        image_name = str(args.image)
    else:
        image = make_demo_image()
        image_name = "bundled:demo"
    dibits = raster_to_dibits(image)
    result = run_session(dibits, source, drift, interf, timing, args.seed)
    received = dibits_to_raster(result.dibits, image.width, image.height)
    fidelity = image_fidelity(image, received)

    write_ppm(outdir / "received.ppm", received)
    (outdir / "erasures.bin").write_bytes(
        pack_dibits([1 if e else 0 for e in result.erasures])
    )
    stats = result.stats
    lines = [
        f"image={image_name}",
        f"frames={stats.frames}",
        f"payload_bytes={len(pack_dibits(dibits))}",
        f"image_fidelity={fidelity:.6f}",
        f"erasures={stats.erasure_count}",
        f"timeouts={stats.timeout_count}",
        f"elapsed_s={stats.elapsed_s:.3f}",
        f"throughput_bits_per_s={stats.throughput_bits_per_s:.6f}",
        f"recalibrations={stats.recalibrations}",
    ]
    for label in sorted(stats.verdict_counts):
        lines.append(f"verdicts_{label}={stats.verdict_counts[label]}")
    (outdir / "transfer_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    settings = _resolved_settings(source, drift, interf, timing, {"image": image_name})
    _write_manifest(outdir, "transfer", settings, args.seed, settings_digest(settings))
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibersdc",
        description="Simulated dense coding over a fiber Bell-class analyzer.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value settings file")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override one setting (repeatable)",
        )
        p.add_argument("--outdir", help=f"output directory (default ${OUTDIR_ENV} or .)")
        p.add_argument("--seed", type=int, default=1, help="master seed (default 1)")

    p = sub.add_parser("characterize", help="measure the verdict channel")
    common(p)
    p.add_argument(
        "--seconds-per-state",
        type=float,
        default=SECONDS_PER_STATE,
        help="timed run length per sent class",
    )
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("capacity", help="capacity of a count matrix")
    common(p)
    p.add_argument("--counts", help="count matrix file (default: bundled reference)")
    p.add_argument("--resamples", type=int, default=1000, help="bootstrap resamples")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("calibrate", help="sweep static phase offsets")
    common(p)
    p.add_argument("--grid", type=int, default=25, help="grid points per phase axis")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("transfer", help="send a four-gray image")
    common(p)
    p.add_argument("--image", help="P3 PPM in the four-gray palette (default: bundled demo)")
    p.set_defaults(func=cmd_transfer)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return 1
