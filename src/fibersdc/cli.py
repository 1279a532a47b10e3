"""Command-line front end.

Four subcommands cover the package's workflows:

    characterize   timed verdict-channel measurement, writes counts
    capacity       channel capacity of a count matrix, with bootstrap
    calibrate      sweep static phase offsets, score the verdict diagonal
    transfer       send a four-gray image over the simulated link

Every run writes a manifest (subcommand, resolved settings, their hash,
seed, package version, random-stream version, no timestamps), so
rerunning with the same seed and settings reproduces every output byte
for byte.  `characterize` and `transfer` take settings, the fields of
their default configs (`command_settings`), from an optional key=value
config file plus repeatable --set overrides; `calibrate` and `capacity`
depend on no setting and take neither option.  The output directory
falls back to $FIBERSDC_OUTDIR, then the current directory.  Exit codes:
0 success, 2 configuration problem, 1 anything else.

A command loads only what it runs.  The parser registers every
subcommand by name and help, and only the invoked one builds its
options.  The settings merge and the settings options load `configs`
(and `dataclasses`), so only `characterize` and `transfer` load them.
Each command imports its layers when it runs: `calibrate` the kernel,
`capacity` the capacity layer and the kernel's class labels,
`characterize` the sampler and the capacity layer, `transfer` the
protocol and the image codec.  No command loads the state algebra.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError
from .seeds import STREAM_VERSION, sha256, substream

OUTDIR_ENV = "FIBERSDC_OUTDIR"


def command_settings(command: str) -> tuple:
    """Default configs of a command that takes settings, `characterize`
    or `transfer`; their fields are the keys it accepts."""
    from . import configs

    return {
        "characterize": (configs.CHARACTERIZATION_SOURCE, configs.CHARACTERIZATION_DRIFT),
        "transfer": (configs.TRANSFER_SOURCE, configs.TRANSFER_DRIFT, configs.DEFAULT_TIMING),
    }[command]


def merge_settings(defaults: tuple, config_file, overrides) -> tuple:
    """`defaults` with the key=value lines of `config_file` (if not None)
    applied, then the `overrides` (KEY=VALUE strings, as given to --set).

    A key that no default config has is rejected.  Each config is rebuilt
    with `dataclasses.replace`, so its own checks run on the merged values.
    """
    from dataclasses import fields, replace

    owner = {f.name: i for i, cfg in enumerate(defaults) for f in fields(cfg)}
    changes: list[dict[str, float]] = [{} for _ in defaults]

    def put(where: str, text: str) -> None:
        if "=" not in text:
            raise ConfigError(f"{where}expected key=value, got {text!r}")
        key, val = (part.strip() for part in text.split("=", 1))
        if key not in owner:
            raise ConfigError(f"{where}unknown setting {key!r}")
        try:
            changes[owner[key]][key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"{where}bad number for {key}: {val!r}") from exc

    if config_file is not None:
        try:
            text = Path(config_file).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {config_file}: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                put(f"{config_file}:{lineno}: ", line)
    for pair in overrides:
        put("--set: ", pair)
    return tuple(replace(cfg, **kw) for cfg, kw in zip(defaults, changes))


def _settings(args) -> tuple:
    return merge_settings(command_settings(args.command), args.config, args.set or ())


def _resolved_settings(configs: tuple, **extras) -> dict[str, str]:
    """Every field of the merged configs and each extra input, as repr."""
    from dataclasses import fields

    out = {f.name: repr(getattr(cfg, f.name)) for cfg in configs for f in fields(cfg)}
    out.update((k, repr(v)) for k, v in extras.items())
    return out


def _settings_body(settings: dict[str, str]) -> str:
    return "".join(f"{k}={settings[k]}\n" for k in sorted(settings))


def settings_digest(settings: dict[str, str]) -> str:
    """SHA-256 of the resolved settings, one `key=value` line per key."""
    return sha256(_settings_body(settings).encode("utf-8")).hexdigest()


def _write_report(
    args, outdir: Path, name: str, lines: list[str], settings: dict[str, str]
) -> None:
    """Write the report `name` and the run's manifest to `outdir`, then
    echo the report to stdout."""
    report = "".join(f"{line}\n" for line in lines)
    (outdir / name).write_text(report, encoding="utf-8")
    manifest = [
        f"command={args.command}",
        f"package_version={__version__}",
        f"stream_version={STREAM_VERSION}",
        f"master_seed={args.seed}",
        f"settings_sha256={settings_digest(settings)}",
        "",
    ]
    body = "".join(f"{line}\n" for line in manifest) + _settings_body(settings)
    (outdir / "manifest.txt").write_text(body, encoding="utf-8")
    print(report, end="")


def _outdir(args) -> Path:
    path = Path(args.outdir or os.environ.get(OUTDIR_ENV) or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {path}: {exc}") from exc
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_characterize(args) -> int:
    from .capacity import save_counts
    from .kernel import BELL_ORDER
    from .noise import append_events, iter_event_chunks, open_event_log, tally_verdicts

    outdir = _outdir(args)
    source, drift = _settings(args)
    seconds = args.seconds_per_state
    if not (math.isfinite(seconds) and seconds > 0):
        raise ConfigError(f"seconds_per_state must be finite and positive, got {seconds!r}")
    schedule = [(b, seconds) for b in BELL_ORDER]
    settings = _resolved_settings((source, drift), seconds_per_state=seconds)

    # Each chunk is tallied and logged, then dropped: memory stays bounded.
    counts = np.zeros((len(BELL_ORDER), len(BELL_ORDER)), dtype=np.int64)
    ambiguous = np.zeros(len(BELL_ORDER), dtype=np.int64)
    header = {"settings_sha256": settings_digest(settings), "master_seed": str(args.seed)}
    with open_event_log(outdir / "events.csv", header) as log:
        rng = substream(args.seed, "characterize")
        for chunk in iter_event_chunks(schedule, source, drift, rng):
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
    _write_report(args, outdir, "characterization_report.txt", lines, settings)
    return 0


def cmd_capacity(args) -> int:
    from .capacity import (
        bootstrap_spread,
        channel_capacity,
        estimate_conditionals,
        load_counts,
        load_reference_counts,
        mutual_information,
    )
    from .kernel import BELL_ORDER

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
    settings = {"counts": counts_name, "resamples": repr(args.resamples)}
    _write_report(args, outdir, "capacity_report.txt", lines, settings)
    return 0


def cmd_calibrate(args) -> int:
    from .kernel import BELL_ORDER, kernel_verdicts

    outdir = _outdir(args)
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
    (outdir / "calibration_grid.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    top = int(np.argmax(score))  # the first point scanned wins a tie
    lines = [
        f"best_score={score[top]:.9f}",
        f"best_phi0_rad={phi0[top]:.9f}",
        f"best_phi1_rad={phi1[top]:.9f}",
    ]
    _write_report(args, outdir, "calibration_report.txt", lines, {"grid": repr(n)})
    return 0


def cmd_transfer(args) -> int:
    from .configs import DEFAULT_INTERFEROMETER
    from .imagecodec import (
        dibits_to_raster,
        image_fidelity,
        make_demo_image,
        pack_dibits,
        raster_to_dibits,
        read_ppm,
        write_ppm,
    )
    from .protocol import run_session

    outdir = _outdir(args)
    source, drift, timing = _settings(args)
    if args.image:
        image = read_ppm(args.image)
        image_name = str(args.image)
    else:
        image = make_demo_image()
        image_name = "bundled:demo"
    dibits = raster_to_dibits(image)
    result = run_session(dibits, source, drift, DEFAULT_INTERFEROMETER, timing, args.seed)
    received = dibits_to_raster(result.dibits, image.width, image.height)
    fidelity = image_fidelity(image, received)

    write_ppm(outdir / "received.ppm", received)
    (outdir / "erasures.bin").write_bytes(pack_dibits(result.erasures))
    stats = result.stats
    lines = [
        f"image={image_name}",
        f"frames={stats.frames}",
        f"payload_bytes={(len(dibits) + 3) // 4}",
        f"image_fidelity={fidelity:.6f}",
        f"erasures={stats.erasure_count}",
        f"timeouts={stats.timeout_count}",
        f"elapsed_s={stats.elapsed_s:.3f}",
        f"throughput_bits_per_s={stats.throughput_bits_per_s:.6f}",
        f"recalibrations={stats.recalibrations}",
    ]
    for label in sorted(stats.verdict_counts):
        lines.append(f"verdicts_{label}={stats.verdict_counts[label]}")
    settings = _resolved_settings((source, drift, timing), image=image_name)
    _write_report(args, outdir, "transfer_report.txt", lines, settings)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, which adds its options with `add_options`
    when it first parses: a run builds the options of its own command
    only, and the other commands stay a name and a help line."""

    def __init__(self, *args, add_options, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_options = add_options

    def parse_known_args(self, args=None, namespace=None):
        if self._add_options is not None:
            self._add_options(self)
            self._add_options = None
        return super().parse_known_args(args, namespace)


def _settings_options(p: argparse.ArgumentParser, command: str) -> None:
    from dataclasses import fields

    keys = ", ".join(f.name for cfg in command_settings(command) for f in fields(cfg))
    p.add_argument("--config", help="key=value settings file")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help=f"override one setting (repeatable); keys: {keys}",
    )


def _seed(text: str) -> int:
    """`--seed`: a non-negative integer.  A non-integer gets argparse's
    own `type=int` message."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def _run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--outdir", help=f"output directory (default ${OUTDIR_ENV} or .)")
    p.add_argument("--seed", type=_seed, default=1, help="master seed (default 1)")


def _characterize_options(p: argparse.ArgumentParser) -> None:
    from .configs import SECONDS_PER_STATE

    _settings_options(p, "characterize")
    _run_options(p)
    p.add_argument(
        "--seconds-per-state",
        type=float,
        default=SECONDS_PER_STATE,
        help="timed run length per sent class",
    )


def _capacity_options(p: argparse.ArgumentParser) -> None:
    _run_options(p)
    p.add_argument("--counts", help="count matrix file (default: bundled reference)")
    p.add_argument("--resamples", type=int, default=1000, help="bootstrap resamples")


def _calibrate_options(p: argparse.ArgumentParser) -> None:
    _run_options(p)
    p.add_argument("--grid", type=int, default=25, help="grid points per phase axis")


def _transfer_options(p: argparse.ArgumentParser) -> None:
    _settings_options(p, "transfer")
    _run_options(p)
    p.add_argument("--image", help="P3 PPM in the four-gray palette (default: bundled demo)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibersdc",
        description="Simulated dense coding over a fiber Bell-class analyzer.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, func, add_options, help in [
        ("characterize", cmd_characterize, _characterize_options, "measure the verdict channel"),
        ("capacity", cmd_capacity, _capacity_options, "capacity of a count matrix"),
        ("calibrate", cmd_calibrate, _calibrate_options, "sweep static phase offsets"),
        ("transfer", cmd_transfer, _transfer_options, "send a four-gray image"),
    ]:
        sub.add_parser(name, help=help, add_options=add_options).set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return 1
