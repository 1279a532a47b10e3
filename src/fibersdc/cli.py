"""Command-line front end: the parser, `main` and the helpers the
commands share.

Four subcommands cover the package's workflows:

    characterize   timed verdict-channel measurement, writes counts
    capacity       channel capacity of a count matrix, with bootstrap
    calibrate      sweep static phase offsets, score the verdict diagonal
    transfer       send a four-gray image over the simulated link

Every run writes a manifest (subcommand, resolved settings, their hash,
seed, package version, random-stream version, no timestamps), so
rerunning with the same seed and settings reproduces every output byte
for byte.  `characterize` and `transfer` take settings, the fields of
their default configs (`configs.command_settings`), from an optional
key=value config file plus repeatable --set overrides, merged by
`configs.merged_settings`; `calibrate` and `capacity` depend on no
setting and take neither option.  The output directory falls back to
$FIBERSDC_OUTDIR, then the current directory.  Exit codes: 0 success,
2 configuration problem, 1 anything else.

A command loads only what it runs.  The parser registers every
subcommand by name and help, and only the invoked one builds its
options.  Each command's body is its own module,
`fibersdc.commands.<name>`, which `main` imports after parsing, so a
process compiles one body and the layers that body imports.  The
settings merge lives in `configs`, which the settings options import
when they are built, so only `characterize` and `transfer` load or
compile it.  `calibrate` loads the kernel and no numpy (its sweep needs
only `math`); `capacity` the capacity layer; `characterize` the timed
run (`noise`), which also writes the counts, and the sampler; `transfer`
the session (`protocol`), the sampler and the image codec, and neither
the timed run nor the wire codec.  No command loads the state algebra
or `dataclasses`.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module
from pathlib import Path

from . import __version__
from .errors import ConfigError
from .seeds import STREAM_VERSION, sha256

OUTDIR_ENV = "FIBERSDC_OUTDIR"


def _settings_body(settings: dict[str, str]) -> str:
    return "".join(f"{k}={settings[k]}\n" for k in sorted(settings))


def settings_digest(settings: dict[str, str]) -> str:
    """SHA-256 of the resolved settings, one `key=value` line per key."""
    return sha256(_settings_body(settings).encode("utf-8")).hexdigest()


def write_report(
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


def output_dir(args) -> Path:
    """The run's output directory, created if missing."""
    path = Path(args.outdir or os.environ.get(OUTDIR_ENV) or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {path}: {exc}") from exc
    return path


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
    from .configs import command_settings

    keys = ", ".join(name for cfg in command_settings(command) for name in cfg._fields)
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
    for name, add_options, help in [
        ("characterize", _characterize_options, "measure the verdict channel"),
        ("capacity", _capacity_options, "capacity of a count matrix"),
        ("calibrate", _calibrate_options, "sweep static phase offsets"),
        ("transfer", _transfer_options, "send a four-gray image"),
    ]:
        sub.add_parser(name, help=help, add_options=add_options)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        command = import_module(f"{__package__}.commands.{args.command}")
        return command.run(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return 1
