"""Command-line front end: the parser and `main`, which owns each run's
output directory, report and manifest.

Four subcommands cover the package's workflows:

    characterize   timed verdict-channel measurement, writes counts
    capacity       channel capacity of a count matrix, with bootstrap
    calibrate      sweep static phase offsets, score the verdict diagonal
    transfer       send a four-gray image over the simulated link

Every run writes a manifest (subcommand, resolved settings, their hash,
seed, package version, random-stream version, no timestamps), so
rerunning with the same seed and settings reproduces every output byte
for byte.  `main` creates the output directory, runs the command's body,
which writes its own files there and returns its report, and then writes
the report and the manifest and echoes the report, so a failed run
writes neither.  `characterize` and `transfer` take settings, the fields of
their default configs (`configs.command_settings`), only from repeatable
--set KEY=VALUE overrides, merged by `configs.merged_settings`;
`calibrate` and `capacity` depend on no setting and do not take --set.
The output directory is --outdir, or the current directory without it.
Exit codes: 0 success, 2 configuration problem, 1 anything else.

A command loads only what it runs.  Each command's options are one
table (`_options`), the only statement of the grammar.  `main` parses a
well-formed command line, the command and its exact option names, with
a plain loop over that table; only what the loop declines (help,
`--version`, an abbreviation, any error) builds the argparse parser
from the same table, so argparse loads only then.  Each command's body
is its own module, `fibersdc.commands.<name>`, which `main` imports
after parsing, so a process compiles one body and the layers that body
imports.  The settings and their merge live in `configs`, which only
the tables of `characterize` and `transfer` read (the `--set` help and
the `--seconds-per-state` default), so only those two commands load or
compile it.  What each command loads, and must not, is stated and
checked once, by `FOOTPRINTS` in tests/test_imports.py.
"""

from __future__ import annotations

import sys
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .errors import ConfigError
from .seeds import STREAM_VERSION, sha256


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
    path = Path(args.outdir or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {path}: {exc}") from exc
    return path


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    """`--seed`: a non-negative integer.  A non-integer gets argparse's
    own `type=int` message."""
    try:
        seed = int(text)
        problem = "must be a non-negative integer, got" if seed < 0 else None
    except ValueError:
        problem = "invalid int value:"
    if problem:
        from argparse import ArgumentTypeError

        raise ArgumentTypeError(f"{problem} {text!r}")
    return seed


# The commands, in help order, and their help lines.
COMMANDS = {
    "characterize": "measure the verdict channel",
    "capacity": "capacity of a count matrix",
    "calibrate": "sweep static phase offsets",
    "transfer": "send a four-gray image",
}

_RUN_OPTIONS = (
    ("--outdir", str, None, "output directory (default .)"),
    ("--seed", _seed, 1, "master seed (default 1)"),
)


def _options(command: str) -> tuple:
    """`command`'s options in help order, each (flag, converter, default,
    help); `--set` appends its values.  No default is a string: argparse
    would convert one."""
    if command == "capacity":
        return (
            *_RUN_OPTIONS,
            ("--counts", str, None, "count matrix file (default: bundled reference)"),
            ("--resamples", int, 1000, "bootstrap resamples"),
        )
    if command == "calibrate":
        return (*_RUN_OPTIONS, ("--grid", int, 25, "grid points per phase axis"))
    from .configs import SECONDS_PER_STATE, command_settings

    keys = ", ".join(name for cfg in command_settings(command) for name in cfg._fields)
    set_option = ("--set", str, None, f"override one setting (repeatable); keys: {keys}")
    if command == "characterize":
        last = ("--seconds-per-state", float, SECONDS_PER_STATE, "timed run length per sent class")
    else:
        last = ("--image", str, None, "P3 PPM in the four-gray palette (default: bundled demo)")
    return (set_option, *_RUN_OPTIONS, last)


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for `argv`, parsed without argparse,
    or None to leave `argv` to argparse.  This takes a command and then
    only its exact option names, as `--name value` or `--name=value`;
    the last value wins and an absent option takes its default.  It
    declines anything else (no command, an abbreviation, `-h`, `--`, a
    missing value, a separate value starting with `-`) and any value the
    converter rejects, so argparse reports it."""
    if not argv or argv[0] not in COMMANDS:
        return None
    options = _options(argv[0])
    converters = {flag: convert for flag, convert, _, _ in options}
    values = {flag: default for flag, _, default, _ in options}
    rest = iter(argv[1:])
    for arg in rest:
        flag, equals, text = arg.partition("=")
        if flag not in converters:
            return None
        if not equals:
            text = next(rest, "-")
            if text.startswith("-"):
                return None
        try:
            value = converters[flag](text)
        except Exception:  # argparse converts it again, then reports or raises it
            return None
        values[flag] = [*(values[flag] or ()), value] if flag == "--set" else value
    dests = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
    return SimpleNamespace(command=argv[0], **dests)


def build_parser():
    """The argparse parser of every command's options: it parses what
    `_plain_args` declines, and gives the help, `--version` and every
    error message."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="fibersdc",
        description="Simulated dense coding over a fiber Bell-class analyzer.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help in COMMANDS.items():
        p = sub.add_parser(name, help=help)
        for flag, convert, default, text in _options(name):
            if flag == "--set":
                p.add_argument(flag, action="append", metavar="KEY=VALUE", help=text)
            else:
                p.add_argument(flag, type=convert, default=default, help=text)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        command = import_module(f"{__package__}.commands.{args.command}")
        outdir = output_dir(args)
        name, lines, settings = command.run(args, outdir)
        write_report(args, outdir, name, lines, settings)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return 1
