import re
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibersdc
from fibersdc import noise, sampler
from fibersdc.capacity import channel_capacity, estimate_conditionals
from fibersdc.cli import COMMANDS, _options, _plain_args, build_parser, main
from fibersdc.configs import command_settings
from fibersdc.imagecodec import ImageRaster, read_ppm, write_ppm
from fibersdc.interferometer import InterferometerConfig, verdict_distribution
from fibersdc.kernel import BELL_ORDER, load_counts

ACCEPTED_KEYS = {
    command: {name for cfg in command_settings(command) for name in cfg._fields}
    for command in ("characterize", "transfer")
}

# Not settings: the static loop phases, pair rate, delays, detector resolution
# and retransmission timeout change no output; the run length is an option.
NOT_SETTINGS = [
    "phi0_rad", "phi1_rad", "pair_rate_hz", "delay0_ns", "delay1_ns",
    "detector_resolution_ns", "ack_timeout_s", "seconds_per_state",
]

# Arguments that keep a run short, should it get past its settings.
QUICK_RUN = {"characterize": ["--seconds-per-state", "0.01"], "transfer": []}


def _read_report(path):
    out = {}
    for line in path.read_text().splitlines():
        if "=" in line:
            key, val = line.split("=", 1)
            out[key] = val
    return out


def _manifest_settings(path):
    """The settings lines of a manifest, after its blank line."""
    return path.read_text().split("\n\n", 1)[1].splitlines()


def _tiny_image(path):
    image = ImageRaster(8, 6, bytes([0, 1, 2, 3] * 12))
    write_ppm(path, image)
    return image


# ---------------------------------------------------------------------------
# characterize
# ---------------------------------------------------------------------------


def test_characterize_writes_all_outputs(tmp_path):
    rc = main([
        "characterize", "--outdir", str(tmp_path), "--seed", "3",
        "--seconds-per-state", "0.5",
    ])
    assert rc == 0
    for name in ("counts.txt", "events.csv", "characterization_report.txt",
                 "manifest.txt"):
        assert (tmp_path / name).is_file(), name
    counts = load_counts(tmp_path / "counts.txt")
    report = _read_report(tmp_path / "characterization_report.txt")
    assert int(report["events_total"]) > 200
    kept = sum(int(report[f"kept_{k}"]) for k in
               ("phi_minus", "phi_plus", "psi_minus", "psi_plus"))
    assert kept == counts.sum()
    manifest = (tmp_path / "manifest.txt").read_text()
    assert "command=characterize" in manifest
    assert "master_seed=3" in manifest
    log = (tmp_path / "events.csv").read_text().splitlines()
    rows = log[log.index(noise._LOG_COLUMNS) + 1:]
    assert len(rows) == int(report["events_total"])
    digest = next(line for line in log if line.startswith("# settings_sha256: "))
    assert f"settings_sha256={digest.split(': ', 1)[1]}\n" in manifest
    keys = [line.split("=", 1)[0] for line in _manifest_settings(tmp_path / "manifest.txt")]
    assert keys == sorted(ACCEPTED_KEYS["characterize"] | {"seconds_per_state"})
    assert "seconds_per_state=0.5\n" in manifest


# An ideal link: no drift, no substitution, no accidentals.
CLEAN = ["sigma_rad_per_sqrt_s=0", "source_fidelity=1", "accidental_rate_hz=0"]


def test_characterize_clean_settings_give_diagonal_counts(tmp_path):
    outdir = tmp_path / "run"
    rc = main([
        "characterize", "--outdir", str(outdir), "--seconds-per-state", "0.5",
        *(arg for pair in CLEAN for arg in ("--set", pair)),
    ])
    assert rc == 0
    counts = load_counts(outdir / "counts.txt")
    assert counts.sum() > 0
    assert np.array_equal(counts, np.diag(np.diag(counts)))
    report = _read_report(outdir / "characterization_report.txt")
    for key in ("phi_minus", "phi_plus", "psi_minus", "psi_plus"):
        assert report[f"ambiguous_{key}"] == "0"


def test_a_later_set_of_the_same_key_wins(tmp_path):
    outdir = tmp_path / "run"
    rc = main([
        "characterize", "--outdir", str(outdir), "--seconds-per-state", "1",
        *(arg for pair in CLEAN for arg in ("--set", pair)), "--set", "source_fidelity=0.5",
    ])
    assert rc == 0
    counts = load_counts(outdir / "counts.txt")
    off_diagonal = counts.sum() - np.trace(counts)
    assert off_diagonal > 0
    assert "source_fidelity=0.5\n" in (outdir / "manifest.txt").read_text()


def test_characterize_reports_no_conditionals_for_a_class_without_events(tmp_path):
    # So short a run keeps events of some classes and none of others.
    rc = main([
        "characterize", "--outdir", str(tmp_path), "--seed", "3",
        "--seconds-per-state", "3e-3",
    ])
    assert rc == 0
    counts = load_counts(tmp_path / "counts.txt")
    report = _read_report(tmp_path / "characterization_report.txt")
    kept = counts.sum(axis=1)
    assert kept.all() != kept.any()
    for i, b in enumerate(BELL_ORDER):
        row = report[f"conditionals_{b.label}"]
        if kept[i]:
            assert row == " ".join(f"{c / kept[i]:.6f}" for c in counts[i])
        else:
            assert row == "nan nan nan nan"
            assert report[f"accuracy_{b.label}"] == "nan"


@pytest.mark.parametrize("chunk", [1, 7])
def test_characterize_output_does_not_depend_on_chunk_size(tmp_path, monkeypatch, chunk):
    # Recalibration boundaries and schedule ends fall inside and across chunks.
    argv = ["characterize", "--seed", "5", "--seconds-per-state", "1",
            "--set", "recalibration_period_s=0.35"]
    assert main(argv + ["--outdir", str(tmp_path / "default")]) == 0
    monkeypatch.setattr(sampler, "EVENT_CHUNK", chunk)
    assert main(argv + ["--outdir", str(tmp_path / "small")]) == 0
    for name in ("events.csv", "counts.txt"):
        default = (tmp_path / "default" / name).read_bytes()
        assert (tmp_path / "small" / name).read_bytes() == default, name


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------


def test_capacity_on_bundled_counts(tmp_path):
    rc = main([
        "capacity", "--outdir", str(tmp_path), "--resamples", "50",
    ])
    assert rc == 0
    report = _read_report(tmp_path / "capacity_report.txt")
    assert report["ba_converged"] == "True"
    assert 1.65 < float(report["capacity_bits"]) < 1.68
    assert float(report["bootstrap_std_bits"]) > 0
    assert report["bootstrap_nonconverged"] == "0"
    total = sum(
        float(report[f"optimal_input_{k}"])
        for k in ("phi_minus", "phi_plus", "psi_minus", "psi_plus")
    )
    assert total == pytest.approx(1.0, abs=1e-6)
    assert _manifest_settings(tmp_path / "manifest.txt") == [
        "counts=bundled:characterization_counts.txt", "resamples=50",
    ]


def test_capacity_reads_the_counts_characterize_writes(tmp_path):
    # `kernel.save_counts` writes counts.txt and `kernel.load_counts`
    # reads it back, through the command line.
    assert main([
        "characterize", "--outdir", str(tmp_path / "run"), "--seconds-per-state", "0.5",
    ]) == 0
    path = tmp_path / "run" / "counts.txt"
    assert main([
        "capacity", "--outdir", str(tmp_path / "cap"), "--counts", str(path),
        "--resamples", "10",
    ]) == 0
    report = _read_report(tmp_path / "cap" / "capacity_report.txt")
    assert report["counts"] == str(path)
    want = channel_capacity(estimate_conditionals(load_counts(path))).capacity_bits
    assert report["capacity_bits"] == f"{want:.9f}"
    assert f"counts={path}\n" in (tmp_path / "cap" / "manifest.txt").read_text()


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def test_calibrate_small_grid_finds_origin(tmp_path):
    rc = main(["calibrate", "--outdir", str(tmp_path), "--grid", "5"])
    assert rc == 0
    grid = (tmp_path / "calibration_grid.tsv").read_text().splitlines()
    assert grid[0] == "phi0_rad\tphi1_rad\tmean_diagonal"
    assert len(grid) == 1 + 25
    report = _read_report(tmp_path / "calibration_report.txt")
    assert float(report["best_phi0_rad"]) == 0.0
    assert float(report["best_phi1_rad"]) == 0.0
    assert float(report["best_score"]) == pytest.approx(1.0, abs=1e-9)
    assert _manifest_settings(tmp_path / "manifest.txt") == ["grid=5"]


def test_calibrate_grid_matches_a_state_algebra_sweep(tmp_path):
    assert main(["calibrate", "--outdir", str(tmp_path), "--grid", "7"]) == 0
    cfg = InterferometerConfig()
    rows = ["phi0_rad\tphi1_rad\tmean_diagonal"]
    for p0 in np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False):
        for p1 in np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False):
            c = cfg.with_phases(float(p0), float(p1))
            score = sum(verdict_distribution(b, c).get(b, 0.0) for b in BELL_ORDER) / 4.0
            rows.append(f"{p0:.9f}\t{p1:.9f}\t{score:.9f}")
    assert (tmp_path / "calibration_grid.tsv").read_text() == "\n".join(rows) + "\n"


def test_calibrate_ties_go_to_the_first_point_across_rows(tmp_path):
    # At grid 4, (0, 0), (0, pi), (pi, 0) and (pi, pi) score exactly the
    # same, in two phi0 rows.
    assert main(["calibrate", "--outdir", str(tmp_path), "--grid", "4"]) == 0
    report = _read_report(tmp_path / "calibration_report.txt")
    grid = (tmp_path / "calibration_grid.tsv").read_text().splitlines()
    assert sum(row.endswith(f"\t{report['best_score']}") for row in grid) == 4
    assert float(report["best_phi0_rad"]) == 0.0
    assert float(report["best_phi1_rad"]) == 0.0


def _calibrate_peak_bytes(outdir, grid):
    tracemalloc.start()
    try:
        assert main(["calibrate", "--outdir", str(outdir), "--grid", str(grid)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_calibrate_memory_does_not_grow_with_the_grid(tmp_path):
    main(["calibrate", "--outdir", str(tmp_path), "--grid", "2"])  # one-time allocations
    # four times the points: the 30,000 more rows would add about 6 MB if
    # they were held at once; measured growth is about 20 KB, one row of
    # scores and text
    growth = _calibrate_peak_bytes(tmp_path, 200) - _calibrate_peak_bytes(tmp_path, 100)
    assert growth <= 64 * 1024


# ---------------------------------------------------------------------------
# transfer
# ---------------------------------------------------------------------------


def test_transfer_tiny_image(tmp_path):
    sent = _tiny_image(tmp_path / "tiny.ppm")
    outdir = tmp_path / "out"
    rc = main([
        "transfer", "--outdir", str(outdir), "--seed", "4",
        "--image", str(tmp_path / "tiny.ppm"),
        "--set", "sigma_rad_per_sqrt_s=0",
        "--set", "source_fidelity=1",
        "--set", "accidental_rate_hz=0",
    ])
    assert rc == 0
    report = _read_report(outdir / "transfer_report.txt")
    assert report["frames"] == "48"
    assert report["payload_bytes"] == "12"
    assert float(report["image_fidelity"]) == 1.0
    assert (outdir / "erasures.bin").read_bytes() == bytes(12)
    assert read_ppm(outdir / "received.ppm") == sent
    keys = [line.split("=", 1)[0] for line in _manifest_settings(outdir / "manifest.txt")]
    assert keys == sorted(ACCEPTED_KEYS["transfer"] | {"image"})


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def test_without_outdir_a_run_writes_into_the_working_directory(tmp_path, monkeypatch):
    # --outdir is the only way to name the output directory; the
    # environment is not read.
    monkeypatch.setenv("FIBERSDC_OUTDIR", str(tmp_path / "envdir"))
    monkeypatch.chdir(tmp_path)
    rc = main(["capacity", "--resamples", "10"])
    assert rc == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "capacity_report.txt", "manifest.txt",
    ]


def test_manifest_has_no_timestamps(tmp_path):
    rc = main(["capacity", "--outdir", str(tmp_path), "--resamples", "10"])
    assert rc == 0
    manifest = (tmp_path / "manifest.txt").read_text()
    lines = [l for l in manifest.splitlines() if l and "=" in l]
    keys = {l.split("=", 1)[0] for l in lines}
    assert {"command", "package_version", "stream_version", "master_seed",
            "settings_sha256"} <= keys
    assert "timestamp" not in manifest.lower()
    assert "date" not in manifest.lower()


# ---------------------------------------------------------------------------
# refused command lines
# ---------------------------------------------------------------------------


# Count rows beyond int64: an entry, a row total, and a row total by one.
BIG_COUNTS = [f"{10**29} 1 1 1", f"{2**62} {2**62} {2**62} {2**62}", f"{2**63 - 1} 1 0 0"]

# The files the refused command lines read, in the working directory.
INPUTS = {
    "settings.cfg": b"grid = 3\n",
    "binary.ppm": b"P6\n2 1\n255\n\xff\x00\x00\xff\x00\x00",  # not UTF-8
    "digits.ppm": ("P3 \u0663 1 255" + " 0" * 9).encode(),  # an Arabic-Indic 3
    "spelled.txt": ("1_0 +2 \u0663 4\n" + "1 1 1 1\n" * 3).encode(),  # int() takes each
    "blocker": b"",  # a file where a directory should be
    **{f"counts{i}.txt": (row + "\n" + "1 1 1 1\n" * 3).encode()
       for i, row in enumerate(BIG_COUNTS)},
}


def _set(command, *pairs):
    """`command`, kept short should it run, with one --set per pair."""
    return [command, *QUICK_RUN[command], *(arg for pair in pairs for arg in ("--set", pair))]


def _non_finite(key, value):
    """A key goes through a command that accepts it, so its own finiteness
    check runs; a name no command accepts is refused as unknown."""
    command = "characterize" if key in ACCEPTED_KEYS["characterize"] else "transfer"
    want = f"{key} must be finite" if key in ACCEPTED_KEYS[command] else f"unknown setting '{key}'"
    return _set(command, f"{key}={value}"), [want]


RATES = ["coincidence_rate_hz", "accidental_rate_hz"]
TIMELINE = ["message_latency_s", "encoder_settle_s", "frame_window_s"]
PAUSES = ["recalibration_period_s", "recalibration_pause_s"]

# Every command line that must be refused, with what its message must
# hold.  `--outdir out` is appended to a line that names no output
# directory.
BAD_COMMAND_LINES = [
    *((["characterize", "--seconds-per-state", s], ["seconds_per_state must be finite"])
      for s in ("0", "nan", "inf")),
    (["calibrate", "--grid", "1"], ["--grid must be at least 2"]),
    (["capacity", "--resamples", "1"], ["need at least 2 resamples"]),
    # Runs of more than 2**52 arrivals, which never reach their end.
    (["characterize", "--set", "coincidence_rate_hz=1e300"], [*RATES, "seconds_per_state"]),
    (["characterize", "--seconds-per-state", "1e300"], [*RATES, "seconds_per_state"]),
    # Each rate is finite and their sum is not.
    *((_set(c, *(f"{k}=1e308" for k in RATES)), RATES) for c in ("characterize", "transfer")),
    # One step is finite and the window closes summed over the session are not.
    *((_set("transfer", f"{key}=1e308"), TIMELINE) for key in TIMELINE[:2]),
    # The recalibration count overflows, or it is finite and its pauses
    # overflow the elapsed time.
    (_set("transfer", "message_latency_s=1e300", "recalibration_period_s=1e-6"), PAUSES),
    (_set("transfer", "recalibration_pause_s=1e308", "recalibration_period_s=1e-6"), PAUSES),
    # 5e-324 s passes a positivity check, then overflows the period count.
    *((_set(c, "recalibration_period_s=5e-324"), ["recalibration_period_s must be at least 1e-6"])
      for c in ("characterize", "transfer")),
    *((_set(c, f"{key}=1"), [f"unknown setting '{key}'"]) for c, key in [
        ("characterize", "warp_factor"), ("characterize", "message_latency_s"),
        ("characterize", "seconds_per_state"), ("transfer", "seconds_per_state"),
        *((c, key) for c in ("characterize", "transfer") for key in ("phi0_rad", "phi1_rad")),
    ]),
    *(_non_finite(key, value) for value in ("nan", "inf", "-inf")
      for key in sorted(set().union(*ACCEPTED_KEYS.values())) + NOT_SETTINGS),
    (["characterize", "--set", "source_fidelity"], ["--set: expected key=value"]),
    (_set("characterize", "source_fidelity=abc"), ["bad number for source_fidelity"]),
    (["transfer", "--image", "absent.ppm"], ["cannot read image absent.ppm"]),
    (["transfer", "--image", "digits.ppm"], ["bad image header"]),
    (["capacity", "--counts", "absent.txt"], ["cannot read counts file absent.txt"]),
    (["capacity", "--counts", "spelled.txt"],
     ["counts file spelled.txt", "four ASCII decimal counts", "'1_0 +2 \u0663 4'"]),
    *(([c, option, "binary.ppm"], ["binary.ppm", "utf-8"])
      for c, option in [("transfer", "--image"), ("capacity", "--counts")]),
    *((["capacity", "--counts", f"counts{i}.txt"], [row]) for i, row in enumerate(BIG_COUNTS)),
    *((["capacity", "--outdir", d], [f"output directory {d}"]) for d in ("blocker", "blocker/sub")),
    # Refused while parsing.
    *(([c, "--set", "grid=3"], ["unrecognized arguments: --set grid=3"])
      for c in ("calibrate", "capacity")),
    # No command takes a settings file: settings have one way in, --set.
    *(([c, "--config", "settings.cfg"], ["unrecognized arguments: --config settings.cfg"])
      for c in COMMANDS),
    *(([c, "--seed", seed], [f"argument --seed: must be a non-negative integer, got '{seed}'"])
      for c in COMMANDS for seed in ("-1", "-9223372036854775808")),
    (["bogus"], ["invalid choice: 'bogus'", *COMMANDS]),
]


@pytest.mark.parametrize(
    "argv, wants", BAD_COMMAND_LINES, ids=[" ".join(argv) for argv, _ in BAD_COMMAND_LINES]
)
def test_a_bad_command_line_is_refused(tmp_path, monkeypatch, capsys, argv, wants):
    # Exit code 2, a message with every wanted string, and no report or
    # manifest.  A line refused while parsing leaves no output directory; one
    # refused after it leaves the directory created and empty, unless that
    # directory cannot be made.
    monkeypatch.chdir(tmp_path)
    for name, data in INPUTS.items():
        (tmp_path / name).write_bytes(data)
    before = set(tmp_path.rglob("*"))
    outdir = [] if "--outdir" in argv else ["--outdir", "out"]
    try:
        rc, parsed = main([*argv, *outdir]), True
    except SystemExit as exc:
        rc, parsed = exc.code, False
    assert rc == 2
    err = capsys.readouterr().err
    assert all(want in err for want in wants), err
    made = set(tmp_path.rglob("*")) - before
    assert made == ({tmp_path / "out"} if parsed and outdir else set())
    assert all(path.is_dir() for path in made)


# ---------------------------------------------------------------------------
# command-line parsing
# ---------------------------------------------------------------------------


def _values(args):
    """`vars(args)` with each value as its repr, so that types are compared
    and a NaN equals itself; None for no namespace."""
    return None if args is None else {key: repr(value) for key, value in vars(args).items()}


def _argparse_args(argv):
    return _values(build_parser().parse_args(argv))


def _plain(argv):
    return _values(_plain_args(argv))


# Command lines drawn from the grammar: mostly the command's own exact
# option names, and also other commands' names, abbreviations, unknown
# names, `-h` and `--`, each alone, with an `=` value or with a separate
# value, and stray values.
_FLAGS = sorted({flag for command in COMMANDS for flag, *_ in _options(command)})
_ODD_NAMES = st.one_of(
    st.sampled_from(_FLAGS),
    st.builds(lambda flag, n: flag[:n], st.sampled_from(_FLAGS), st.integers(3, 12)),
    st.sampled_from(["--bogus", "-h", "--help", "--", "--version", "-s"]),
)
_VALUES = st.one_of(
    st.integers(-3, 300).map(str),
    st.sampled_from(["", "x", "0.5", "nan", "1e400", "grid=3", "a=b=c", " 7"]),
    st.sampled_from(["-", "-x", "-1.5", "--grid", "--seed=2"]),
    st.text(max_size=4),
)


def _with_value(names, values):
    """`--name value` or `--name=value`."""
    pairs = st.tuples(names, values)
    return st.one_of(pairs, pairs.map(lambda pair: ("=".join(pair),)))


def _tokens(names):
    return st.one_of(_with_value(names, _VALUES), st.tuples(names), st.tuples(_VALUES))


def _argv(head, tokens):
    return [*head, *(arg for token in tokens for arg in token)]


def _command_line(command):
    """`command`, mostly its own options with a number or any value, and
    at most one odd token anywhere among them."""
    own = st.sampled_from([flag for flag, *_ in _options(command)])
    usual = _with_value(own, st.one_of(st.integers(0, 300).map(str), _VALUES))
    return st.builds(
        lambda tokens, odd, at: _argv([command], tokens[:at] + odd + tokens[at:]),
        st.lists(usual, max_size=4),
        st.lists(_tokens(st.one_of(own, _ODD_NAMES)), max_size=1),
        st.integers(0, 4),
    )


_ARGV = st.one_of(
    st.sampled_from(list(COMMANDS)).flatmap(_command_line),
    st.builds(
        _argv,
        st.sampled_from([(), ("bogus",), ("cal",), ("-h",), ("--version",)]),
        st.lists(_tokens(_ODD_NAMES), max_size=3),
    ),
)


@settings(max_examples=400, deadline=None)
@given(_ARGV)
def test_the_plain_parse_agrees_with_argparse_wherever_it_accepts(argv):
    plain = _plain(argv)
    if plain is not None:
        assert plain == _argparse_args(argv)


@pytest.mark.parametrize("argv, want", [
    (["calibrate"], {"grid": "25", "seed": "1", "outdir": "None"}),
    (["calibrate", "--seed=5"], {"seed": "5"}),
    (["calibrate", "--grid", "3", "--grid=4", "--seed", "2", "--seed=7"],
     {"grid": "4", "seed": "7"}),
    (["capacity", "--outdir", ""], {"outdir": "''", "resamples": "1000"}),
    (["characterize", "--set", "a=1", "--set=b=2", "--seconds-per-state", "nan"],
     {"set": "['a=1', 'b=2']", "seconds_per_state": "nan", "outdir": "None"}),
    (["transfer", "--outdir=-x", "--image", "in.ppm"],
     {"outdir": "'-x'", "image": "'in.ppm'", "set": "None"}),
])
def test_the_plain_parse_takes_exact_names_and_the_last_value(argv, want):
    plain = _plain(argv)
    assert plain == _argparse_args(argv)
    assert plain["command"] == repr(argv[0])
    assert {key: plain[key] for key in want} == want


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["--version"], ["calibrate", "-h"], ["calibrate", "--"],
    ["capacity", "--res", "10"], ["calibrate", "--grid"], ["calibrate", "--seed", "-1"],
    ["calibrate", "--seed", "x"], ["calibrate", "--set", "grid=3"], ["calibrate", "3"],
])
def test_the_plain_parse_leaves_the_rest_to_argparse(argv):
    assert _plain_args(argv) is None


def test_an_abbreviation_resolves_through_argparse(tmp_path):
    assert main(["capacity", "--res", "10", "--outdir", str(tmp_path)]) == 0
    assert "resamples=10\n" in (tmp_path / "manifest.txt").read_text()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_no_option_default_is_a_string(command):
    # argparse passes a string default through the option's converter.
    assert not any(isinstance(default, str) for _, _, default, _ in _options(command))


# ---------------------------------------------------------------------------
# documentation and package surface
# ---------------------------------------------------------------------------


# The help text of `fibersdc --help` and of each command, at 80 columns.
HELP = {
    "": """\
usage: fibersdc [-h] [--version]
                {characterize,capacity,calibrate,transfer} ...

Simulated dense coding over a fiber Bell-class analyzer.

positional arguments:
  {characterize,capacity,calibrate,transfer}
    characterize        measure the verdict channel
    capacity            capacity of a count matrix
    calibrate           sweep static phase offsets
    transfer            send a four-gray image

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    "characterize": """\
usage: fibersdc characterize [-h] [--set KEY=VALUE] [--outdir OUTDIR]
                             [--seed SEED]
                             [--seconds-per-state SECONDS_PER_STATE]

options:
  -h, --help            show this help message and exit
  --set KEY=VALUE       override one setting (repeatable); keys:
                        coincidence_rate_hz, source_fidelity,
                        accidental_rate_hz, sigma_rad_per_sqrt_s,
                        recalibration_period_s, recalibration_residual_rad
  --outdir OUTDIR       output directory (default .)
  --seed SEED           master seed (default 1)
  --seconds-per-state SECONDS_PER_STATE
                        timed run length per sent class
""",
    "capacity": """\
usage: fibersdc capacity [-h] [--outdir OUTDIR] [--seed SEED]
                         [--counts COUNTS] [--resamples RESAMPLES]

options:
  -h, --help            show this help message and exit
  --outdir OUTDIR       output directory (default .)
  --seed SEED           master seed (default 1)
  --counts COUNTS       count matrix file (default: bundled reference)
  --resamples RESAMPLES
                        bootstrap resamples
""",
    "calibrate": """\
usage: fibersdc calibrate [-h] [--outdir OUTDIR] [--seed SEED] [--grid GRID]

options:
  -h, --help       show this help message and exit
  --outdir OUTDIR  output directory (default .)
  --seed SEED      master seed (default 1)
  --grid GRID      grid points per phase axis
""",
    "transfer": """\
usage: fibersdc transfer [-h] [--set KEY=VALUE] [--outdir OUTDIR]
                         [--seed SEED] [--image IMAGE]

options:
  -h, --help       show this help message and exit
  --set KEY=VALUE  override one setting (repeatable); keys:
                   coincidence_rate_hz, source_fidelity, accidental_rate_hz,
                   sigma_rad_per_sqrt_s, recalibration_period_s,
                   recalibration_residual_rad, message_latency_s,
                   encoder_settle_s, frame_window_s, recalibration_pause_s
  --outdir OUTDIR  output directory (default .)
  --seed SEED      master seed (default 1)
  --image IMAGE    P3 PPM in the four-gray palette (default: bundled demo)
""",
}


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_text_is_unchanged(monkeypatch, capsys, command):
    # The help is argparse's, from a parser built out of the option tables
    # (`cli._options`), which the plain parse of a run reads as well.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main([command, "--help"] if command else ["--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out == HELP[command]


def test_readme_settings_table_lists_each_key_with_its_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Settings\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| [^|]* \| ([^|]*) \|", section, re.M)
    table = {key: set(commands.replace(" ", "").split(",")) for key, commands in rows}
    want = {
        key: {command for command, keys in ACCEPTED_KEYS.items() if key in keys}
        for key in set().union(*ACCEPTED_KEYS.values())
    }
    assert table == want


def test_public_names_resolve_and_are_not_modules():
    assert len(set(fibersdc.__all__)) == len(fibersdc.__all__)
    for name in fibersdc.__all__:
        assert not isinstance(getattr(fibersdc, name), types.ModuleType), name
    # The package resolves names on first access: a star import binds
    # every public name, and an unknown one is an AttributeError.
    namespace = {}
    exec("from fibersdc import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(fibersdc.__all__)
    assert namespace["SourceConfig"] is noise.SourceConfig
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(fibersdc, "no_such_name")
