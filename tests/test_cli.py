import re
import types
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import fibersdc
from fibersdc import noise
from fibersdc.capacity import load_counts
from fibersdc.cli import command_settings, main
from fibersdc.imagecodec import ImageRaster, read_ppm, write_ppm
from fibersdc.interferometer import InterferometerConfig, verdict_distribution
from fibersdc.noise import read_event_log
from fibersdc.states import BELL_ORDER

ACCEPTED_KEYS = {
    command: {f.name for cfg in command_settings(command) for f in fields(cfg)}
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
    events, header = read_event_log(tmp_path / "events.csv")
    assert len(events) == int(report["events_total"])
    assert f"settings_sha256={header['settings_sha256']}\n" in manifest
    keys = [line.split("=", 1)[0] for line in _manifest_settings(tmp_path / "manifest.txt")]
    assert keys == sorted(ACCEPTED_KEYS["characterize"] | {"seconds_per_state"})
    assert "seconds_per_state=0.5\n" in manifest


def test_characterize_clean_settings_give_diagonal_counts(tmp_path):
    cfg = tmp_path / "clean.cfg"
    cfg.write_text(
        "# ideal link\n"
        "sigma_rad_per_sqrt_s = 0\n"
        "source_fidelity = 1\n"
        "accidental_rate_hz = 0\n"
    )
    outdir = tmp_path / "run"
    rc = main([
        "characterize", "--outdir", str(outdir), "--config", str(cfg),
        "--seconds-per-state", "0.5",
    ])
    assert rc == 0
    counts = load_counts(outdir / "counts.txt")
    assert counts.sum() > 0
    assert np.array_equal(counts, np.diag(np.diag(counts)))
    report = _read_report(outdir / "characterization_report.txt")
    for key in ("phi_minus", "phi_plus", "psi_minus", "psi_plus"):
        assert report[f"ambiguous_{key}"] == "0"


def test_set_overrides_config_file(tmp_path):
    cfg = tmp_path / "clean.cfg"
    cfg.write_text("sigma_rad_per_sqrt_s = 0\nsource_fidelity = 1\naccidental_rate_hz = 0\n")
    outdir = tmp_path / "run"
    rc = main([
        "characterize", "--outdir", str(outdir), "--config", str(cfg),
        "--set", "source_fidelity=0.5", "--seconds-per-state", "1",
    ])
    assert rc == 0
    counts = load_counts(outdir / "counts.txt")
    off_diagonal = counts.sum() - np.trace(counts)
    assert off_diagonal > 0


def test_characterize_is_byte_reproducible(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        rc = main([
            "characterize", "--outdir", str(d), "--seed", "11",
            "--seconds-per-state", "0.5",
        ])
        assert rc == 0
    for name in ("counts.txt", "events.csv", "characterization_report.txt",
                 "manifest.txt"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_characterize_rejects_bad_duration(tmp_path):
    rc = main([
        "characterize", "--outdir", str(tmp_path), "--seconds-per-state", "0",
    ])
    assert rc == 2


@pytest.mark.parametrize("seconds", ["nan", "inf"])
def test_characterize_rejects_non_finite_duration(tmp_path, capsys, seconds):
    rc = main([
        "characterize", "--outdir", str(tmp_path), "--seconds-per-state", seconds,
    ])
    assert rc == 2
    assert "seconds_per_state" in capsys.readouterr().err


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
    monkeypatch.setattr(noise, "EVENT_CHUNK", chunk)
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


@pytest.mark.parametrize("row", [
    f"{10**29} 1 1 1",  # an entry beyond int64
    f"{2**62} {2**62} {2**62} {2**62}",  # a row total beyond int64
    f"{2**63 - 1} 1 0 0",
])
def test_capacity_rejects_counts_beyond_int64_naming_the_line(tmp_path, capsys, row):
    path = tmp_path / "counts.txt"
    path.write_text(f"{row}\n" + "1 1 1 1\n" * 3)
    rc = main([
        "capacity", "--outdir", str(tmp_path), "--resamples", "10", "--counts", str(path),
    ])
    assert rc == 2
    assert row in capsys.readouterr().err


def test_capacity_missing_counts_file(tmp_path):
    rc = main([
        "capacity", "--outdir", str(tmp_path),
        "--counts", str(tmp_path / "absent.txt"),
    ])
    assert rc == 2


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


def test_calibrate_rejects_tiny_grid(tmp_path):
    assert main(["calibrate", "--outdir", str(tmp_path), "--grid", "1"]) == 2


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


def test_transfer_is_byte_reproducible(tmp_path):
    _tiny_image(tmp_path / "tiny.ppm")
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        rc = main([
            "transfer", "--outdir", str(d), "--seed", "8",
            "--image", str(tmp_path / "tiny.ppm"),
        ])
        assert rc == 0
    for name in ("received.ppm", "erasures.bin", "transfer_report.txt",
                 "manifest.txt"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_transfer_missing_image(tmp_path):
    rc = main([
        "transfer", "--outdir", str(tmp_path),
        "--image", str(tmp_path / "absent.ppm"),
    ])
    assert rc == 2


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def test_outdir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("FIBERSDC_OUTDIR", str(tmp_path / "envdir"))
    rc = main(["capacity", "--resamples", "10"])
    assert rc == 0
    assert (tmp_path / "envdir" / "capacity_report.txt").is_file()


def test_unknown_setting_is_rejected(tmp_path):
    rc = main([
        "characterize", "--outdir", str(tmp_path), "--set", "warp_factor=9",
    ])
    assert rc == 2


@pytest.mark.parametrize("key", ["phi0_rad", "phi1_rad"])
def test_static_phase_offsets_are_not_settings(tmp_path, capsys, key):
    _tiny_image(tmp_path / "tiny.ppm")
    runs = {
        "characterize": ["--seconds-per-state", "0.1"],
        "transfer": ["--image", str(tmp_path / "tiny.ppm")],
    }
    for command, args in runs.items():
        outdir = str(tmp_path / command)
        assert main([command, "--outdir", outdir, *args, "--set", f"{key}=1"]) == 2
        assert f"unknown setting '{key}'" in capsys.readouterr().err
        assert main([command, "--outdir", outdir, *args]) == 0
        assert f"{key}=" not in (tmp_path / command / "manifest.txt").read_text()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", sorted(set().union(*ACCEPTED_KEYS.values())) + NOT_SETTINGS)
def test_non_finite_setting_exits_2_naming_the_key(tmp_path, capsys, key, value):
    # A key goes through a command that accepts it, so its own finiteness
    # check runs; a name no command accepts is refused as unknown.
    command = "characterize" if key in ACCEPTED_KEYS["characterize"] else "transfer"
    rc = main([
        command, "--outdir", str(tmp_path), *QUICK_RUN[command],
        "--set", f"{key}={value}",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    if key in ACCEPTED_KEYS[command]:
        assert f"{key} must be finite" in err
    else:
        assert f"unknown setting '{key}'" in err


def test_subnormal_recalibration_period_exits_2_naming_the_key(tmp_path, capsys):
    # 5e-324 s passes a positivity check, then overflows the period count.
    for command in ("characterize", "transfer"):
        rc = main([
            command, "--outdir", str(tmp_path), *QUICK_RUN[command],
            "--set", "recalibration_period_s=5e-324",
        ])
        assert rc == 2, command
        assert "recalibration_period_s must be at least 1e-6 s" in capsys.readouterr().err


def test_overflowing_total_rate_exits_2_naming_both_keys(tmp_path, capsys):
    # Each rate is finite and their sum is not.  Without the check
    # characterize hangs rather than fails, so transfer alone runs here.
    rc = main([
        "transfer", "--outdir", str(tmp_path),
        "--set", "coincidence_rate_hz=1e308", "--set", "accidental_rate_hz=1e308",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "coincidence_rate_hz" in err and "accidental_rate_hz" in err


@pytest.mark.parametrize("key", ["message_latency_s", "encoder_settle_s"])
def test_overflowing_transfer_timeline_exits_2_naming_the_timing_keys(tmp_path, capsys, key):
    # One step is finite and the window closes summed over the session
    # are not; without the check the period count fails on infinity.
    rc = main(["transfer", "--outdir", str(tmp_path), "--set", f"{key}=1e308"])
    assert rc == 2
    err = capsys.readouterr().err
    assert all(k in err for k in ("message_latency_s", "encoder_settle_s", "frame_window_s"))


@pytest.mark.parametrize("settings", [
    # the recalibration count overflows
    ["message_latency_s=1e300", "recalibration_period_s=1e-6"],
    # the count is finite and its pauses overflow the elapsed time
    ["recalibration_pause_s=1e308", "recalibration_period_s=1e-6"],
])
def test_overflowing_recalibration_pauses_exit_2_naming_the_keys(tmp_path, capsys, settings):
    overrides = [arg for setting in settings for arg in ("--set", setting)]
    rc = main(["transfer", "--outdir", str(tmp_path), *overrides])
    assert rc == 2
    err = capsys.readouterr().err
    assert "recalibration_period_s" in err and "recalibration_pause_s" in err
    assert not (tmp_path / "transfer_report.txt").exists()


@pytest.mark.parametrize("command, key", [
    ("characterize", "message_latency_s"),
    ("characterize", "seconds_per_state"),
    ("transfer", "seconds_per_state"),
])
def test_setting_the_command_does_not_take_exits_2(tmp_path, capsys, command, key):
    rc = main([
        command, "--outdir", str(tmp_path), *QUICK_RUN[command], "--set", f"{key}=1",
    ])
    assert rc == 2
    assert f"unknown setting '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--set", "grid=3"], ["--config", "settings.cfg"]])
@pytest.mark.parametrize("command", ["calibrate", "capacity"])
def test_commands_without_settings_refuse_settings_options(tmp_path, command, option):
    (tmp_path / "settings.cfg").write_text("grid = 3\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--outdir", str(tmp_path), *option])
    assert exc.value.code == 2


@pytest.mark.parametrize("seed", ["-1", "-9223372036854775808"])
@pytest.mark.parametrize("command", ["calibrate", "capacity", "characterize", "transfer"])
def test_a_negative_seed_exits_2_naming_seed(tmp_path, capsys, command, seed):
    # Rejected while parsing, before any output is written.
    with pytest.raises(SystemExit) as exc:
        main([command, "--outdir", str(tmp_path / "out"), "--seed", seed])
    assert exc.value.code == 2
    assert f"argument --seed: must be a non-negative integer, got '{seed}'" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("target", ["blocker", "blocker/sub"])
def test_unusable_outdir_exits_2_naming_it(tmp_path, capsys, target):
    (tmp_path / "blocker").write_text("")  # a file where a directory should be
    outdir = tmp_path / target
    assert main(["capacity", "--resamples", "10", "--outdir", str(outdir)]) == 2
    assert f"output directory {outdir}" in capsys.readouterr().err


@pytest.mark.parametrize("command, option", [
    ("transfer", "--image"), ("capacity", "--counts"), ("characterize", "--config"),
])
def test_input_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys, command, option):
    path = tmp_path / "binary.ppm"
    path.write_bytes(b"P6\n2 1\n255\n\xff\x00\x00\xff\x00\x00")
    rc = main([
        command, "--outdir", str(tmp_path), *QUICK_RUN.get(command, []), option, str(path),
    ])
    assert rc == 2
    assert str(path) in capsys.readouterr().err


def test_bad_config_file_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("source_fidelity 0.9\n")
    rc = main(["characterize", "--outdir", str(tmp_path), "--config", str(cfg)])
    assert rc == 2


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
usage: fibersdc characterize [-h] [--config CONFIG] [--set KEY=VALUE]
                             [--outdir OUTDIR] [--seed SEED]
                             [--seconds-per-state SECONDS_PER_STATE]

options:
  -h, --help            show this help message and exit
  --config CONFIG       key=value settings file
  --set KEY=VALUE       override one setting (repeatable); keys:
                        coincidence_rate_hz, source_fidelity,
                        accidental_rate_hz, sigma_rad_per_sqrt_s,
                        recalibration_period_s, recalibration_residual_rad
  --outdir OUTDIR       output directory (default $FIBERSDC_OUTDIR or .)
  --seed SEED           master seed (default 1)
  --seconds-per-state SECONDS_PER_STATE
                        timed run length per sent class
""",
    "capacity": """\
usage: fibersdc capacity [-h] [--outdir OUTDIR] [--seed SEED]
                         [--counts COUNTS] [--resamples RESAMPLES]

options:
  -h, --help            show this help message and exit
  --outdir OUTDIR       output directory (default $FIBERSDC_OUTDIR or .)
  --seed SEED           master seed (default 1)
  --counts COUNTS       count matrix file (default: bundled reference)
  --resamples RESAMPLES
                        bootstrap resamples
""",
    "calibrate": """\
usage: fibersdc calibrate [-h] [--outdir OUTDIR] [--seed SEED] [--grid GRID]

options:
  -h, --help       show this help message and exit
  --outdir OUTDIR  output directory (default $FIBERSDC_OUTDIR or .)
  --seed SEED      master seed (default 1)
  --grid GRID      grid points per phase axis
""",
    "transfer": """\
usage: fibersdc transfer [-h] [--config CONFIG] [--set KEY=VALUE]
                         [--outdir OUTDIR] [--seed SEED] [--image IMAGE]

options:
  -h, --help       show this help message and exit
  --config CONFIG  key=value settings file
  --set KEY=VALUE  override one setting (repeatable); keys:
                   coincidence_rate_hz, source_fidelity, accidental_rate_hz,
                   sigma_rad_per_sqrt_s, recalibration_period_s,
                   recalibration_residual_rad, message_latency_s,
                   encoder_settle_s, frame_window_s, recalibration_pause_s
  --outdir OUTDIR  output directory (default $FIBERSDC_OUTDIR or .)
  --seed SEED      master seed (default 1)
  --image IMAGE    P3 PPM in the four-gray palette (default: bundled demo)
""",
}


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_text_is_unchanged(monkeypatch, capsys, command):
    # Each command builds its options only when it runs; its help and the
    # top-level help must read as when every parser was built up front.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main([command, "--help"] if command else ["--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out == HELP[command]


def test_unknown_command_lists_every_command(capsys):
    with pytest.raises(SystemExit) as done:
        main(["bogus"])
    assert done.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err
    assert all(command in err for command in HELP if command)


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
