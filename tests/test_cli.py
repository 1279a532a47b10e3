from dataclasses import fields

import numpy as np
import pytest

from fibersdc import noise
from fibersdc.capacity import load_counts
from fibersdc.cli import main
from fibersdc.imagecodec import ImageRaster, read_ppm, write_ppm
from fibersdc.interferometer import InterferometerConfig, verdict_distribution
from fibersdc.noise import DriftConfig, SourceConfig, read_event_log
from fibersdc.protocol import TimingConfig
from fibersdc.states import BELL_ORDER

SETTING_KEYS = [
    f.name
    for cfg in (SourceConfig, DriftConfig, InterferometerConfig, TimingConfig)
    for f in fields(cfg)
] + ["seconds_per_state"]


def _read_report(path):
    out = {}
    for line in path.read_text().splitlines():
        if "=" in line:
            key, val = line.split("=", 1)
            out[key] = val
    return out


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
    rc = main(["calibrate", "--outdir", str(tmp_path), "--grid", "2", "--set", f"{key}=1"])
    assert rc == 2
    assert f"unknown setting '{key}'" in capsys.readouterr().err
    assert main(["calibrate", "--outdir", str(tmp_path), "--grid", "2"]) == 0
    assert f"{key}=" not in (tmp_path / "manifest.txt").read_text()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", SETTING_KEYS)
def test_non_finite_setting_exits_2_naming_the_key(tmp_path, capsys, key, value):
    rc = main([
        "characterize", "--outdir", str(tmp_path), "--seconds-per-state", "0.01",
        "--set", f"{key}={value}",
    ])
    assert rc == 2
    assert key in capsys.readouterr().err


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
