"""Named substreams: the hash they are keyed by, and one pinned seed."""

import hashlib
import re
import sys
from pathlib import Path

import pytest

from fibersdc import __version__
from fibersdc.errors import ConfigError
from fibersdc.seeds import _settings_body, run_manifest, sha256, substream, substream_seed

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fibersdc"

# Every substream name the package and its subpackages draw from, as
# their sources spell it.
SUBSTREAMS = sorted({
    name
    for path in PACKAGE.rglob("*.py")
    for name in re.findall(r'substream\([^,()]+, "([^"]+)"\)', path.read_text(encoding="utf-8"))
})


def test_the_package_draws_from_named_substreams():
    assert {"characterize", "bootstrap", "protocol.arrivals"} <= set(SUBSTREAMS)


@pytest.mark.parametrize("name", SUBSTREAMS)
def test_builtin_sha256_matches_hashlib_on_substream_names(name):
    data = name.encode("utf-8")
    assert sha256(data).digest() == hashlib.sha256(data).digest()


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="CPython's built-in module")
def test_sha256_is_the_builtin_module_not_hashlib():
    assert sha256.__module__ in ("_sha2", "_sha256")


def test_builtin_sha256_matches_hashlib_on_a_settings_body():
    body = _settings_body({"source_fidelity": "0.97", "image": "'bundled:demo'", "grid": "25"})
    data = body.encode("utf-8")
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_the_manifest_text_is_pinned():
    # `capacity --counts x.txt --resamples 10 --seed 7`'s manifest.txt
    settings = {"resamples": "10", "counts": "x.txt"}
    assert run_manifest("capacity", 7, settings) == (
        "command=capacity\n"
        f"package_version={__version__}\n"
        "stream_version=2\n"
        "master_seed=7\n"
        "settings_sha256=f0e4358bc30cba7f3a3ed716c0ac5a974b2560f49ebc6f90082c355040101354\n"
        "\n"
        "counts=x.txt\n"
        "resamples=10\n"
    )


def test_substream_seed_is_pinned():
    # Seeded outputs of every stream version depend on these words.
    assert substream_seed(1, "characterize").entropy == [
        1, 543815835, 344174542, 2607538168, 832824954,
    ]


def test_the_master_seed_enters_whole():
    # Seeds below 2**63 keep their entropy; those at and above it no longer
    # fold onto it, which masking the top bit used to do.
    words = substream_seed(1, "bootstrap").entropy[1:]
    for seed in (0, 2**63 - 1, 2**63, 2**64 + 5):
        assert substream_seed(seed, "bootstrap").entropy == [seed, *words]
    draws = {seed: substream(seed, "bootstrap").integers(2**62, size=4).tolist()
             for seed in (0, 2**63, 2**63 - 1)}
    assert len({tuple(d) for d in draws.values()}) == 3


def test_a_negative_master_seed_raises():
    with pytest.raises(ValueError, match="master seed must be non-negative, got -1"):
        substream_seed(-1, "characterize")


@pytest.mark.parametrize("seed", [1.5, "7"])
def test_a_master_seed_that_is_not_an_integer_raises(seed):
    with pytest.raises(ConfigError, match=re.escape(f"master seed {seed!r} is not an integer")):
        substream(seed, "characterize")
