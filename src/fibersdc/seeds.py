"""Deterministic named substreams derived from one master seed.

Every stochastic component (source noise, phase drift, accidentals,
bootstrap resampling, ...) pulls its generator from `substream`, so a
single integer reproduces an entire run while keeping the streams
statistically independent of each other.  The module also hashes a run's
resolved settings (`settings_digest`) and composes its manifest (`run_manifest`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import __version__
from .errors import ConfigError, require_integer

if TYPE_CHECKING:
    import numpy as np

# The interpreter's built-in SHA-256, as CPython's own random.py does for
# SHA-512: in library use hashlib would load OpenSSL for a few digests of
# short strings.  (A command's process blocks OpenSSL at its entry, and
# there hashlib too falls back to the built-in.)
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.11 and earlier
    except ImportError:
        from hashlib import sha256

STREAM_VERSION = 2
"""Version of how the workflows consume their random streams.

Bumped by every change that alters which draws a seeded run makes, since
such a change alters seeded outputs; manifests record it.  Version 2:
events are sampled in chunks from the closed-form kernel.
"""


def _settings_body(settings: dict[str, str]) -> str:
    return "".join(f"{k}={settings[k]}\n" for k in sorted(settings))


def settings_digest(settings: dict[str, str]) -> str:
    """SHA-256 of the resolved settings, one `key=value` line per key."""
    return sha256(_settings_body(settings).encode("utf-8")).hexdigest()


def run_manifest(command: str, master_seed: int, settings: dict[str, str]) -> str:
    """A run's `manifest.txt`: command, package and stream versions, master seed
    and settings digest, then a blank line and the settings; no timestamp."""
    return (
        f"command={command}\npackage_version={__version__}\nstream_version={STREAM_VERSION}\n"
        f"master_seed={master_seed}\nsettings_sha256={settings_digest(settings)}\n\n"
    ) + _settings_body(settings)


def substream_seed(master_seed: int, name: str) -> np.random.SeedSequence:
    """Return a SeedSequence unique to (master_seed, name).

    The name is hashed with SHA-256 so adding new substreams never
    perturbs existing ones, and the result does not depend on Python's
    per-process string hashing.  The master seed enters whole, so every
    non-negative integer gives its own streams; a negative one, or one
    that is not an integer, raises ConfigError.
    """
    import numpy as np

    seed = require_integer(master_seed, "master seed")
    if seed < 0:
        raise ConfigError(f"master seed must be non-negative, got {seed}")
    digest = sha256(name.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.SeedSequence(entropy=[seed] + words)


def substream(master_seed: int, name: str) -> np.random.Generator:
    """Generator for the named substream of a master seed."""
    import numpy as np

    return np.random.default_rng(substream_seed(master_seed, name))
