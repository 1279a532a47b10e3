"""Four-level grayscale raster images and their dibit serialization.

Images carry exactly two bits per pixel, so a pixel is one protocol frame.
On disk the rasters are plain-text PPM (P3) restricted to a fixed
four-entry gray palette; in flight they are row-major dibit sequences,
packed four to a byte, most significant pair first.
"""

from __future__ import annotations

import operator
import re
from typing import NamedTuple

import numpy as np

from .errors import CheckedRecord, ConfigError

PALETTE = (
    (255, 255, 255),
    (170, 170, 170),
    (85, 85, 85),
    (0, 0, 0),
)


class _Raster(NamedTuple):
    width: int
    height: int
    pixels: bytes  # row-major, one value 0..3 per pixel


class ImageRaster(CheckedRecord, _Raster):
    __slots__ = ()

    def _check(self):
        if not isinstance(self.pixels, bytes):
            raise ConfigError(f"pixels must be bytes, got {type(self.pixels).__name__}")
        if self.width <= 0 or self.height <= 0:
            raise ConfigError("image dimensions must be positive")
        if len(self.pixels) != self.width * self.height:
            raise ConfigError(
                f"pixel buffer has {len(self.pixels)} entries, "
                f"expected {self.width * self.height}"
            )
        if max(self.pixels) > 3:
            raise ConfigError("pixel values must be 0..3")


def raster_to_dibits(image: ImageRaster) -> list[int]:
    return list(image.pixels)


def dibits_to_raster(dibits, width: int, height: int) -> ImageRaster:
    try:
        pixels = bytes(dibits)
    except (TypeError, ValueError):
        pack_dibits(dibits)  # raises ConfigError naming the bad dibit
        raise
    return ImageRaster(width, height, pixels)


def pack_dibits(dibits) -> bytes:
    """Pack dibits four per byte, first dibit in the top two bits.

    The dibits are integers or booleans, 0..3.  A trailing partial byte is
    zero-padded on the right.
    """
    values = np.asarray(dibits)
    if values.size and values.dtype.kind not in "biu":
        raise ConfigError(f"dibits must be integers, got {values.dtype}")
    bad = (values < 0) | (values > 3)
    if bad.any():
        raise ConfigError(f"dibit out of range: {values[bad][0].item()!r}")
    bits = np.unpackbits(values.astype(np.uint8).reshape(-1, 1), axis=1)[:, 6:]
    return np.packbits(bits).tobytes()


def unpack_dibits(data: bytes, count: int) -> list[int]:
    """The first `count` dibits of `pack_dibits` output."""
    try:
        count = operator.index(count)
    except TypeError:
        raise ConfigError(f"dibit count {count!r} is not an integer") from None
    if not 0 <= count <= 4 * len(data):
        raise ConfigError(f"cannot unpack {count} dibits from {len(data)} bytes")
    bits = np.unpackbits(np.frombuffer(data, np.uint8), count=2 * count)
    return (2 * bits[0::2] + bits[1::2]).tolist()


def image_fidelity(a: ImageRaster, b: ImageRaster) -> float:
    """Fraction of pixels that agree."""
    if (a.width, a.height) != (b.width, b.height):
        raise ConfigError("images must have equal dimensions")
    same = np.frombuffer(a.pixels, np.uint8) == np.frombuffer(b.pixels, np.uint8)
    return int(np.count_nonzero(same)) / len(a.pixels)


def write_ppm(path, image: ImageRaster) -> None:
    texts = [" ".join(map(str, rgb)) for rgb in PALETTE]
    w, px = image.width, image.pixels
    rows = (" ".join(map(texts.__getitem__, px[i : i + w])) for i in range(0, len(px), w))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(["P3", f"{w} {image.height}", "255", *rows]) + "\n")


# ASCII whitespace, the only separator in a header or a body.
_SPACE = " \t\n\r\v\f"
_SEPARATOR = re.compile(f"[{_SPACE}]+")
# Anything in a channel body but ASCII digits and ASCII whitespace.
_NOT_DECIMAL = re.compile(f"[^0-9{_SPACE}]")
# The palette index of each gray level 0..256, 4 for a level off the
# palette; any level above 255 reads as 256.
_GRAY_INDEX = np.full(257, 4, dtype=np.uint8)
_GRAY_INDEX[[gray for gray, _, _ in PALETTE]] = range(len(PALETTE))


def read_ppm(path) -> ImageRaster:
    """Parse a P3 PPM whose colors all belong to the fixed palette.

    Header fields and channel values are ASCII decimal digits separated
    by ASCII whitespace; the body is parsed in one call, with no object
    per value.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = re.sub(r"#[^\n]*", "", fh.read())  # comments end at the line break
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read image {path}: {exc}") from exc
    # Only the header is split into tokens; the fifth part is the body.
    tokens = _SEPARATOR.split(text.lstrip(_SPACE), maxsplit=4)
    del text
    if not tokens[0].startswith("P3"):
        raise ConfigError("only plain-text P3 images are supported")
    if len(tokens) < 4:
        raise ConfigError("truncated image header")
    # `int` would also take signs, underscores and non-ASCII digits.
    if tokens[0] != "P3" or not all(t.isascii() and t.isdigit() for t in tokens[1:4]):
        raise ConfigError("bad image header")
    width, height, maxval = map(int, tokens[1:4])
    if maxval != 255:
        raise ConfigError("palette images must use maxval 255")
    body = tokens.pop() if len(tokens) == 5 else ""
    if _NOT_DECIMAL.search(body):
        raise ConfigError("bad channel value")
    # The split takes the body's leading whitespace, so every value the
    # parse finds is one run of digits.
    channels = np.fromstring(body, dtype=np.int64, sep=" ")
    del body
    if len(channels) != 3 * width * height:
        raise ConfigError(
            f"expected {3 * width * height} channel values, got {len(channels)}"
        )
    # The parse saturates a value beyond int64 instead of failing.
    if channels.max(initial=0) == np.iinfo(np.int64).max:
        raise ConfigError("bad channel value")
    rgb = channels.reshape(-1, 3)
    # The palette colors are grays, so a pixel is on it when its three
    # channels are equal and its level is a palette level.
    level = _GRAY_INDEX[np.minimum(rgb[:, 0], 256)]
    bad = (level == 4) | (rgb[:, 1] != rgb[:, 0]) | (rgb[:, 2] != rgb[:, 0])
    if bad.any():
        color = tuple(rgb[bad.argmax()].tolist())
        raise ConfigError(f"color {color} is not in the four-gray palette")
    return ImageRaster(width, height, level.tobytes())


def make_demo_image() -> ImageRaster:
    """Deterministic 100x136 four-gray test scene.

    A framed landscape: white sky, a light sun disk, two dark mountain
    ridges over haze, and rippled dark water.  Uses all four levels with
    uneven frequencies, which is the interesting case for transfer
    statistics.  The regions are painted back to front.
    """
    w, h = 100, 136
    y, x = np.ogrid[:h, :w]
    ridge = (abs(x - 30) <= 96 - y) | (abs(x - 62) <= (96 - y) * 2 // 3)
    v = np.where((y + x // 7) % 4, 3, 1)  # water
    v = np.where(y < 96, np.where(ridge | (y >= 78), 2, 1), v)  # ridges over haze
    v = np.where(y < 72, 0, v)  # sky
    v = np.where((x - 68) ** 2 + (y - 30) ** 2 <= 15**2, 1, v)  # sun
    v = np.where((x < 3) | (x >= w - 3) | (y < 3) | (y >= h - 3), 3, v)  # border
    return ImageRaster(w, h, v.astype(np.uint8).tobytes())
