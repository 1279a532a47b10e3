"""Four-level grayscale raster images and their dibit serialization.

Images carry exactly two bits per pixel, so a pixel is one protocol frame.
On disk the rasters are plain-text PPM (P3) restricted to a fixed
four-entry gray palette; in flight they are row-major dibit sequences,
packed four to a byte, most significant pair first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

PALETTE = (
    (255, 255, 255),
    (170, 170, 170),
    (85, 85, 85),
    (0, 0, 0),
)

_RGB_TO_VALUE = {rgb: v for v, rgb in enumerate(PALETTE)}


@dataclass(frozen=True)
class ImageRaster:
    width: int
    height: int
    pixels: bytes  # row-major, one value 0..3 per pixel

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ConfigError("image dimensions must be positive")
        if len(self.pixels) != self.width * self.height:
            raise ConfigError(
                f"pixel buffer has {len(self.pixels)} entries, "
                f"expected {self.width * self.height}"
            )
        if any(p > 3 for p in self.pixels):
            raise ConfigError("pixel values must be 0..3")


def raster_to_dibits(image: ImageRaster) -> list[int]:
    return list(image.pixels)


def dibits_to_raster(dibits, width: int, height: int) -> ImageRaster:
    return ImageRaster(width, height, bytes(dibits))


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
    if count > 4 * len(data):
        raise ConfigError(f"cannot unpack {count} dibits from {len(data)} bytes")
    out = []
    for i in range(count):
        byte = data[i // 4]
        out.append((byte >> (6 - 2 * (i % 4))) & 0b11)
    return out


def image_fidelity(a: ImageRaster, b: ImageRaster) -> float:
    """Fraction of pixels that agree."""
    if (a.width, a.height) != (b.width, b.height):
        raise ConfigError("images must have equal dimensions")
    same = sum(1 for x, y in zip(a.pixels, b.pixels) if x == y)
    return same / len(a.pixels)


def write_ppm(path, image: ImageRaster) -> None:
    lines = ["P3", f"{image.width} {image.height}", "255"]
    for y in range(image.height):
        row = image.pixels[y * image.width : (y + 1) * image.width]
        lines.append(" ".join(" ".join(map(str, PALETTE[v])) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_ppm(path) -> ImageRaster:
    """Parse a P3 PPM whose colors all belong to the fixed palette."""
    tokens: list[str] = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read image {path}: {exc}") from exc
    with fh:
        for raw in fh:
            line = raw.split("#", 1)[0]
            tokens.extend(line.split())
    if not tokens or tokens[0] != "P3":
        raise ConfigError("only plain-text P3 images are supported")
    if len(tokens) < 4:
        raise ConfigError("truncated image header")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise ConfigError("bad image header") from exc
    if maxval != 255:
        raise ConfigError("palette images must use maxval 255")
    channels = tokens[4:]
    if len(channels) != 3 * width * height:
        raise ConfigError(
            f"expected {3 * width * height} channel values, got {len(channels)}"
        )
    pixels = bytearray()
    for i in range(width * height):
        try:
            rgb = tuple(int(c) for c in channels[3 * i : 3 * i + 3])
        except ValueError as exc:
            raise ConfigError("bad channel value") from exc
        if rgb not in _RGB_TO_VALUE:
            raise ConfigError(f"color {rgb} is not in the four-gray palette")
        pixels.append(_RGB_TO_VALUE[rgb])
    return ImageRaster(width, height, bytes(pixels))


def make_demo_image() -> ImageRaster:
    """Deterministic 100x136 four-gray test scene.

    A framed landscape: white sky, a light sun disk, two dark mountain
    ridges over haze, and rippled dark water.  Uses all four levels with
    uneven frequencies, which is the interesting case for transfer
    statistics.
    """
    w, h = 100, 136
    px = bytearray()
    for y in range(h):
        for x in range(w):
            if x < 3 or x >= w - 3 or y < 3 or y >= h - 3:
                v = 3
            elif (x - 68) ** 2 + (y - 30) ** 2 <= 15**2:
                v = 1
            elif y < 72:
                v = 0
            elif y < 96:
                ridge1 = abs(x - 30) <= (96 - y)
                ridge2 = abs(x - 62) <= (96 - y) * 2 // 3
                v = 2 if (ridge1 or ridge2) else (1 if y < 78 else 2)
            else:
                v = 3 if ((y + x // 7) % 4) else 1
            px.append(v)
    return ImageRaster(w, h, bytes(px))
