import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibersdc.errors import ConfigError
from fibersdc.imagecodec import (
    PALETTE,
    ImageRaster,
    dibits_to_raster,
    image_fidelity,
    make_demo_image,
    pack_dibits,
    raster_to_dibits,
    read_ppm,
    unpack_dibits,
    write_ppm,
)


def test_pack_frozen_bit_layout():
    assert pack_dibits([0, 1, 2, 3]) == b"\x1b"
    assert pack_dibits([3]) == b"\xc0"
    assert pack_dibits([]) == b""


def test_pack_unpack_roundtrip():
    for dibits in ([0], [1, 2], [3, 2, 1], list(range(4)) * 5, [2] * 7):
        packed = pack_dibits(dibits)
        assert len(packed) == (len(dibits) + 3) // 4
        assert unpack_dibits(packed, len(dibits)) == dibits


def test_pack_matches_a_bytewise_loop():
    rng = random.Random(3)
    for n in range(41):
        dibits = [rng.randrange(4) for _ in range(n)]
        want = bytearray()
        for i in range(0, n, 4):
            want.append(sum(v << (6 - 2 * j) for j, v in enumerate(dibits[i : i + 4])))
        assert pack_dibits(dibits) == bytes(want)


def test_pack_takes_flags():
    assert pack_dibits([True, False, False, True, True]) == b"\x41\x40"


@pytest.mark.parametrize("bad", [
    [0, 4], [0, 1.5], [2.0], ["a"], [None], [1.0, True, 2], 2, 5, [[1]], "0123",
])
def test_pack_rejects_a_bad_dibit(bad):
    with pytest.raises(ConfigError):
        pack_dibits(bad)


@pytest.mark.parametrize("data, count, message", [
    (b"\x00", 5, "cannot unpack 5 dibits from 1 bytes"),
    (b"\x1b", -1, "cannot unpack -1 dibits"),
    (b"\x1b", 2.5, "dibit count 2.5 is not an integer"),
])
def test_unpack_rejects_a_bad_count(data, count, message):
    with pytest.raises(ConfigError, match=message):
        unpack_dibits(data, count)


# Each refused raster construction, with what its message must hold.
BAD_RASTERS = {
    "zero width": (lambda: ImageRaster(0, 2, b""), "dimensions must be positive"),
    "short buffer": (lambda: ImageRaster(2, 2, bytes([0, 1, 2])), "has 3 entries, expected 4"),
    "pixel 4": (lambda: ImageRaster(2, 2, bytes([0, 1, 2, 4])), "0..3"),
    # Only an immutable buffer keeps the record as it was checked.
    "list": (lambda: ImageRaster(1, 1, [-1]), "pixels must be bytes, got list"),
    "bytearray": (lambda: ImageRaster(1, 1, bytearray(1)), "pixels must be bytes, got bytearray"),
    "_replace": (lambda: ImageRaster(2, 2, bytes(4))._replace(pixels=bytes(3)), "has 3 entries"),
    "_make": (lambda: ImageRaster._make((2, 2, bytes([0, 1, 2, 4]))), "0..3"),
    "float width": (lambda: ImageRaster(1.5, 2, bytes(3)), "image width 1.5 is not an integer"),
    "string height": (lambda: ImageRaster(1, "2", bytes(2)), "image height '2' is not"),
    "dibit -1": (lambda: dibits_to_raster([0, -1], 2, 1), "dibit must be 0..3, got -1"),
    "dibit 2.5": (lambda: dibits_to_raster([0, 2.5], 2, 1), "dibits must be integers"),
    "a float among flags": (lambda: dibits_to_raster([1.0, True, 2], 3, 1), "must be integers"),
    # An int64 array is read by value, not as its raw 8-byte buffer.
    "int64 array": (lambda: dibits_to_raster(np.array([1]), 8, 1), "has 1 entries, expected 8"),
    # A count is not a payload.
    "a count": (lambda: dibits_to_raster(5, 5, 1), "1-D sequence, got int"),
}


@pytest.mark.parametrize("build, message", BAD_RASTERS.values(), ids=BAD_RASTERS)
def test_raster_validation(build, message):
    with pytest.raises(ConfigError, match=message):
        build()


def test_raster_dibit_roundtrip():
    image = ImageRaster(3, 2, bytes([0, 1, 2, 3, 1, 1]))
    dibits = raster_to_dibits(image)
    assert dibits == bytes([0, 1, 2, 3, 1, 1])
    for payload in (dibits, list(dibits), np.array(list(dibits))):
        assert dibits_to_raster(payload, 3, 2) == image
    assert image._replace(pixels=bytes(6)) == ImageRaster(3, 2, bytes(6))


def test_image_fidelity_counts_matching_pixels():
    a = ImageRaster(2, 2, bytes([0, 1, 2, 3]))
    b = ImageRaster(2, 2, bytes([0, 1, 2, 0]))
    assert image_fidelity(a, a) == 1.0
    assert image_fidelity(a, b) == 0.75
    with pytest.raises(ConfigError):
        image_fidelity(a, ImageRaster(1, 4, bytes([0, 1, 2, 3])))


def test_ppm_roundtrip(tmp_path):
    image = ImageRaster(4, 3, bytes([0, 1, 2, 3, 3, 2, 1, 0, 0, 0, 3, 3]))
    path = tmp_path / "img.ppm"
    write_ppm(path, image)
    text = path.read_text()
    assert text.startswith("P3\n4 3\n255\n")
    assert read_ppm(path) == image


@pytest.mark.parametrize(
    "text",
    [
        "P6\n1 1\n255\n255 255 255\n",
        "P3\n1 1\n65535\n255 255 255\n",
        "P3\n1 1\n255\n1 2 3\n",
        "P3\n2 1\n255\n255 255 255\n",
        "P3\n1 1\n255\n255 255\n",
        "P3 2 1",  # a truncated header
    ],
)
def test_ppm_rejects_foreign_files(tmp_path, text):
    path = tmp_path / "bad.ppm"
    path.write_text(text)
    with pytest.raises(ConfigError):
        read_ppm(path)


def test_ppm_missing_file_raises_config_error(tmp_path):
    with pytest.raises(ConfigError):
        read_ppm(tmp_path / "absent.ppm")


def test_palette_is_four_distinct_grays():
    assert len(PALETTE) == 4
    assert len(set(PALETTE)) == 4
    for r, g, b in PALETTE:
        assert r == g == b


def test_demo_image_shape_and_payload():
    image = make_demo_image()
    assert (image.width, image.height) == (100, 136)
    assert len(image.pixels) == 13_600
    assert set(image.pixels) == {0, 1, 2, 3}
    assert len(pack_dibits(raster_to_dibits(image))) == 3_400
    assert make_demo_image() == image


def test_write_ppm_exact_text(tmp_path):
    rows = [[0, 1, 2], [3, 2, 1]]
    image = ImageRaster(3, 2, bytes(rows[0] + rows[1]))
    write_ppm(tmp_path / "img.ppm", image)
    body = "".join(
        " ".join(" ".join(str(c) for c in PALETTE[v]) for v in row) + "\n" for row in rows
    )
    assert (tmp_path / "img.ppm").read_text() == "P3\n3 2\n255\n" + body


def test_demo_image_pixels_are_pinned():
    # recorded from the per-pixel construction this scene was first drawn with
    digest = hashlib.sha256(make_demo_image().pixels).hexdigest()
    assert digest == "d0d41ef8cbf9c045ce43262d819567916bd1ea68625900cdc2628ec548cb189e"


def test_ppm_comments_end_at_the_line_break(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_text("P3 # plain\n2 1\n255#max\n0 0 0 # 1 2 3\n85 85 85\n")
    assert read_ppm(path) == ImageRaster(2, 1, bytes([3, 2]))


@pytest.mark.parametrize(
    "channels",
    [
        "99999999999999999999 255 255",  # beyond int64
        "256 -1 255",  # packs to white's integer 0xFFFFFF
        "255 255 255.0",
    ],
)
def test_ppm_rejects_channels_outside_0_to_255(tmp_path, channels):
    path = tmp_path / "bad.ppm"
    path.write_text(f"P3\n1 1\n255\n{channels}\n")
    with pytest.raises(ConfigError):
        read_ppm(path)


@pytest.mark.parametrize(
    "channels",
    [
        "+255 255 255",  # a sign
        "-0 -0 -0",
        "25_5 255 255",  # an underscore, as in a Python literal
        "٢٥٥ 255 255",  # Arabic-Indic digits
        "２５５ 255 255",  # fullwidth digits
        "255\x1c255 255",  # separators that are not ASCII whitespace
        "255\x1f255 255",
        "255\x85255 255",
        "255\xa0255 255",
        "255　255 255",
        "255 255 255\x1c",
        "9223372036854775807 255 255",  # 2**63 - 1, where the parse saturates
    ],
)
def test_ppm_channels_are_ascii_decimal(tmp_path, channels):
    # All but the last read as white while the channels were split on any
    # Unicode whitespace and parsed one by one as Python integers; the
    # last was reported as an off-palette color.
    path = tmp_path / "white.ppm"
    path.write_text(f"P3\n1 1\n255\n{channels}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bad channel value"):
        read_ppm(path)


def test_ppm_accepts_leading_zeros_and_ascii_whitespace(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_text("P3\n2 1\n255\n00000000000000000000255 0255 255\t85\r\n85\x0b85\x0c\n")
    assert read_ppm(path) == ImageRaster(2, 1, bytes([0, 2]))


_ASCII_SPACE = st.text(" \t\n\r\v\f", min_size=1, max_size=3)
# Comment text runs to the line break; reading in text mode makes a
# carriage return one too.
_COMMENT = st.text(
    st.characters(exclude_categories=["Cs"], exclude_characters="\r\n"), max_size=8
).map(lambda text: f"#{text}\n")
_SEPARATOR = st.lists(st.one_of(_ASCII_SPACE, _COMMENT), min_size=1, max_size=3).map("".join)


@st.composite
def _images(draw):
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    pixels = draw(st.binary(min_size=width * height, max_size=width * height))
    return ImageRaster(width, height, bytes(p % 4 for p in pixels))


def _tokens(tmp_path, image):
    write_ppm(tmp_path / "img.ppm", image)
    return (tmp_path / "img.ppm").read_text().split()


@settings(max_examples=60, deadline=None)
@given(image=_images(), data=st.data())
def test_ppm_roundtrips_any_whitespace_and_comment_layout(tmp_path_factory, image, data):
    tmp_path = tmp_path_factory.mktemp("layout")
    tokens = _tokens(tmp_path, image)
    lead = data.draw(st.one_of(st.just(""), _SEPARATOR))
    seps = data.draw(st.lists(_SEPARATOR, min_size=len(tokens), max_size=len(tokens)))
    text = lead + "".join(token + sep for token, sep in zip(tokens, seps))
    (tmp_path / "img.ppm").write_bytes(text.encode("utf-8"))
    assert read_ppm(tmp_path / "img.ppm") == image


_MUTATIONS = {
    "sign": st.sampled_from("+-").map(lambda sign: lambda token: sign + token),
    "twenty digits": st.integers(10**19, 10**20 - 1).map(lambda big: lambda token: str(big)),
    "underscore": st.just(lambda token: token[:1] + "_" + (token[1:] or "0")),
    "non-ASCII digit": st.characters(categories=["Nd"])
    .filter(lambda c: not c.isascii())
    .map(lambda digit: lambda token: digit + token[1:]),
    # the space after the token becomes a file separator
    "separator": st.just(lambda token: token + "\x1c"),
}


@settings(max_examples=80, deadline=None)
@given(image=_images(), kind=st.sampled_from(sorted(_MUTATIONS)), data=st.data())
def test_ppm_rejects_mutated_tokens(tmp_path_factory, image, kind, data):
    # Any token but the magic: the header's three numbers are ASCII
    # decimal, as the channels are.
    tmp_path = tmp_path_factory.mktemp("mutated")
    tokens = _tokens(tmp_path, image)
    at = data.draw(st.integers(1, len(tokens) - 1))
    tokens[at] = data.draw(_MUTATIONS[kind])(tokens[at])
    text = " ".join(tokens).replace("\x1c ", "\x1c")
    (tmp_path / "img.ppm").write_bytes(text.encode("utf-8"))
    with pytest.raises(ConfigError):
        read_ppm(tmp_path / "img.ppm")
