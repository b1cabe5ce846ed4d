"""Shared test helpers."""

import os
import struct
from pathlib import Path

import stegdisc
from stegdisc.carrier import CarrierObject, _hidden, capacity, embed
from stegdisc.errors import CapacityExceeded

# Directory that holds the imported ``stegdisc`` package: ``src`` in a
# checkout, ``site-packages`` when installed.
PACKAGE_ROOT = str(Path(stegdisc.__file__).resolve().parent.parent)


def child_env():
    """Environment for a child ``python -m stegdisc`` process.

    The child may run in another working directory, where a relative
    ``PYTHONPATH`` entry such as ``src`` points at nothing. So the
    package's own absolute location goes first; entries already present
    are kept after it.
    """
    env = os.environ.copy()
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = PACKAGE_ROOT + (os.pathsep + rest if rest else "")
    return env


def perm_to_hashtags(perm, alphabet):
    """The hashtags of an address, as the disc renders them for the backend."""
    return tuple(alphabet.tags[i] for i in perm)


def extract(stego, expected_len):
    """Recover the first expected_len hidden bytes (inverse of embed) from the bytes they span."""
    if expected_len > capacity(stego):
        raise CapacityExceeded(f"{expected_len} bytes > capacity {capacity(stego)}")
    return _hidden(stego, 0, expected_len)


def hide(raw):
    """A one-row bitmap holding raw, so read_payload decodes raw bytes as
    they stand: the narrowest whose capacity is at least len(raw).  Its
    width is a multiple of 4 pixels (12 channel bytes, 1.5 hidden bytes),
    so the capacity is len(raw) or one byte more, a zero byte."""
    cover = CarrierObject.bitmap(4 * max(1, -(-2 * len(raw) // 3)), 1)
    assert capacity(cover) - len(raw) in (0, 1)
    return embed(cover, raw)


def row_loop_bitmap(width, height, chan):
    """A 24-bit BMP built row by row, as any writer lays one out: each row of
    channel bytes followed by the zero padding that takes it to a multiple
    of 4 bytes.  A width that is not a multiple of 4 gives padded rows,
    which the package's bitmaps never have."""
    row, stride = width * 3, (width * 3 + 3) & ~3
    pixels = b"".join(chan[y * row:(y + 1) * row] + bytes(stride - row) for y in range(height))
    return (struct.pack("<2sIHHI", b"BM", 54 + len(pixels), 0, 0, 54)
            + struct.pack("<IiiHHIIiiII", 40, width, height, 1, 24, 0, len(pixels), 2835, 2835, 0, 0)
            + pixels)


def lsb_channel_bytes(raw, size):
    """size channel bytes, each 0 or 1, whose LSBs spell raw most
    significant bit first: raw hidden in a blank bitmap's pixel data."""
    bits = bytes(int(bit) for byte in raw for bit in format(byte, "08b"))
    return bits + bytes(size - len(bits))
