"""Shared test helpers."""

import os
import struct
from collections import Counter
from pathlib import Path

import stegdisc
from stegdisc.carrier import CarrierObject, _hidden, capacity, embed
from stegdisc.errors import BackendUnavailable, CapacityExceeded

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


class FaultInjector:
    """A backend wrapper that counts queries and fails the ones a test arms.

    `counts` is a Counter of the verbs called through it, failed calls
    included.  `arm(k, verb)` makes the k-th next query of `verb` (of any
    verb if None) raise `error` instead of reaching the backend, once:
    `BackendUnavailable`, a transient failure, or `SystemExit`, process
    death.  Several may wait at once; `armed` holds those not yet due.
    """

    def __init__(self, inner):
        self.inner, self.counts, self.armed = inner, Counter(), []

    def arm(self, k, verb=None, error=BackendUnavailable):
        self.armed.append([k, verb, error])

    def __getattr__(self, verb):
        method = getattr(self.inner, verb)

        def query(*args):
            self.counts[verb] += 1
            for fault in self.armed:
                if fault[1] in (None, verb):
                    fault[0] -= 1
            if due := [fault for fault in self.armed if fault[0] == 0]:
                self.armed = [fault for fault in self.armed if fault[0]]
                raise due[0][2](f"injected failure of {verb}")
            return method(*args)

        return query


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


def _set_field(bmp, offset, value, size=4):
    """bmp with the little-endian header field at `offset` set to `value`."""
    return bmp[:offset] + value.to_bytes(size, "little") + bmp[offset + size:]


# Edits of a good bitmap's bytes, each of which the bitmap parser refuses:
# (id, the refusal's message as a regex, edit).
BMP_REFUSALS = [
    ("magic", "missing BM magic", lambda bmp: b"XX" + bmp[2:]),
    ("info-header", r"unsupported BMP header \(size 12\)", lambda bmp: _set_field(bmp, 14, 12)),
    ("planes", r"unsupported BMP header \(size 40\)", lambda bmp: _set_field(bmp, 26, 2, 2)),
    ("bpp", r"only uncompressed 24bpp supported \(bpp=32\)", lambda bmp: _set_field(bmp, 28, 32, 2)),
    ("compressed", r"only uncompressed 24bpp supported \(bpp=24\)", lambda bmp: _set_field(bmp, 30, 1)),
    ("short", "pixel data shorter than declared dimensions", lambda bmp: bmp[:-1]),
]
