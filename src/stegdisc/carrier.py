"""Block payloads and the multimedia carriers that hide them.

A block payload is laid out bit-exactly as

    version (1) | flags (1) | next_counter (ceil(p/8), big-endian)
    | data_len (4, big-endian) | data

where the version byte is the constant PAYLOAD_VERSION: every payload is
written with it, and the reader refuses any other.  The payload is
embedded one bit per color channel into the least significant bits of
an uncompressed 24-bit BMP, the one carrier kind, whose width is a
multiple of 4 so that its rows need no padding: bytes that do not parse
as one raise UnsupportedCarrier.  A CarrierObject parses its geometry
once, when built.  The payload's channel bytes are one contiguous slice
of the pixel data: embedding writes only that slice, and a read
extracts the hidden bytes once, at most the caller's bound on a
payload, and parses header and data from them.  Covers come from a pool
of deterministic pseudo-random bitmaps derived from (disc id, block
counter), each WIDTH_UNIT (4) pixels wide with just the rows its payload
needs, so a post carries under one row (12 channel bytes) of spare room.
"""

from __future__ import annotations

import hashlib
import struct
from typing import NamedTuple, Optional

from .errors import (
    BadVersion,
    CapacityExceeded,
    CounterTooWide,
    TruncatedPayload,
    UnsupportedCarrier,
)

PAYLOAD_VERSION = 1
FLAG_SUPERBLOCK = 0x01


def counter_bytes(p: int) -> int:
    return (p + 7) // 8


def header_size(p: int) -> int:
    """Fixed header bytes preceding the data for a p-bit counter."""
    return 6 + counter_bytes(p)


class BlockPayload(NamedTuple):
    """Hidden content of one posted object; its version byte is not a
    field, since every payload is written with PAYLOAD_VERSION."""

    next_counter: int
    data: bytes = b""
    flags: int = 0

    @property
    def is_superblock(self) -> bool:
        return bool(self.flags & FLAG_SUPERBLOCK)


def encode_payload(payload: BlockPayload, p: int) -> bytes:
    """Serialize a payload for a disc with p-bit counters, behind the
    constant version byte that read_payload checks."""
    if not 0 <= payload.next_counter < (1 << p):
        raise CounterTooWide(f"counter {payload.next_counter} needs more than {p} bits")
    return (
        bytes((PAYLOAD_VERSION, payload.flags))
        + payload.next_counter.to_bytes(counter_bytes(p), "big")
        + struct.pack(">I", len(payload.data))
        + payload.data
    )


# -- BMP container -------------------------------------------------------------
# Plain BITMAPINFOHEADER, 24 bits per pixel, no compression, bottom-up rows
# whose width is a multiple of 4 pixels, so a row is a multiple of 4 bytes and
# needs no padding.  The pixel data's channel bytes are the hidden capacity,
# one LSB each.

_BMP_FILE_HEADER = struct.Struct("<2sIHHI")
_BMP_INFO_HEADER = struct.Struct("<IiiHHIIiiII")
_BMP_HEADERS = struct.Struct(_BMP_FILE_HEADER.format + _BMP_INFO_HEADER.format[1:])  # both, parsed as one
# a channel byte's LSB as an ASCII digit, so extracted bits parse as one int
_LSB_DIGITS = bytes(b"01"[value & 1] for value in range(256))
# a channel byte with its LSB cleared, and an ASCII digit as the byte 0 or 1,
# so the payload bits OR into their cleared channel bytes as one int
_CLEAR_LSB = bytes(value & 0xFE for value in range(256))
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")
# a width that is a multiple of this many pixels needs no row padding; it is
# also the narrowest such width, which every cover the pool builds has
WIDTH_UNIT = 4


def _check_dimensions(width: int, height: int) -> None:
    """UnsupportedCarrier unless both dimensions are positive and the width
    is a multiple of WIDTH_UNIT, so that rows need no padding."""
    if width < 1 or height < 1 or width % WIDTH_UNIT:
        raise UnsupportedCarrier(f"bad dimensions {width}x{height} (width must be a multiple of {WIDTH_UNIT})")


def make_bitmap(width: int, height: int, channel_bytes: Optional[bytes] = None) -> bytes:
    """Build a 24-bit BMP file from raw channel bytes (len = width*height*3),
    which are its pixel data; UnsupportedCarrier for a shape _parse_bmp
    would refuse."""
    _check_dimensions(width, height)
    n_chan = width * height * 3
    pixel_data = bytes(n_chan) if channel_bytes is None else bytes(channel_bytes)
    if len(pixel_data) != n_chan:
        raise UnsupportedCarrier(f"{len(pixel_data)} channel bytes for {width}x{height} (need {n_chan})")
    offset = _BMP_HEADERS.size
    return _BMP_HEADERS.pack(
        b"BM", offset + n_chan, 0, 0, offset,
        _BMP_INFO_HEADER.size, width, height, 1, 24, 0, n_chan, 2835, 2835, 0, 0,
    ) + pixel_data


def _parse_bmp(data: bytes) -> tuple[int, int, int]:
    """Return (width, height, pixel_offset); UnsupportedCarrier if not a
    plain bottom-up 24-bit uncompressed BMP whose rows need no padding and
    whose pixel data starts past its headers."""
    if len(data) < _BMP_HEADERS.size:
        raise UnsupportedCarrier("too short for a BMP header")
    (magic, _size, _r1, _r2, offset, hdr_size, width, height, planes, bpp, compression,
     _img_size, _xppm, _yppm, _colors, _important) = _BMP_HEADERS.unpack_from(data)
    if magic != b"BM":
        raise UnsupportedCarrier("missing BM magic")
    if hdr_size < _BMP_INFO_HEADER.size or planes != 1:
        raise UnsupportedCarrier(f"unsupported BMP header (size {hdr_size})")
    if bpp != 24 or compression != 0:
        raise UnsupportedCarrier(f"only uncompressed 24bpp supported (bpp={bpp})")
    _check_dimensions(width, height)
    if offset < _BMP_FILE_HEADER.size + hdr_size:
        raise UnsupportedCarrier(f"pixel offset {offset} inside the headers")
    if offset + width * height * 3 > len(data):
        raise UnsupportedCarrier("pixel data shorter than declared dimensions")
    return width, height, offset


# -- carrier objects -----------------------------------------------------------

class CarrierObject:
    """A multimedia object: the bytes of a 24-bit BMP whose rows need no
    padding, and its (width, height, pixel_offset), parsed when it is
    built unless given.

    Embedding does not change an object's shape, so a stego object is a
    carrier too, with payload bits in its LSBs.
    """

    __slots__ = ("data", "geometry")

    def __init__(self, data: bytes, geometry: Optional[tuple[int, int, int]] = None):
        self.data = data
        self.geometry = geometry or _parse_bmp(data)

    @classmethod
    def from_bytes(cls, data: bytes) -> "CarrierObject":
        """Parse raw bytes as a bitmap; UnsupportedCarrier if they are not one."""
        return cls(bytes(data))

    @classmethod
    def bitmap(cls, width: int, height: int, channel_bytes: Optional[bytes] = None) -> "CarrierObject":
        return cls(make_bitmap(width, height, channel_bytes), (width, height, _BMP_HEADERS.size))


def capacity(carrier: CarrierObject) -> int:
    """Bytes of hidden payload the carrier can hold."""
    width, height, _ = carrier.geometry
    return width * height * 3 // 8


def embed(carrier: CarrierObject, payload: bytes) -> CarrierObject:
    """Hide payload bytes in the carrier: their bits, most significant
    first, go into the LSB of the first channel bytes; everything else
    is untouched."""
    if len(payload) > capacity(carrier):
        raise CapacityExceeded(f"{len(payload)} bytes > capacity {capacity(carrier)}")
    data, start, nbits = carrier.data, carrier.geometry[2], len(payload) * 8
    bits = format(int.from_bytes(payload, "big"), f"0{nbits}b").encode().translate(_DIGIT_BITS)
    cleared = int.from_bytes(data[start:start + nbits].translate(_CLEAR_LSB), "big")
    chan = (cleared | int.from_bytes(bits, "big")).to_bytes(nbits, "big")
    return CarrierObject(data[:start] + chan + data[start + nbits:], carrier.geometry)


def _hidden(stego: CarrierObject, start: int, nbytes: int) -> bytes:
    """Hidden bytes start..start+nbytes-1, read from the one slice of
    channel bytes they span."""
    if nbytes <= 0:
        return b""
    at = stego.geometry[2] + start * 8
    return int(stego.data[at:at + nbytes * 8].translate(_LSB_DIGITS), 2).to_bytes(nbytes, "big")


def read_payload(stego: CarrierObject, p: int, bound: Optional[int] = None) -> BlockPayload:
    """Extract the hidden bytes once, up to the capacity or `bound` (the
    largest payload the caller posts), and parse header and data from
    them; only a declared length past `bound` extracts the rest."""
    hsize, cap = header_size(p), capacity(stego)
    if hsize > cap:
        raise TruncatedPayload(f"capacity {cap} below header size {hsize}")
    hidden = _hidden(stego, 0, cap if bound is None else min(cap, bound))
    end = hsize + int.from_bytes(hidden[hsize - 4:hsize], "big")
    if end > cap:
        raise TruncatedPayload(f"declared {end - hsize} data bytes exceed capacity {cap}")
    if hidden[0] != PAYLOAD_VERSION:
        raise BadVersion(f"unknown payload version {hidden[0]}")
    if end > len(hidden):
        hidden += _hidden(stego, len(hidden), end - len(hidden))
    return BlockPayload(int.from_bytes(hidden[2:hsize - 4], "big"), hidden[hsize:end], hidden[1])


# -- carrier pool --------------------------------------------------------------

def cover_bitmap(disc_id: str, counter: int, width: int, height: int) -> CarrierObject:
    """Pseudo-random cover bitmap, deterministic in (disc_id, counter)."""
    pixels = hashlib.shake_256(f"{disc_id}/{counter}".encode("utf-8")).digest(width * height * 3)
    return CarrierObject.bitmap(width, height, pixels)


class CarrierPool:
    """Covers for a disc's new posts, which follow from its disc id alone:
    bitmaps deterministic in (disc id, block counter), WIDTH_UNIT pixels
    wide (12 channel bytes a row, no row padding) with the fewest rows
    that hold a post's payload: the smallest unpadded bitmap that holds it."""

    def __init__(self, disc_id: str):
        self.disc_id = disc_id

    def next_carrier(self, counter: int, nbytes: int) -> CarrierObject:
        """The cover for block `counter` that holds an `nbytes` payload."""
        rows = -(-nbytes * 8 // (WIDTH_UNIT * 3))
        return cover_bitmap(self.disc_id, counter, WIDTH_UNIT, max(rows, 1))
