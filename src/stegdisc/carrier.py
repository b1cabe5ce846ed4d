"""Block payloads and the multimedia carriers that hide them.

A block payload is laid out bit-exactly as

    version (1) | flags (1) | next_counter (ceil(p/8), big-endian)
    | data_len (4, big-endian) | data

where the version byte is the constant PAYLOAD_VERSION: every payload is
written with it, and the reader refuses any other.  The payload is
embedded into the low bits of the color channels of an uncompressed
24-bit BMP, the one carrier kind, whose width is a multiple of 4 so that
its rows need no padding: bytes that do not parse as one raise
UnsupportedCarrier.  The carrier's depth, the payload bits each channel
byte hides, is named by the BMP's first reserved field: 0, which every
cover written before depths has, reads and rewrites as one bit, 2 as two
bits, and any other value is refused.  Embedding and reading take the
depth from the carrier, so a rewrite keeps its cover's depth.  A
CarrierObject parses its geometry and depth once, when built.  The
payload's channel bytes are one contiguous slice of the pixel data:
embedding writes only that slice, and a read extracts the hidden bytes
once, at most the caller's bound on a payload, and parses header and
data from them.  Covers come from a pool of deterministic pseudo-random
bitmaps derived from (disc id, block counter), each COVER_DEPTH (2) bits
deep and WIDTH_UNIT (4) pixels wide with just the rows its payload
needs, so a post carries under one row (12 channel bytes, 3 hidden
bytes) of spare room.  A version before depths reads a 2-bit post's
version byte as 16 or 17, so it reports the block as undecodable, never
as other bytes.
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
# payload bits each channel byte of a new cover hides; the pool writes it
# into the cover's first BMP reserved field
COVER_DEPTH = 2


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
# `depth` low bits each, and the file header's first reserved field names
# the depth.

_BMP_FILE_HEADER = struct.Struct("<2sIHHI")
_BMP_INFO_HEADER = struct.Struct("<IiiHHIIiiII")
_BMP_HEADERS = struct.Struct(_BMP_FILE_HEADER.format + _BMP_INFO_HEADER.format[1:])  # both, parsed as one
# the reserved field of each depth, and the depth of each field: 0 is one bit
_FIELDS = {1: 0, COVER_DEPTH: COVER_DEPTH}
_DEPTHS = {field: depth for depth, field in _FIELDS.items()}
# per depth: a channel byte's hidden bits as an ASCII digit, so extracted
# digits parse as one int in base 2**depth
_DIGITS = {depth: bytes(b"0123"[value % (1 << depth)] for value in range(256)) for depth in _FIELDS}
# per depth: a channel byte with its hidden bits cleared, and the tables that
# turn each hex digit of a payload into its depth-bit digits as channel byte
# values, most significant first, so the digits OR into their cleared
# channel bytes as one int
_CLEAR = {depth: bytes(value >> depth << depth for value in range(256)) for depth in _FIELDS}
_NIBBLE_DIGITS = {
    depth: [bytes.maketrans(b"0123456789abcdef", bytes(value >> shift & (1 << depth) - 1 for value in range(16)))
            for shift in range(4 - depth, -1, -depth)]
    for depth in _FIELDS
}
# a width that is a multiple of this many pixels needs no row padding; it is
# also the narrowest such width, which every cover the pool builds has
WIDTH_UNIT = 4


def _check_dimensions(width: int, height: int) -> None:
    """UnsupportedCarrier unless both dimensions are positive and the width
    is a multiple of WIDTH_UNIT, so that rows need no padding."""
    if width < 1 or height < 1 or width % WIDTH_UNIT:
        raise UnsupportedCarrier(f"bad dimensions {width}x{height} (width must be a multiple of {WIDTH_UNIT})")


def make_bitmap(width: int, height: int, channel_bytes: Optional[bytes] = None, depth: int = 1) -> bytes:
    """Build a 24-bit BMP file from raw channel bytes (len = width*height*3),
    which are its pixel data, with the reserved field of `depth`;
    UnsupportedCarrier for a shape _parse_bmp would refuse."""
    _check_dimensions(width, height)
    n_chan = width * height * 3
    pixel_data = bytes(n_chan) if channel_bytes is None else bytes(channel_bytes)
    if len(pixel_data) != n_chan:
        raise UnsupportedCarrier(f"{len(pixel_data)} channel bytes for {width}x{height} (need {n_chan})")
    offset = _BMP_HEADERS.size
    return _BMP_HEADERS.pack(
        b"BM", offset + n_chan, _FIELDS[depth], 0, offset,
        _BMP_INFO_HEADER.size, width, height, 1, 24, 0, n_chan, 2835, 2835, 0, 0,
    ) + pixel_data


def _parse_bmp(data: bytes) -> tuple[tuple[int, int, int], int]:
    """Return ((width, height, pixel_offset), depth); UnsupportedCarrier if
    not a plain bottom-up 24-bit uncompressed BMP whose rows need no
    padding, whose pixel data starts past its headers and whose first
    reserved field names a depth."""
    if len(data) < _BMP_HEADERS.size:
        raise UnsupportedCarrier("too short for a BMP header")
    (magic, _size, field, _r2, offset, hdr_size, width, height, planes, bpp, compression,
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
    if field not in _DEPTHS:
        raise UnsupportedCarrier(f"reserved field {field} names no embedding depth")
    return (width, height, offset), _DEPTHS[field]


# -- carrier objects -----------------------------------------------------------

class CarrierObject:
    """A multimedia object: the bytes of a 24-bit BMP whose rows need no
    padding, its (width, height, pixel_offset) and its depth, parsed when
    it is built unless given.

    Embedding does not change an object's shape or depth, so a stego
    object is a carrier too, with payload bits in its low bits.
    """

    __slots__ = ("data", "geometry", "depth")

    def __init__(self, data: bytes, geometry: Optional[tuple[int, int, int]] = None, depth: int = 1):
        self.data = data
        self.geometry, self.depth = (geometry, depth) if geometry else _parse_bmp(data)

    @classmethod
    def from_bytes(cls, data: bytes) -> "CarrierObject":
        """Parse raw bytes as a bitmap; UnsupportedCarrier if they are not one."""
        return cls(bytes(data))

    @classmethod
    def bitmap(cls, width: int, height: int, channel_bytes: Optional[bytes] = None, depth: int = 1) -> "CarrierObject":
        return cls(make_bitmap(width, height, channel_bytes, depth), (width, height, _BMP_HEADERS.size), depth)


def capacity(carrier: CarrierObject) -> int:
    """Bytes of hidden payload the carrier can hold."""
    width, height, _ = carrier.geometry
    return width * height * 3 * carrier.depth // 8


def embed(carrier: CarrierObject, payload: bytes) -> CarrierObject:
    """Hide payload bytes in the carrier: their bits, most significant
    first, go `depth` at a time into the low bits of the first channel
    bytes; everything else is untouched."""
    if len(payload) > capacity(carrier):
        raise CapacityExceeded(f"{len(payload)} bytes > capacity {capacity(carrier)}")
    depth, tables = carrier.depth, _NIBBLE_DIGITS[carrier.depth]
    nibbles, per = payload.hex().encode(), len(tables)
    digits = bytearray(len(nibbles) * per)
    for k, table in enumerate(tables):
        digits[k::per] = nibbles.translate(table)
    data, start, nchan = carrier.data, carrier.geometry[2], len(digits)
    cleared = int.from_bytes(data[start:start + nchan].translate(_CLEAR[depth]), "big")
    chan = (cleared | int.from_bytes(digits, "big")).to_bytes(nchan, "big")
    return CarrierObject(data[:start] + chan + data[start + nchan:], carrier.geometry, depth)


def _hidden(stego: CarrierObject, start: int, nbytes: int) -> bytes:
    """Hidden bytes start..start+nbytes-1, read from the one slice of
    channel bytes they span."""
    if nbytes <= 0:
        return b""
    depth = stego.depth
    at, nchan = stego.geometry[2] + start * 8 // depth, nbytes * 8 // depth
    return int(stego.data[at:at + nchan].translate(_DIGITS[depth]), 1 << depth).to_bytes(nbytes, "big")


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

def cover_bitmap(disc_id: str, counter: int, width: int, height: int, depth: int = 1) -> CarrierObject:
    """Pseudo-random cover bitmap of `depth`, deterministic in (disc_id, counter)."""
    pixels = hashlib.shake_256(f"{disc_id}/{counter}".encode("utf-8")).digest(width * height * 3)
    return CarrierObject.bitmap(width, height, pixels, depth)


class CarrierPool:
    """Covers for a disc's new posts, which follow from its disc id alone:
    bitmaps deterministic in (disc id, block counter), COVER_DEPTH bits
    deep, WIDTH_UNIT pixels wide (12 channel bytes and 3 hidden bytes a
    row, no row padding) with the fewest rows that hold a post's payload:
    the smallest unpadded bitmap that holds it."""

    def __init__(self, disc_id: str):
        self.disc_id = disc_id

    def next_carrier(self, counter: int, nbytes: int) -> CarrierObject:
        """The cover for block `counter` that holds an `nbytes` payload."""
        rows = -(-nbytes * 8 // (WIDTH_UNIT * 3 * COVER_DEPTH))
        return cover_bitmap(self.disc_id, counter, WIDTH_UNIT, max(rows, 1), COVER_DEPTH)
