"""Payload codec, bitmap container, and LSB embedding."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BMP_REFUSALS, extract, hide, lsb_channel_bytes, row_loop_bitmap
from stegdisc.carrier import (
    COVER_DEPTH,
    FLAG_SUPERBLOCK,
    PAYLOAD_VERSION,
    WIDTH_UNIT,
    BlockPayload,
    CarrierObject,
    CarrierPool,
    capacity,
    counter_bytes,
    cover_bitmap,
    embed,
    encode_payload,
    header_size,
    _parse_bmp,
    make_bitmap,
    read_payload,
)
from stegdisc.document import DiscConfig
from stegdisc.errors import (
    BadVersion,
    CapacityExceeded,
    CounterTooWide,
    TruncatedPayload,
    UnsupportedCarrier,
)


def lsb_oracle_extract(bitmap_bytes, nbytes, depth=1):
    """Pure-python reference: payload bits sit MSB-first in the low `depth`
    bits of each channel byte, walking pixel rows and skipping any 4-byte
    row padding."""
    width = int.from_bytes(bitmap_bytes[18:22], "little")
    height = int.from_bytes(bitmap_bytes[22:26], "little")
    offset = int.from_bytes(bitmap_bytes[10:14], "little")
    stride = (width * 3 + 3) & ~3
    bits = []
    for row in range(height):
        base = offset + row * stride
        for k in range(width * 3):
            bits.extend(bitmap_bytes[base + k] >> shift & 1 for shift in reversed(range(depth)))
    out = bytearray()
    for i in range(nbytes):
        value = 0
        for bit in bits[i * 8: (i + 1) * 8]:
            value = (value << 1) | bit
        out.append(value)
    return bytes(out)


def numpy_reference_embed(carrier, payload):
    """The numpy LSB embedding the package used before it dropped numpy:
    the stego bytes the standard-library embed must reproduce exactly."""
    width, height, offset = carrier.geometry
    stride = (width * 3 + 3) & ~3
    buf = np.frombuffer(carrier.data, dtype=np.uint8).copy()
    rows = buf[offset:offset + stride * height].reshape(height, stride)
    chan = rows[:, :width * 3].copy().reshape(-1)
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    chan[:bits.size] = (chan[:bits.size] & 0xFE) | bits
    rows[:, :width * 3] = chan.reshape(height, width * 3)
    return buf.tobytes()


class TestPayloadCodec:
    def test_header_sizes(self):
        assert counter_bytes(8) == 1
        assert counter_bytes(9) == 2
        assert counter_bytes(16) == 2
        assert counter_bytes(24) == 3
        assert header_size(8) == 7

    def test_null_block_p8(self):
        raw = encode_payload(BlockPayload(next_counter=0), 8)
        assert raw == bytes.fromhex("01000000000000")

    def test_layout_p16(self):
        raw = encode_payload(BlockPayload(next_counter=258, data=b"AB"), 16)
        assert raw == bytes.fromhex("01000102000000024142")

    def test_counter_too_wide(self):
        with pytest.raises(CounterTooWide):
            encode_payload(BlockPayload(next_counter=256), 8)

    def test_bad_version(self):
        raw = bytearray(encode_payload(BlockPayload(next_counter=0), 8))
        raw[0] = 2
        with pytest.raises(BadVersion):
            read_payload(hide(raw), 8)

    def test_truncated_declared_length(self):
        raw = bytearray(encode_payload(BlockPayload(next_counter=0, data=b"x" * 10), 8))
        raw[2 + 1: 2 + 1 + 4] = (100).to_bytes(4, "big")
        with pytest.raises(TruncatedPayload):
            read_payload(hide(raw), 8)

    def test_truncated_header(self):
        with pytest.raises(TruncatedPayload):
            read_payload(hide(b"\x01\x00\x00"), 8)

    def test_trailing_bytes_ignored(self):
        payload = BlockPayload(next_counter=5, data=b"hi")
        raw = encode_payload(payload, 8) + b"\xffJUNK"
        assert read_payload(hide(raw), 8) == payload

    def test_superblock_flag(self):
        payload = BlockPayload(next_counter=0, data=b"cfg", flags=FLAG_SUPERBLOCK)
        assert read_payload(hide(encode_payload(payload, 8)), 8).is_superblock

    @given(
        st.integers(1, 40),
        st.integers(0, 2 ** 20),
        st.binary(max_size=200),
        st.integers(0, 255),
    )
    @settings(max_examples=120)
    def test_round_trip(self, p, counter, data, flags):
        counter %= 2 ** p
        payload = BlockPayload(next_counter=counter, data=data, flags=flags)
        assert read_payload(hide(encode_payload(payload, p)), p) == payload


class TestBitmap:
    def test_capacity_100x100(self):
        assert capacity(CarrierObject.bitmap(100, 100)) == 3750

    def test_capacity_1x1(self):
        # a 1x1 bitmap's row needs padding, so it is no carrier at all
        with pytest.raises(UnsupportedCarrier, match="multiple of 4"):
            CarrierObject.bitmap(1, 1)
        with pytest.raises(UnsupportedCarrier, match="multiple of 4"):
            CarrierObject.from_bytes(row_loop_bitmap(1, 1, bytes(3)))

    def test_capacity_2x2(self):
        # a 2x2 bitmap is refused; its 12 channel bytes in a 4x1 bitmap
        # hold the 1 hidden byte it once held
        with pytest.raises(UnsupportedCarrier, match="multiple of 4"):
            CarrierObject.bitmap(2, 2)
        with pytest.raises(UnsupportedCarrier, match="multiple of 4"):
            CarrierObject.from_bytes(row_loop_bitmap(2, 2, bytes(12)))
        assert capacity(CarrierObject.bitmap(4, 1, bytes(12))) == 1

    def test_pixel_offset_inside_the_headers_is_refused(self):
        # an embed into such a bitmap would overwrite its headers
        good = make_bitmap(16, 13)
        assert CarrierObject.from_bytes(good).geometry[2] == 54  # where the headers end
        for offset in (0, 14, 53):
            bad = good[:10] + offset.to_bytes(4, "little") + good[14:]
            with pytest.raises(UnsupportedCarrier, match="inside the headers"):
                CarrierObject.from_bytes(bad)
        # a larger info header moves the headers' end with it
        v5 = good[:14] + (124).to_bytes(4, "little") + good[18:]
        with pytest.raises(UnsupportedCarrier, match="inside the headers"):
            CarrierObject.from_bytes(v5)

    @pytest.mark.parametrize("message, edit", [row[1:] for row in BMP_REFUSALS],
                             ids=[row[0] for row in BMP_REFUSALS])
    def test_header_refusals(self, message, edit):
        good = make_bitmap(16, 13)
        assert CarrierObject.from_bytes(good).geometry == (16, 13, 54)
        with pytest.raises(UnsupportedCarrier, match=message):
            CarrierObject.from_bytes(edit(good))

    def test_channel_count_must_match_the_shape(self):
        with pytest.raises(UnsupportedCarrier, match=r"11 channel bytes for 4x1 \(need 12\)"):
            make_bitmap(4, 1, bytes(11))

    def test_sniffing(self):
        assert CarrierObject.from_bytes(make_bitmap(4, 3)).geometry[:2] == (4, 3)
        with pytest.raises(UnsupportedCarrier):
            CarrierObject.from_bytes(b"plain bytes")

    def test_rejects_garbage_with_magic(self):
        with pytest.raises(UnsupportedCarrier):
            capacity(CarrierObject(b"BMnot-a-real-bitmap"))

    def test_pixel_data_matches_the_row_loop(self):
        # widths 1-17: rows that need no padding match the row loop, and
        # padded ones are refused, built or parsed; 16x2700 is a pool
        # cover as tall as a 16 KB block needs
        rng = random.Random(12)
        for width, height in [(w, h) for w in range(1, 18) for h in range(1, 6)] + [(16, 2700)]:
            chan = rng.randbytes(width * height * 3)
            if width % 4:
                with pytest.raises(UnsupportedCarrier, match="multiple of 4"):
                    make_bitmap(width, height, chan)
                with pytest.raises(UnsupportedCarrier, match="multiple of 4"):
                    CarrierObject.from_bytes(row_loop_bitmap(width, height, chan))
                continue
            assert make_bitmap(width, height, chan) == row_loop_bitmap(width, height, chan)
            assert make_bitmap(width, height) == row_loop_bitmap(width, height, bytes(len(chan)))

    def test_synthetic_deterministic(self):
        a = cover_bitmap("d1", 7, 16, 16)
        b = cover_bitmap("d1", 7, 16, 16)
        c = cover_bitmap("d1", 8, 16, 16)
        d = cover_bitmap("d2", 7, 16, 16)
        assert a.data == b.data
        assert a.data != c.data
        assert a.data != d.data
        width, height, offset = a.geometry
        assert (width, height) == (16, 16)
        assert len(a.data) - offset == 16 * 16 * 3


class TestEmbed:
    def test_round_trip_bitmap(self):
        carrier = CarrierObject.bitmap(20, 10)
        payload = bytes(range(60))
        assert extract(embed(carrier, payload), 60) == payload

    def test_lsb_only_modification(self):
        rng = random.Random(3)
        chan = bytes(rng.randrange(256) for _ in range(20 * 7 * 3))
        carrier = CarrierObject.bitmap(20, 7, channel_bytes=chan)
        stego = embed(carrier, bytes(rng.randrange(256) for _ in range(50)))
        assert len(stego.data) == len(carrier.data)
        diffs = [(a, b) for a, b in zip(carrier.data, stego.data) if a != b]
        assert diffs  # something must actually change
        assert all(a ^ b == 1 for a, b in diffs)

    def test_capacity_exceeded(self):
        carrier = CarrierObject.bitmap(4, 4)  # 6 bytes
        with pytest.raises(CapacityExceeded):
            embed(carrier, bytes(7))

    def test_extract_from_zero_bitmap(self):
        carrier = CarrierObject.bitmap(8, 8, channel_bytes=bytes(8 * 8 * 3))
        assert extract(carrier, 10) == bytes(10)

    def test_matches_pure_python_oracle(self):
        rng = random.Random(9)
        for width, height in [(4, 5), (8, 1), (20, 9), (32, 32)]:
            chan = bytes(rng.randrange(256) for _ in range(width * height * 3))
            carrier = CarrierObject.bitmap(width, height, channel_bytes=chan)
            room = capacity(carrier)
            payload = bytes(rng.randrange(256) for _ in range(room))
            stego = embed(carrier, payload)
            assert lsb_oracle_extract(stego.data, room) == payload
            assert extract(stego, room) == payload

    def test_two_phase_read_equals_one_phase(self):
        rng = random.Random(4)
        for _ in range(30):
            p = rng.choice([8, 12, 16, 24])
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40)))
            payload = BlockPayload(next_counter=rng.randrange(2 ** p), data=data)
            raw = encode_payload(payload, p)
            carrier = CarrierObject.bitmap(16, 16)
            stego = embed(carrier, raw)
            assert read_payload(stego, p) == payload
            assert read_payload(hide(extract(stego, len(raw))), p) == payload

    def test_read_payload_truncated_capacity(self):
        # carrier too small to even hold a header
        tiny = CarrierObject.bitmap(4, 1)
        with pytest.raises(TruncatedPayload):
            read_payload(tiny, 8)

    @given(st.integers(1, 10).map(lambda k: 4 * k), st.integers(1, 12), st.data())
    @settings(max_examples=150)
    def test_every_prefix_matches_the_oracle(self, width, height, data):
        # widths 4-40, and every prefix length of the payload
        chan = data.draw(st.binary(min_size=width * height * 3, max_size=width * height * 3))
        carrier = CarrierObject.bitmap(width, height, channel_bytes=chan)
        payload = data.draw(st.binary(max_size=capacity(carrier)))
        stego = embed(carrier, payload)
        for k in range(len(payload) + 1):
            assert extract(stego, k) == lsb_oracle_extract(stego.data, k) == payload[:k]

    @given(st.integers(1, 10).map(lambda k: 4 * k), st.integers(1, 12), st.data())
    @settings(max_examples=150)
    def test_matches_the_numpy_reference(self, width, height, data):
        # widths 4-40; headers and every channel byte past the payload must
        # come out as numpy left them
        chan = data.draw(st.binary(min_size=width * height * 3, max_size=width * height * 3))
        carrier = CarrierObject.bitmap(width, height, channel_bytes=chan)
        payload = data.draw(st.binary(max_size=capacity(carrier)))
        assert embed(carrier, payload).data == numpy_reference_embed(carrier, payload)

    @pytest.mark.parametrize("p", [8, 24])
    def test_read_payload_on_a_large_padded_cover(self, p):
        # 301 pixels: 903-byte rows, padded to 904; the payload sits in the
        # LSBs any BMP reader finds, and the bitmap is still refused
        with pytest.raises(UnsupportedCarrier):
            cover_bitmap("big", 1, 301, 201)
        payload = BlockPayload(next_counter=2 ** p - 1, data=b"in a padded row")
        chan = lsb_channel_bytes(encode_payload(payload, p), 301 * 201 * 3)
        with pytest.raises(UnsupportedCarrier, match="multiple of 4"):
            read_payload(CarrierObject.from_bytes(row_loop_bitmap(301, 201, chan)), p)


class TestReadPayload:
    """read_payload extracts the hidden bytes once, up to the capacity or
    its bound, and parses header and data from them; only a declared
    length past the bound extracts the rest."""

    # 4-32 pixels: 12- to 96-byte rows, one hidden byte and a half to twelve
    @pytest.mark.parametrize("width", [4, 16, 20, 32])
    @given(st.integers(1, 6), st.sampled_from([1, 8, 16, 24]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_every_data_length_round_trips(self, width, height, p, data):
        chan = data.draw(st.binary(min_size=width * height * 3, max_size=width * height * 3))
        cover = CarrierObject.bitmap(width, height, channel_bytes=chan)
        room = capacity(cover) - header_size(p)
        counter, flags = data.draw(st.integers(0, 2 ** p - 1)), data.draw(st.integers(0, 255))
        body = data.draw(st.binary(min_size=max(room, 0), max_size=max(room, 0)))
        for size in range(room + 1):
            payload = BlockPayload(next_counter=counter, data=body[:size], flags=flags)
            raw = encode_payload(payload, p)
            stego = embed(cover, raw)
            assert lsb_oracle_extract(stego.data, len(raw)) == raw
            assert read_payload(stego, p) == payload

    @staticmethod
    def two_phase(stego, p):
        """The two-phase reader, on the pure-python oracle: extract and parse
        the header; check capacity, declared length and version, in that
        order; then extract the header and the declared data."""
        width, height = (int.from_bytes(stego.data[at:at + 4], "little") for at in (18, 22))
        hsize, cap = header_size(p), width * height * 3 // 8
        if hsize > cap:
            raise TruncatedPayload(f"capacity {cap} below header size {hsize}")
        head = lsb_oracle_extract(stego.data, hsize)
        data_len = int.from_bytes(head[hsize - 4:], "big")
        if hsize + data_len > cap:
            raise TruncatedPayload(f"declared {data_len} data bytes exceed capacity {cap}")
        if head[0] != PAYLOAD_VERSION:
            raise BadVersion(f"unknown payload version {head[0]}")
        data = lsb_oracle_extract(stego.data, hsize + data_len)[hsize:]
        return BlockPayload(int.from_bytes(head[2:hsize - 4], "big"), data, head[1])

    @given(st.integers(1, 40), st.integers(1, 8).map(lambda k: 4 * k), st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_extraction_equals_two_phases(self, p, width, data):
        hsize = header_size(p)
        size = data.draw(st.integers(0, 60), label="data length")
        fewest = -(-(hsize + size) * 8 // (width * 3))
        # fewer rows cut the payload short; more are covers of older versions
        height = data.draw(st.integers(max(1, fewest - 2), fewest + 6), label="height")
        size = data.draw(st.integers(size, max(size, width * height * 3 // 8 - hsize)), label="up to capacity")
        body = data.draw(st.binary(min_size=size, max_size=size))
        payload = BlockPayload(data.draw(st.integers(0, 2 ** p - 1)), body, data.draw(st.integers(0, 255)))
        raw = bytearray(encode_payload(payload, p))
        fault = data.draw(st.sampled_from([None, "version", "length"]), label="corrupted")
        if fault == "version":
            raw[0] = data.draw(st.integers(0, 255))
        elif fault == "length":
            raw[hsize - 4:hsize] = data.draw(st.integers(0, 2 ** 32 - 1)).to_bytes(4, "big")
        chan = data.draw(st.binary(min_size=width * height * 3, max_size=width * height * 3))
        cover = CarrierObject.bitmap(width, height, chan)
        stego = embed(cover, bytes(raw[:capacity(cover)]))
        # a bound below the declared payload makes the read extract twice
        bound = data.draw(st.none() | st.integers(hsize, len(raw) + 8), label="bound")
        outcomes = []
        for read in (lambda: read_payload(stego, p, bound), lambda: self.two_phase(stego, p)):
            try:
                outcomes.append(read())
            except (TruncatedPayload, BadVersion) as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]
        if fault is None and len(raw) <= capacity(cover):
            assert outcomes[0] == payload

    def test_errors_come_in_order(self):
        p = 16
        hsize = header_size(p)
        good = encode_payload(BlockPayload(next_counter=3, data=b"abc"), p)
        assert read_payload(hide(good), p) == BlockPayload(next_counter=3, data=b"abc")
        bad_version = bytes([PAYLOAD_VERSION + 1]) + good[1:]
        # capacity below the header size, whatever the version byte says
        with pytest.raises(TruncatedPayload, match="below header size"):
            read_payload(hide(bad_version[:hsize - 1]), p)
        # a declared length past capacity before the version byte; hide's
        # capacity may be one byte over the 11 bytes it holds
        too_long = bad_version[:hsize - 4] + (5).to_bytes(4, "big") + b"abc"
        with pytest.raises(TruncatedPayload, match="exceed capacity"):
            read_payload(hide(too_long), p)
        with pytest.raises(BadVersion):
            read_payload(hide(bad_version), p)


class TestPool:
    def test_synthetic_bitmap_pool(self):
        pool = CarrierPool("x")
        carrier = pool.next_carrier(1, 40)
        assert carrier.data == pool.next_carrier(1, 40).data  # same counter, same carrier

    def test_cover_has_the_fewest_rows_that_hold_the_payload(self):
        # every payload a p-bit disc with m=64 posts, at p = 8, 16 and 24: 1
        # byte to a full block, and the genesis echo.  Each cover is 4 pixels
        # wide and 2 bits deep, and a 4-pixel row is 12 channel bytes holding
        # 3 hidden bytes, so fewer than 12 spare ones means the cover has no
        # row to spare.
        pool = CarrierPool("x")
        for p in (8, 16, 24):
            config = DiscConfig.create(n=4, p=p, m=64, mode="C", disc_id="x")
            echo = header_size(p) + len(config.echo_bytes())
            for nbytes in [*range(1, header_size(p) + config.m + 1), echo]:
                carrier = pool.next_carrier(5, nbytes)
                width, height, _ = carrier.geometry
                assert capacity(carrier) >= nbytes
                assert width == WIDTH_UNIT == 4
                assert carrier.depth == COVER_DEPTH == 2
                assert 0 <= width * height * 3 - 4 * nbytes < 12

    def test_a_cover_keeps_the_geometry_its_bytes_parse_to(self):
        # CarrierObject.bitmap hands on the geometry and depth make_bitmap
        # wrote, unparsed
        pool = CarrierPool("x")
        covers = [pool.next_carrier(3, nbytes) for nbytes in range(1, 97)]
        covers += [CarrierObject.bitmap(w, h, depth=depth)
                   for w in range(4, 44, 4) for h in range(1, 13) for depth in (1, 2)]
        for cover in covers:
            assert (cover.geometry, cover.depth) == _parse_bmp(cover.data)

    def test_a_short_cover_is_the_first_rows_of_a_tall_one(self):
        # SHAKE-256 output is prefix-stable, and 4-pixel rows have no padding
        pool = CarrierPool("x")
        short, tall = pool.next_carrier(9, 9), pool.next_carrier(9, 96)
        offset = short.geometry[2]
        assert short.geometry[1] < tall.geometry[1]
        assert tall.data[offset:].startswith(short.data[offset:])


def two_bit_oracle_embed(bitmap_bytes, payload):
    """Pure-python reference: the bitmap with payload's bits, MSB first, two
    at a time in the two low bits of its first channel bytes, walking pixel
    rows of a bitmap whose rows need no padding."""
    offset = int.from_bytes(bitmap_bytes[10:14], "little")
    out = bytearray(bitmap_bytes)
    bits = "".join(format(byte, "08b") for byte in payload)
    for k in range(0, len(bits), 2):
        at = offset + k // 2
        out[at] = out[at] & 0xFC | int(bits[k:k + 2], 2)
    return bytes(out)


class TestDepth:
    """A cover's first BMP reserved field names its depth: 0 (every cover
    written before depths) one bit per channel byte, 2 two bits; the pool
    writes 2; any other value is one of BMP_REFUSALS."""

    @pytest.mark.parametrize("p", [8, 16, 24])
    def test_every_payload_size_matches_the_oracle_at_depth_2(self, p):
        # every payload size up to each pool cover's capacity, for the covers
        # of every payload a p-bit disc with m=64 posts and its genesis echo
        rng = random.Random(p)
        pool = CarrierPool("depth")
        config = DiscConfig.create(n=4, p=p, m=64, mode="C", disc_id="depth")
        echo = header_size(p) + len(config.echo_bytes())
        covers = {}
        for nbytes in [*range(1, header_size(p) + config.m + 1), echo]:
            cover = pool.next_carrier(7, nbytes)
            covers.setdefault(cover.geometry, cover)
        for cover in covers.values():
            assert cover.data[6:8] == b"\x02\x00" and cover.depth == 2
            assert capacity(cover) == len(cover.data[54:]) // 4
            for size in range(capacity(cover) + 1):
                payload = rng.randbytes(size)
                stego = embed(cover, payload)
                assert stego.data == two_bit_oracle_embed(cover.data, payload)
                assert lsb_oracle_extract(stego.data, size, depth=2) == extract(stego, size) == payload
                assert CarrierObject.from_bytes(stego.data).depth == 2

    @pytest.mark.parametrize("p", [8, 16, 24])
    def test_every_block_payload_round_trips_at_depth_2(self, p):
        # every payload size the disc posts, 1 byte to a full block, read by
        # one extraction; and the genesis echo
        rng = random.Random(30 + p)
        pool = CarrierPool("depth")
        config = DiscConfig.create(n=4, p=p, m=64, mode="C", disc_id="depth")
        payloads = [BlockPayload(rng.randrange(2 ** p), rng.randbytes(size), rng.choice([0, FLAG_SUPERBLOCK]))
                    for size in range(config.m + 1)]
        payloads.append(BlockPayload(0, config.echo_bytes(), FLAG_SUPERBLOCK))
        for payload in payloads:
            raw = encode_payload(payload, p)
            stego = embed(pool.next_carrier(3, len(raw)), raw)
            parsed = CarrierObject.from_bytes(stego.data)
            assert lsb_oracle_extract(stego.data, len(raw), depth=2) == raw
            assert read_payload(parsed, p) == read_payload(parsed, p, len(raw) - 1) == payload

    def test_a_rewrite_keeps_the_depth(self):
        one_bit, two_bit = cover_bitmap("d", 1, 4, 20), cover_bitmap("d", 1, 4, 20, depth=2)
        for cover, depth in ((one_bit, 1), (two_bit, 2)):
            first = embed(cover, bytes(range(7)))
            again = embed(CarrierObject.from_bytes(first.data), b"rewritten")
            assert again.depth == CarrierObject.from_bytes(again.data).depth == depth
            assert again.data[:54] == cover.data[:54]
            assert extract(again, 9) == b"rewritten"
        assert capacity(two_bit) == 2 * capacity(one_bit) == 60

    @pytest.mark.parametrize("flags", [0, FLAG_SUPERBLOCK])
    def test_a_one_bit_reader_sees_version_16_or_17(self, flags):
        # a reader from before depths ignores the field and reads the LSBs:
        # the version digits 0,0,0,1 and the flags' first four give 16 or 17
        p = 16
        raw = encode_payload(BlockPayload(3, b"abc", flags), p)
        stego = embed(CarrierPool("old").next_carrier(3, len(raw)), raw)
        as_one_bit = CarrierObject.from_bytes(stego.data[:6] + b"\x00\x00" + stego.data[8:])
        assert extract(as_one_bit, 1)[0] == 16 + flags
        with pytest.raises((BadVersion, TruncatedPayload)):
            read_payload(as_one_bit, p)
