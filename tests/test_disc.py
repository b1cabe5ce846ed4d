"""Filesystem core: chains, catalog, splice, fsck, and the three modes."""

import hashlib
import random
import tempfile
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stegdisc.disc
from conftest import lsb_channel_bytes, row_loop_bitmap
from stegdisc.carrier import (
    CarrierObject,
    CarrierPool,
    capacity,
    cover_bitmap,
    embed,
    encode_payload,
    header_size,
    read_payload,
)
from stegdisc.disc import (
    Disc,
    DiscConfig,
    FileEntry,
    carrier_bytes,
    compute_chain_length,
)
from stegdisc.document import Document
from stegdisc.errors import (
    AllocationStall,
    BackendUnavailable,
    ChainBroken,
    ConfigInvalid,
    CounterOverflow,
    DuplicateAddress,
    FileNotFound,
    InvalidName,
    NameExists,
)
from stegdisc.osn import DirectoryBackend, MemoryBackend
from stegdisc.steghash import (
    HashtagAlphabet,
    SamplerState,
    perm_to_hashtags,
    rank,
    sampler_advance,
    sampler_replay,
)

MODES = ("A", "B", "C")


def make_disc(mode, n=4, p=16, m=8, backend=None, **kwargs):
    backend = backend if backend is not None else MemoryBackend()
    config = DiscConfig.create(n=n, p=p, m=m, mode=mode, disc_id=f"t-{mode}", **kwargs)
    return Disc.format(config, backend), backend


class TestChainLength:
    def test_partial_tail(self):
        assert compute_chain_length(10, 4) == 3

    def test_exact(self):
        assert compute_chain_length(8, 4) == 2

    def test_empty(self):
        assert compute_chain_length(0, 4) == 0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            compute_chain_length(1, 0)
        with pytest.raises(ValueError):
            compute_chain_length(-1, 4)

    def test_random_pairs(self):
        rng = random.Random(2)
        for _ in range(300):
            size, block = rng.randrange(0, 10 ** 6), rng.randrange(1, 10 ** 4)
            want = size // block + (1 if size % block else 0)
            assert compute_chain_length(size, block) == want


class TestConfig:
    def test_unknown_mode(self):
        with pytest.raises(ConfigInvalid):
            DiscConfig.create(n=3, p=16, m=4, mode="Z")

    def test_mode_a_past_n_8(self, tmp_path):
        # mode A keeps rank codes and computes rank/unrank on demand, so n
        # is bounded only by 2^p > n! (10! = 3,628,800 < 2^24)
        disc, backend, doc = make_doc_disc("A", tmp_path, n=10, p=24)
        rng = random.Random(10)
        files = {f"f{i:02d}": rng.randbytes(rng.randrange(0, 30)) for i in range(20)}
        for name, blob in files.items():
            disc.write_file(name, blob)
        disc.delete_file("f07")
        del files["f07"]
        fresh = Disc.open(doc, backend)
        assert {entry.name for entry in fresh.list_files()} == set(files)
        for name, blob in files.items():
            assert fresh.read_file(name) == blob
        assert fresh.fsck().ok

    def test_rank_codes_must_fit(self):
        # 2^p must exceed n! when pointers are rank codes
        with pytest.raises(ConfigInvalid):
            DiscConfig.create(n=5, p=6, m=4, mode="B")
        DiscConfig.create(n=5, p=7, m=4, mode="B")
        DiscConfig.create(n=5, p=6, m=4, mode="C")

    def test_alphabet_must_match_n(self):
        with pytest.raises(ConfigInvalid):
            DiscConfig.create(n=3, p=16, m=4, mode="C", alphabet=HashtagAlphabet.default(4))

    def test_genesis_must_be_permutation(self):
        with pytest.raises(ConfigInvalid):
            DiscConfig.create(n=3, p=16, m=4, mode="C", genesis=(0, 1, 1))

    @pytest.mark.parametrize("brk", ["\x85", "\u2028", "\u2029"])
    def test_disc_id_must_not_hold_a_line_break(self, brk):
        # str.splitlines() would cut the document's header line there
        with pytest.raises(ConfigInvalid, match="reserved characters"):
            DiscConfig.create(n=3, p=16, m=4, mode="C", disc_id=f"ab{brk}cd")


class TestFormat:
    @pytest.mark.parametrize("mode", MODES)
    def test_fresh_disc_is_empty(self, mode):
        disc, _ = make_disc(mode)
        assert disc.list_files() == []
        assert disc.chain_blocks() == []

    def test_genesis_occupied(self):
        disc, backend = make_disc("C")
        with pytest.raises(DuplicateAddress):
            Disc.format(disc.config, backend)

    def test_genesis_block_shape(self):
        disc, backend = make_disc("C", n=4, p=16, m=8)
        tags = perm_to_hashtags(disc.config.genesis, disc.config.alphabet)
        payload = read_payload(CarrierObject.from_bytes(backend.fetch(tags)), 16)
        assert payload.is_superblock
        assert payload.next_counter == 0
        assert b"mode=C" in payload.data


class TestWrite:
    @pytest.mark.parametrize("mode", MODES)
    def test_partial_tail_block(self, mode):
        disc, _ = make_disc(mode, m=4)
        entry = disc.write_file("f", b"0123456789")
        assert entry.length == 10
        blocks = disc.chain_blocks()
        assert [len(p.data) for _, _, p in blocks] == [4, 4, 2]

    def test_empty_file_posts_nothing(self):
        disc, backend = make_disc("C")
        before = sorted(backend.live_addresses())
        entry = disc.write_file("empty", b"")
        assert (entry.start_counter, entry.length) == (0, 0)
        assert sorted(backend.live_addresses()) == before
        assert disc.read_file("empty") == b""

    def test_name_exists(self):
        disc, _ = make_disc("B")
        disc.write_file("f", b"x")
        with pytest.raises(NameExists):
            disc.write_file("f", b"y")

    def test_bad_names(self):
        disc, _ = make_disc("B")
        for bad in ("", "a\x00b", "a\tb", "nl\n"):
            with pytest.raises(InvalidName):
                disc.write_file(bad, b"x")

    def test_stall_when_space_exhausted(self):
        # n=3 leaves five usable addresses; a six-block file cannot fit
        disc, backend = make_disc("B", n=3, m=1)
        before = sorted(backend.live_addresses())
        with pytest.raises(AllocationStall):
            disc.write_file("big", b"123456")
        assert sorted(backend.live_addresses()) == before
        assert disc.fsck().ok
        with pytest.raises(FileNotFound):
            disc.read_file("big")

    @pytest.mark.parametrize("genesis, fit", [((1, 0, 2, 3), 22), (None, 23)], ids=["genesis", "identity"])
    def test_full_mode_a_disc_fails_before_any_hash(self, genesis, fit, monkeypatch, tmp_path):
        # n=4 has 24 addresses: the identity is the NULL pointer, and the
        # genesis block takes one more unless it is the identity
        import stegdisc.steghash as steghash_mod

        config = DiscConfig.create(n=4, p=16, m=1, mode="A", disc_id="full", genesis=genesis)
        doc = tmp_path / "sb.txt"
        disc = Disc.format(config, MemoryBackend(), doc_path=doc)
        for i in range(fit):
            disc.write_file(f"f{i}", b"x")
        text = doc.read_text(encoding="utf-8")
        hashes = []
        advance = steghash_mod.sampler_advance
        monkeypatch.setattr(steghash_mod, "sampler_advance", lambda state: hashes.append(1) or advance(state))
        with pytest.raises(AllocationStall):
            disc.write_file("one too many", b"y")
        assert hashes == []
        assert doc.read_text(encoding="utf-8") == text
        assert disc.fsck().ok
        disc.delete_file("f3")
        disc.write_file("one too many", b"y")
        assert disc.fsck().ok and disc.read_file("one too many") == b"y"

    @pytest.mark.parametrize("mode", MODES)
    def test_genesis_never_reallocated(self, mode):
        disc, backend = make_disc(mode, n=3, m=1)
        genesis_tags = perm_to_hashtags(disc.config.genesis, disc.config.alphabet)
        first = backend.fetch(genesis_tags)
        for i in range(5):
            disc.write_file(f"f{i}", b"x")
        payload = read_payload(CarrierObject.from_bytes(backend.fetch(genesis_tags)), disc.config.p)
        assert payload.is_superblock  # still the superblock, merely re-linked


class TestRead:
    @pytest.mark.parametrize("mode", MODES)
    def test_round_trip_random(self, mode):
        rng = random.Random(7)
        disc, _ = make_disc(mode, n=6, m=64)
        blobs = {}
        for i in range(8):
            blobs[f"f{i}"] = rng.randbytes(rng.randrange(0, 1200))
            disc.write_file(f"f{i}", blobs[f"f{i}"])
        for name, blob in blobs.items():
            assert disc.read_file(name) == blob

    def test_large_file(self):
        rng = random.Random(8)
        disc, _ = make_disc("C", n=6, m=256)
        blob = rng.randbytes(64 * 1024)
        disc.write_file("big", blob)
        assert disc.read_file("big") == blob

    def test_unknown_name(self):
        disc, _ = make_disc("C")
        with pytest.raises(FileNotFound):
            disc.read_file("ghost")

    @pytest.mark.parametrize("mode", MODES)
    def test_one_bitmap_parse_per_fetched_block(self, mode, monkeypatch):
        """A warm read of a k-block file makes k fetches, k bitmap parses and
        k LSB extractions, and validates no permutation; a tall cover of
        an older version extracts no more than the disc's largest payload."""
        import stegdisc.carrier as carrier_mod
        import stegdisc.steghash as steghash_mod

        backend = ProxyBackend(MemoryBackend())
        config = DiscConfig.create(n=4, p=16, m=8, mode=mode, disc_id=f"parse-{mode}")
        disc = Disc.format(config, backend)  # bitmap carriers
        files = {"f": b"12345", "g": bytes(range(20))}  # one block and three
        for name, data in files.items():
            disc.write_file(name, data)
            assert disc.read_file(name) == data  # the reads below are warm
        parses, extracted, validations = [], [], []

        def spy(module, name, log, record=lambda *args: 1):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args: log.append(record(*args)) or real(*args))

        spy(carrier_mod, "_parse_bmp", parses)
        spy(carrier_mod, "_hidden", extracted, lambda stego, start, nbytes: nbytes)
        spy(steghash_mod, "validate_permutation", validations)
        for name, data in files.items():
            k = compute_chain_length(len(data), config.m)
            fetches, parses[:], extracted[:] = backend.counts["fetch"], [], []
            assert disc.read_file(name) == data
            assert backend.counts["fetch"] - fetches == k
            assert (len(parses), len(extracted), len(validations)) == (k, k, 0)
        # covers were 16x16 before each was sized to its payload; a taller
        # one still costs a block's extraction, not the cover's capacity
        (code, addr, payload), = [block for block in disc.chain_blocks() if block[2].data == files["f"]]
        tall = embed(cover_bitmap(config.disc_id, code, 16, 256), encode_payload(payload, config.p))
        backend.replace(perm_to_hashtags(addr, config.alphabet), tall.data)
        extracted[:] = []
        assert disc.read_file("f") == files["f"]
        assert len(extracted) == 1 and extracted[0] <= carrier_bytes(config) < capacity(tall)

    def test_missing_block_breaks_chain(self):
        disc, backend = make_disc("C", m=4)
        disc.write_file("f", b"0123456789AB")
        middle = disc.chain_blocks()[1]
        backend.remove(perm_to_hashtags(middle[1], disc.config.alphabet))
        with pytest.raises(ChainBroken):
            disc.read_file("f")


class TestDelete:
    @pytest.mark.parametrize("mode", MODES)
    def test_splice_middle(self, mode):
        disc, _ = make_disc(mode, m=4)
        runs = {}
        for name in ("a", "b", "c"):
            before = {code for code, _, _ in disc.chain_blocks()}
            disc.write_file(name, name.encode() * 9)
            runs[name] = [code for code, _, _ in disc.chain_blocks() if code not in before]
        disc.delete_file("b")
        codes = [code for code, _, _ in disc.chain_blocks()]
        assert codes == runs["a"] + runs["c"]
        assert disc.read_file("a") == b"a" * 9
        assert disc.read_file("c") == b"c" * 9
        assert disc.fsck().ok

    def test_delete_sole_file_resets_genesis(self):
        disc, backend = make_disc("C")
        disc.write_file("only", b"data")
        disc.delete_file("only")
        assert disc.chain_blocks() == []
        tags = perm_to_hashtags(disc.config.genesis, disc.config.alphabet)
        payload = read_payload(CarrierObject.from_bytes(backend.fetch(tags)), disc.config.p)
        assert payload.next_counter == 0

    def test_freed_addresses_released(self):
        disc, backend = make_disc("B", m=4)
        disc.write_file("f", b"0123456789")
        freed = [addr for _, addr, _ in disc.chain_blocks()]
        disc.delete_file("f")
        with pytest.raises(FileNotFound):
            disc.read_file("f")
        for addr in freed:
            assert not backend.exists(perm_to_hashtags(addr, disc.config.alphabet))

    def test_delete_missing(self):
        disc, _ = make_disc("A")
        with pytest.raises(FileNotFound):
            disc.delete_file("ghost")

    @pytest.mark.parametrize("mode", MODES)
    def test_recycling(self, mode):
        # fill every usable address, free one, and watch the stream hand
        # the freed permutation back out on the next allocation
        disc, backend = make_disc(mode, n=3, m=1)
        for i in range(5):
            disc.write_file(f"f{i}", b"x")
        target = (0, 2, 1)  # first address the n=3 stream emits
        tags = perm_to_hashtags(target, disc.config.alphabet)
        assert backend.exists(tags)
        owner = next(
            entry.name
            for code, addr, _ in disc.chain_blocks() if addr == target
            for entry in [next(e for e in disc.list_files() if e.start_counter == code)]
        )
        disc.delete_file(owner)
        assert not backend.exists(tags)
        disc.write_file("fresh", b"y")
        assert backend.exists(tags)  # the only free address, so it was reused
        assert disc.read_file("fresh") == b"y"
        assert disc.fsck().ok


class TestModify:
    @pytest.mark.parametrize("mode", MODES)
    def test_modify_round_trip(self, mode):
        disc, _ = make_disc(mode, m=4)
        disc.write_file("f", b"old content")
        disc.write_file("g", b"neighbor")
        entry = disc.modify_file("f", b"the new, longer content")
        assert entry.length == len(b"the new, longer content")
        assert disc.read_file("f") == b"the new, longer content"
        assert disc.read_file("g") == b"neighbor"
        assert disc.fsck().ok

    def test_modify_to_empty(self):
        disc, _ = make_disc("C")
        disc.write_file("f", b"content")
        entry = disc.modify_file("f", b"")
        assert (entry.start_counter, entry.length) == (0, 0)
        assert disc.read_file("f") == b""
        assert disc.chain_blocks() == []

    def test_modify_unknown(self):
        disc, _ = make_disc("C")
        with pytest.raises(FileNotFound):
            disc.modify_file("ghost", b"x")

    def test_modify_empty_to_content(self):
        disc, _ = make_disc("A")
        disc.write_file("f", b"")
        disc.modify_file("f", b"grew")
        assert disc.read_file("f") == b"grew"


class TestListing:
    def test_sorted_by_name(self):
        disc, _ = make_disc("C")
        for name in ("zeta", "alpha", "mid"):
            disc.write_file(name, b"x")
        assert [e.name for e in disc.list_files()] == ["alpha", "mid", "zeta"]


class TestFsck:
    def test_fresh_disc_clean(self):
        disc, _ = make_disc("C", m=4)
        disc.write_file("a", b"0123456789")
        disc.write_file("b", b"")
        report = disc.fsck()
        assert report.ok
        assert report.block_count == 1 + 3  # genesis plus ceil(10/4)

    def test_corrupt_counter_one_violation(self):
        disc, backend = make_disc("C", m=4)
        disc.write_file("a", b"0123456789")
        code, addr, payload = disc.chain_blocks()[0]
        tags = perm_to_hashtags(addr, disc.config.alphabet)
        bad = type(payload)(next_counter=2 ** disc.config.p - 3, data=payload.data)
        stego = embed(CarrierObject.from_bytes(backend.fetch(tags)), encode_payload(bad, disc.config.p))
        backend.replace(tags, stego.data)
        report = disc.fsck()
        assert len(report.violations) == 1
        assert report.violations[0].counter == 2 ** disc.config.p - 3

    def test_counter_regression_detected(self):
        disc, backend = make_disc("C", m=4)
        disc.write_file("a", b"0123456789AB")
        blocks = disc.chain_blocks()
        # point the second block back at the first: counters must increase
        code0 = blocks[0][0]
        _, addr1, payload1 = blocks[1]
        tags = perm_to_hashtags(addr1, disc.config.alphabet)
        bad = type(payload1)(next_counter=code0, data=payload1.data)
        stego = embed(CarrierObject.from_bytes(backend.fetch(tags)), encode_payload(bad, disc.config.p))
        backend.replace(tags, stego.data)
        report = disc.fsck()
        assert not report.ok
        assert report.violations[0].kind == "order"

    def test_catalog_mismatch_detected(self):
        disc, _ = make_disc("B", m=4)
        disc.write_file("a", b"0123456789")
        disc.document.entries["a"] = FileEntry("a", disc.document.entry("a").start_counter, 6).line
        report = disc.fsck()
        kinds = {v.kind for v in report.violations}
        assert "file-bytes" in kinds or "block-count" in kinds


def _rewrite_block(disc, backend, addr, **changes):
    """Re-embed one posted block with some payload fields changed."""
    tags = perm_to_hashtags(addr, disc.config.alphabet)
    carrier = CarrierObject.from_bytes(backend.fetch(tags))
    payload = read_payload(carrier, disc.config.p)._replace(**changes)
    backend.replace(tags, embed(carrier, encode_payload(payload, disc.config.p)).data)


def _edit_entry(disc, name, **changes):
    disc.document.entries[name] = disc.document.entry(name)._replace(**changes).line


# Each corruption gets a disc holding a (3 blocks: a0 a1 a2) then b (2
# blocks: b0 b1), with m=4, and returns the (kind, counter) violations and
# the block_count fsck must report.  `code` maps a0..b1 to pointer codes.

def _genesis_missing(disc, backend, code):
    backend.remove(perm_to_hashtags(disc.config.genesis, disc.config.alphabet))
    return [("genesis-missing", 0)], 0


def _genesis_flags(disc, backend, code):
    _rewrite_block(disc, backend, disc.config.genesis, flags=0)
    return [("genesis-flags", 0)], 6


def _genesis_echo(disc, backend, code):
    _rewrite_block(disc, backend, disc.config.genesis, data=b"n=4;p=16;m=4;mode=C;id=other")
    return [("genesis-echo", 0)], 6


def _order(disc, backend, code):
    _rewrite_block(disc, backend, code.addr["a1"], next_counter=code["a0"])
    return [("order", code["a0"])], 3


def _cycle(disc, backend, code):
    _rewrite_block(disc, backend, code.addr["b1"], next_counter=code["a1"])
    return [("cycle", code["a1"])], 6


def _missing_post(disc, backend, code):
    backend.remove(perm_to_hashtags(code.addr["a2"], disc.config.alphabet))
    return [("bad-block", code["a2"])], 3


def _bad_version(disc, backend, code):
    _rewrite_block(disc, backend, code.addr["a2"], version=2)
    return [("bad-block", code["a2"])], 3


def _not_a_bitmap(disc, backend, code):
    tags = perm_to_hashtags(code.addr["a2"], disc.config.alphabet)
    payload = read_payload(CarrierObject.from_bytes(backend.fetch(tags)), disc.config.p)
    backend.replace(tags, encode_payload(payload, disc.config.p))  # the payload, with no cover
    return [("bad-block", code["a2"])], 3


def _padded_cover(disc, backend, code):
    tags = perm_to_hashtags(code.addr["a2"], disc.config.alphabet)
    payload = read_payload(CarrierObject.from_bytes(backend.fetch(tags)), disc.config.p)
    raw = encode_payload(payload, disc.config.p)
    rows = -(-len(raw) * 8 // 51)  # 17 pixels: 51 channel bytes, padded to 52
    backend.replace(tags, row_loop_bitmap(17, rows, lsb_channel_bytes(raw, 51 * rows)))
    return [("bad-block", code["a2"])], 3


def _out_of_range(disc, backend, code):
    bad = factorial(disc.config.n) + 5
    _rewrite_block(disc, backend, code.addr["a0"], next_counter=bad)
    return [("bad-block", bad)], 2


def _file_missing(disc, backend, code):
    bogus = next(c for c in range(1, factorial(disc.config.n)) if c not in code.values())
    _edit_entry(disc, "b", start_counter=bogus)
    return [("file-missing", bogus)], 6


def _file_truncated(disc, backend, code):
    _edit_entry(disc, "b", length=16)
    return [("file-truncated", code["b0"]), ("block-count", 0)], 6


def _file_bytes(disc, backend, code):
    _edit_entry(disc, "a", length=9)
    return [("file-bytes", code["a0"])], 6


def _block_count(disc, backend, code):
    del disc.document.entries["b"]
    return [("block-count", 0)], 6


class _Codes(dict):
    """Block name -> pointer code, with the addresses in `addr`."""

    def __init__(self, blocks):
        names = ("a0", "a1", "a2", "b0", "b1")
        super().__init__((name, code) for name, (code, _, _) in zip(names, blocks))
        self.addr = {name: addr for name, (_, addr, _) in zip(names, blocks)}


# (mode, corruption, a file whose read raises fsck's first violation or None)
FSCK_FAULTS = [
    ("A", _genesis_missing, None),
    ("A", _genesis_flags, None),
    ("C", _genesis_echo, None),
    ("C", _order, "a"),
    ("B", _cycle, None),
    ("A", _missing_post, "a"),
    ("C", _bad_version, "a"),
    ("B", _not_a_bitmap, "a"),
    ("C", _padded_cover, "a"),
    ("B", _out_of_range, "a"),
    ("A", _file_missing, None),
    ("C", _file_truncated, "b"),
    ("B", _file_bytes, "a"),
    ("A", _block_count, None),
]
CHAIN_FAULTS = [
    row for row in FSCK_FAULTS
    if row[1] in (_order, _cycle, _missing_post, _bad_version, _not_a_bitmap, _padded_cover, _out_of_range)
]
RM_FAULTS = (_file_missing, _file_truncated, _missing_post, _bad_version, _not_a_bitmap, _padded_cover, _order,
             _out_of_range)


def _fault_params(rows):
    return pytest.mark.parametrize(
        "mode, corrupt, read", rows, ids=[row[1].__name__.lstrip("_") for row in rows]
    )


def _corrupted(mode, corrupt):
    disc, backend = make_disc(mode, m=4)
    disc.write_file("a", b"0123456789")
    disc.write_file("b", b"abcdefgh")
    expected, block_count = corrupt(disc, backend, _Codes(disc.chain_blocks()))
    return disc, expected, block_count


class TestFsckFaults:
    @_fault_params(FSCK_FAULTS)
    def test_violation_kinds_and_counters(self, mode, corrupt, read):
        disc, expected, block_count = _corrupted(mode, corrupt)
        report = disc.fsck()
        assert [(v.kind, v.counter) for v in report.violations] == expected
        assert report.block_count == block_count

    @_fault_params(CHAIN_FAULTS)
    def test_traversal_raises_the_fault_fsck_reports(self, mode, corrupt, read):
        disc, expected, _ = _corrupted(mode, corrupt)
        with pytest.raises(ChainBroken) as fault:
            disc.chain_blocks()
        assert (fault.value.kind, fault.value.counter) == expected[0]

    @_fault_params([row for row in FSCK_FAULTS if row[2]])
    def test_read_raises_the_fault_fsck_reports(self, mode, corrupt, read):
        disc, expected, _ = _corrupted(mode, corrupt)
        with pytest.raises(ChainBroken) as fault:
            disc.read_file(read)
        assert (fault.value.kind, fault.value.counter) == expected[0]

    # every fault on the way to b's run or inside it; the B cycle closes
    # after b's run, so a splice never meets it
    @_fault_params([row for row in FSCK_FAULTS if row[1] in RM_FAULTS])
    def test_rm_raises_the_fault_fsck_reports(self, mode, corrupt, read):
        disc, expected, _ = _corrupted(mode, corrupt)
        with pytest.raises(ChainBroken) as fault:
            disc.delete_file("b")
        assert (fault.value.kind, fault.value.counter) == expected[0]


class TestWalkCost:
    """A walk fetches each block it passes once and decodes it once; a
    faster walk must not get there by skipping either."""

    FILES = {"a": bytes(range(20)), "empty": b"", "b": b"x" * 8, "c": b"tail"}  # m=8

    def _written(self, mode, backend):
        disc, backend = make_disc(mode, backend=backend)
        for name, data in self.FILES.items():
            disc.write_file(name, data)
        return disc, backend

    @pytest.mark.parametrize("mode", MODES)
    def test_each_block_is_fetched_and_decoded_once(self, mode, monkeypatch):
        disc, backend = self._written(mode, ProxyBackend(MemoryBackend()))
        m = disc.config.m
        blocks = {name: compute_chain_length(len(data), m) for name, data in self.FILES.items()}
        decodes = []

        def counted(carrier, *args):
            decodes.append(args)
            return read_payload(carrier, *args)

        monkeypatch.setattr("stegdisc.disc.read_payload", counted)
        backend.counts["fetch"] = 0
        assert disc.fsck().ok
        total = sum(blocks.values()) + 1  # the data blocks and the genesis block
        assert (backend.counts["fetch"], len(decodes)) == (total, total) == (6, 6)
        for name, data in self.FILES.items():
            backend.counts["fetch"], decodes[:] = 0, []
            assert disc.read_file(name) == data
            assert (backend.counts["fetch"], len(decodes)) == (blocks[name], blocks[name])

    @pytest.mark.parametrize("mode", MODES)
    def test_post_without_meta_is_a_bad_block(self, mode, tmp_path):
        root = tmp_path / "osn"
        disc, _ = self._written(mode, DirectoryBackend(root))
        code, addr, _ = disc.chain_blocks()[2]  # the last block of "a"
        digest = DirectoryBackend._digest(perm_to_hashtags(addr, disc.config.alphabet))
        (root / digest / "meta.txt").unlink()
        report = disc.fsck()
        assert [(v.kind, v.counter) for v in report.violations] == [("bad-block", code)]
        assert report.block_count == 3  # the genesis block and the two before it
        with pytest.raises(ChainBroken) as fault:
            disc.read_file("a")
        assert (fault.value.kind, fault.value.counter) == ("bad-block", code)


def numpy_reference_cover(disc_id, counter, width, height):
    """The synthetic cover the package posted before it dropped numpy."""
    digest = hashlib.sha256(f"{disc_id}/{counter}".encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "big")
    pixels = np.random.default_rng(seed).integers(0, 256, size=width * height * 3, dtype=np.uint8)
    return CarrierObject.bitmap(width, height, pixels.tobytes())


class NumpyCoverPool(CarrierPool):
    """The covers posted before numpy was dropped: every post the pool's
    full width x height, whatever its payload."""

    height = 16

    def next_carrier(self, counter, nbytes):
        return numpy_reference_cover(self.disc_id, counter, self.width, self.height)


class SquareCoverPool(CarrierPool):
    """The covers posted before covers were sized to their payload: every
    post a side x side square, the first default pool's shape."""

    def __init__(self, side, disc_id):
        self.width = self.height = side
        self.disc_id = disc_id

    def next_carrier(self, counter, nbytes):
        return cover_bitmap(self.disc_id, counter, self.width, self.height)


def cover_size(nbytes):
    """BMP bytes of a disc's cover for an nbytes payload: the 54-byte
    headers, then 16-pixel rows of 48 bytes (6 hidden bytes) with no padding."""
    return 54 + 48 * -(-nbytes // 6)


def high_bits(data):
    return bytes(value & 0xFE for value in data)


class TestNumpyCovers:
    """A disc posted with the old covers reads, edits and checks clean with
    the new ones: only LSBs are read back, and a rewrite keeps its cover."""

    @pytest.mark.parametrize("mode", MODES)
    def test_old_disc_reopens_edits_and_checks_clean(self, mode, tmp_path, monkeypatch):
        backend = DirectoryBackend(tmp_path / "osn")
        config = DiscConfig.create(n=5, p=16, m=8, mode=mode, disc_id=f"np-{mode}")
        new_pool, old_pool = CarrierPool(config.disc_id), NumpyCoverPool(config.disc_id)
        doc = tmp_path / "sb.txt"
        files = {f"f{i}": random.Random(i).randbytes(5 + 9 * i) for i in range(4)}
        with monkeypatch.context() as patch:  # the old disc's genesis and writes take the old covers
            patch.setattr(stegdisc.disc, "CarrierPool", NumpyCoverPool)
            old = Disc.format(config, backend, doc_path=doc)
            for name, data in files.items():
                old.write_file(name, data)
        old_codes = {code for code, _, _ in old.chain_blocks()}

        disc = Disc.open(doc, backend)
        assert disc.fsck().ok
        assert {name: disc.read_file(name) for name in files} == files
        files["f1"] = b"edited with the new covers"
        disc.modify_file("f1", files["f1"])  # rewrites the old tail and f0's last block
        disc.delete_file("f2")  # rewrites f0's last block again
        del files["f2"]

        for fresh in (disc, Disc.open(doc, backend)):
            assert fresh.fsck().ok
            assert {name: fresh.read_file(name) for name in files} == files
        kept = 0
        for code, addr, payload in disc.chain_blocks():
            cover = old_pool if code in old_codes else new_pool
            want = cover.next_carrier(code, header_size(16) + len(payload.data)).data
            assert high_bits(backend.fetch(disc._tags(addr))) == high_bits(want)
            kept += code in old_codes
        assert kept == sum(compute_chain_length(len(files[name]), 8) for name in ("f0", "f3"))


class TestSquareCovers:
    """A disc posted with square covers for every block reopens with the
    covers its config gives, sized to each payload.  The first
    default pool chose sides of 8 * 2**k pixels, all without row padding."""

    @pytest.mark.parametrize("side", [16, 32, 64])
    @pytest.mark.parametrize("mode", MODES)
    def test_old_disc_takes_put_edit_and_rm(self, mode, side, tmp_path, monkeypatch):
        backend = MemoryBackend()
        config = DiscConfig.create(n=5, p=16, m=64, mode=mode, disc_id=f"sq-{mode}")
        doc = tmp_path / "sb.txt"
        files = {f"f{i}": random.Random(i).randbytes(30 + 50 * i) for i in range(4)}
        with monkeypatch.context() as patch:  # the old disc's genesis and writes take square covers
            patch.setattr(stegdisc.disc, "CarrierPool", lambda disc_id: SquareCoverPool(side, disc_id))
            old = Disc.format(config, backend, doc_path=doc)
            for name, data in files.items():
                old.write_file(name, data)
        old_codes = [code for code, _, _ in old.chain_blocks()]
        rewritten = {old_codes[0]: old_codes[1], old_codes[-1]: 0}  # f0's and f3's last blocks

        disc = Disc.open(doc, backend)
        assert disc.fsck().ok
        assert {name: disc.read_file(name) for name in files} == files
        files["new"] = b"posted with a sized cover"
        disc.write_file("new", files["new"])  # rewrites f3's last block, an old one
        files["f1"] = random.Random(9).randbytes(100)
        disc.modify_file("f1", files["f1"])  # rewrites f0's last block
        disc.delete_file("f2")  # rewrites f0's last block again
        del files["f2"]

        for fresh in (disc, Disc.open(doc, backend)):
            assert fresh.fsck().ok
            assert {name: fresh.read_file(name) for name in files} == files
        chain = {code: (addr, payload) for code, addr, payload in disc.chain_blocks()}
        for code, (addr, payload) in chain.items():
            size = 54 + 3 * side * side if code in old_codes else cover_size(header_size(16) + len(payload.data))
            assert len(backend.fetch(disc._tags(addr))) == size
        for code, pointer in rewritten.items():  # still on the chain, pointing elsewhere
            assert chain[code][1].next_counter != pointer


class TestCoverSizes:
    """Each post's cover has the fewest 16-pixel rows that hold its payload."""

    @pytest.mark.parametrize("mode", MODES)
    def test_posts_are_sized_to_their_payload(self, mode):
        backend = MemoryBackend()
        config = DiscConfig.create(n=7, p=16, m=64, mode=mode, disc_id=f"size-{mode}")
        disc = Disc.format(config, backend)
        disc.write_file("full", bytes(64))
        disc.write_file("one", b"x")
        sizes = [len(backend.fetch(disc._tags(addr))) for _, addr, _ in disc.chain_blocks()]
        assert sizes == [54 + 12 * 48, 150]
        genesis = len(backend.fetch(disc._tags(config.genesis)))
        assert genesis == cover_size(header_size(16) + len(config.echo_bytes())) < 630

    def test_wider_pointers_take_a_taller_cover(self):
        config = DiscConfig.create(n=7, p=24, m=64, mode="C", disc_id="size-p24")
        disc = Disc.format(config, MemoryBackend())
        disc.write_file("full", bytes(64))
        (_, addr, _), = disc.chain_blocks()
        assert len(disc.backend.fetch(disc._tags(addr))) == 678


class TestCoverFit:
    """Every payload a disc posts fits the cover its config gives it, from
    the narrowest pointers and blocks to the widest, with short and long
    disc ids (the genesis echo grows with the id)."""

    @pytest.mark.parametrize("disc_id", ["i", "d" * 60])
    @pytest.mark.parametrize("m", [1, 64, 300])
    @pytest.mark.parametrize("p", [1, 8, 24, 40])
    def test_every_payload_fits_its_cover(self, p, m, disc_id):
        config = DiscConfig.create(n=4, p=p, m=m, mode="C", disc_id=disc_id)
        pool = CarrierPool(disc_id)
        for nbytes in range(1, carrier_bytes(config) + 1):
            assert capacity(pool.next_carrier(3, nbytes)) >= nbytes

    @pytest.mark.parametrize("disc_id", ["i", "d" * 60])
    @pytest.mark.parametrize("m", [1, 300])
    @pytest.mark.parametrize("p", [1, 40])
    def test_a_full_block_checks_clean(self, p, m, disc_id, tmp_path):
        config = DiscConfig.create(n=4, p=p, m=m, mode="C", disc_id=disc_id)
        backend, doc = MemoryBackend(), tmp_path / "sb.txt"
        disc = Disc.format(config, backend, doc_path=doc)
        files = {"full": random.Random(p * m).randbytes(m)}
        if p == 1:  # no completion counter is as low as 2^p - 1 = 1: only the genesis fits
            with pytest.raises(CounterOverflow):
                disc.write_file("full", files.pop("full"))
        else:
            disc.write_file("full", files["full"])
        for fresh in (disc, Disc.open(doc, backend)):
            report = fresh.fsck()
            assert report.ok and report.block_count == 1 + len(files)
            assert {name: fresh.read_file(name) for name in files} == files


class TestReplaySoundness:
    def test_every_block_replays(self):
        disc, _ = make_disc("C", n=4, m=4)
        for i in range(6):
            disc.write_file(f"f{i}", bytes([i]) * 11)
        disc.delete_file("f2")
        seed = disc.config.genesis
        blocks = disc.chain_blocks()
        assert blocks
        for code, addr, _ in blocks:
            assert sampler_replay(seed, code) == addr
        codes = [code for code, _, _ in blocks]
        assert codes == sorted(codes)  # strictly increasing along the chain
        assert len(set(codes)) == len(codes)


class TestModeEquivalence:
    def test_same_script_same_bytes(self):
        rng = random.Random(13)
        script = []
        names = [f"n{i}" for i in range(6)]
        live = set()
        for _ in range(40):
            op = rng.choice(["write", "write", "delete", "modify"])
            name = rng.choice(names)
            if op == "write" and name not in live:
                script.append(("write", name, rng.randbytes(rng.randrange(0, 60))))
                live.add(name)
            elif op == "delete" and name in live:
                script.append(("delete", name))
                live.discard(name)
            elif op == "modify" and name in live:
                script.append(("modify", name, rng.randbytes(rng.randrange(0, 60))))
        results = {}
        for mode in MODES:
            disc, _ = make_disc(mode, n=5, m=8)
            for step in script:
                if step[0] == "write":
                    disc.write_file(step[1], step[2])
                elif step[0] == "delete":
                    disc.delete_file(step[1])
                else:
                    disc.modify_file(step[1], step[2])
            results[mode] = {e.name: disc.read_file(e.name) for e in disc.list_files()}
            assert disc.fsck().ok
        assert results["A"] == results["B"] == results["C"]


# one step of a differential script: (verb, file, size of the new contents)
STEPS = st.one_of(
    st.tuples(st.sampled_from(["put", "edit"]), st.sampled_from("abcd"), st.integers(0, 70)),
    st.tuples(st.just("rm"), st.sampled_from("abcd"), st.just(0)),
    st.tuples(st.just("reopen"), st.just(""), st.just(0)),
)


def _addresses(disc):
    return [addr for _, addr, _ in disc.chain_blocks()]


def _store(backend, skip):
    """Every post's bytes by address, but the one at `skip`."""
    return {tags: backend.fetch(tags) for tags in backend.live_addresses() if tags != skip}


class TestModeDifferential:
    """Differential testing (McKeeman, Differential Testing for Software,
    Digital Technical Journal, 1998): one script runs in the three modes,
    which share one address stream.  Modes A and B post the same bytes at
    the same addresses, bar the genesis echo that names the mode; mode C
    posts at the same addresses until a session starts after a step that
    removed the chain's last run (its pointers are stream positions, and it
    resumes allocation from the tail, not from a stream= line)."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(STEPS, max_size=30))
    def test_one_script_three_modes(self, script):
        with tempfile.TemporaryDirectory() as tmp:
            sessions = {}
            for mode in MODES:
                config = DiscConfig.create(n=6, p=16, m=16, mode=mode, disc_id="differential")
                backend, doc = MemoryBackend(), Path(tmp) / f"{mode}.txt"
                sessions[mode] = (Disc.format(config, backend, doc_path=doc), backend, doc)
            genesis = perm_to_hashtags(config.genesis, config.alphabet)
            files, tail_removed = {}, False
            before = []
            for index, (verb, name, size) in enumerate(script):
                blob = bytes([index]) * size
                if verb in ("put", "edit") and (name in files) == (verb == "edit"):
                    files[name] = blob
                elif verb == "rm" and name in files:
                    del files[name]
                elif verb != "reopen":
                    continue  # a put of a live name, or an edit or rm of none
                for mode, (disc, backend, doc) in sessions.items():
                    if verb == "reopen":
                        sessions[mode] = (Disc.open(doc, backend), backend, doc)
                    elif verb == "put":
                        disc.write_file(name, blob)
                    elif verb == "edit":
                        disc.modify_file(name, blob)
                    else:
                        disc.delete_file(name)
                chains = {mode: _addresses(disc) for mode, (disc, _, _) in sessions.items()}
                after = chains["A"]
                # the chain's last run went, and no new run took its place
                if before and before[-1] not in after and (not after or after[-1] in before):
                    tail_removed = True
                before = after
                assert chains["B"] == chains["A"]
                assert _store(sessions["B"][1], genesis) == _store(sessions["A"][1], genesis)
                if not tail_removed:
                    assert chains["C"] == chains["A"]
            for disc, _, _ in sessions.values():
                assert {entry.name: disc.read_file(entry.name) for entry in disc.list_files()} == files
                assert disc.fsck().ok


def _first_free(genesis, counter, taken):
    """(counter, address) of the first stream position past `counter`
    whose address is not in `taken`."""
    state = SamplerState(counter, sampler_replay(genesis, counter)) if counter else SamplerState.fresh(genesis)
    while True:
        perm, counter, state = sampler_advance(state)
        if perm not in taken:
            return counter, perm


class TestModeDifferences:
    """The two places where the modes' addresses differ, both owned by the
    pointer encoding: rank codes reserve rank 0 (the identity) for NULL,
    and stream positions need no stream= line, so mode C resumes from the
    chain tail."""

    def test_only_mode_c_posts_at_the_identity(self):
        identity, addresses = (0, 1, 2), {}
        for mode in MODES:
            config = DiscConfig.create(n=3, p=8, m=4, mode=mode, genesis=(1, 0, 2), disc_id="identity")
            disc = Disc.format(config, MemoryBackend())
            disc.write_file("four blocks", b"x" * 16)  # every code A and B have free
            addresses[mode] = disc.chain_blocks()
            assert disc.fsck().ok
        assert addresses["C"][1][:2] == (7, identity)
        assert identity not in {addr for _, addr, _ in addresses["A"] + addresses["B"]}

    def test_a_session_after_the_tail_file_went(self, tmp_path):
        runs = {}
        for mode in MODES:
            config = DiscConfig.create(n=6, p=16, m=16, mode=mode, disc_id="resume")
            backend, doc = MemoryBackend(), tmp_path / f"{mode}.txt"
            disc = Disc.format(config, backend, doc_path=doc)
            disc.write_file("a", b"a" * 40)
            disc.write_file("b", b"b" * 40)
            before = disc.chain_blocks()
            fresh = Disc.open(doc, backend)
            fresh.delete_file("b")
            fresh.write_file("c", b"c" * 40)
            runs[mode] = before, fresh.chain_blocks()[3:]
            assert fresh.fsck().ok
        genesis = config.genesis
        (before, c_run) = runs["C"]
        a_last, b_last = before[2][0], before[5][0]  # mode C's codes are stream positions
        a_run = {addr for _, addr, _ in before[:3]}
        # mode C resumes from a's last block, so c takes b's first position again
        assert c_run[0][0] == _first_free(genesis, a_last, a_run | {genesis})[0] == before[3][0]
        # modes A and B resume from stream=, past b's last block
        _, want = _first_free(genesis, b_last, a_run | {genesis, tuple(range(6))})
        for mode in ("A", "B"):
            assert [addr for _, addr, _ in runs[mode][0]] == [addr for _, addr, _ in before]
            assert runs[mode][1][0][1] == want


class TestChainBound:
    def test_overflow_leaves_disc_clean(self):
        disc, _ = make_disc("C", n=3, p=8, m=4)
        written = []
        with pytest.raises(CounterOverflow):
            for i in range(1000):
                disc.write_file(f"f{i}", bytes([i % 256]) * 10)
                written.append(f"f{i}")
        assert written  # several writes fit under the 2^8 - 1 iteration bound
        assert disc.fsck().ok
        for name in written:
            assert disc.read_file(name) == bytes([int(name[1:]) % 256]) * 10
        assert len(disc.list_files()) == len(written)


class TestPersistence:
    def test_superblock_round_trip(self):
        config = DiscConfig.create(n=4, p=16, m=8, mode="A", disc_id="rt")
        entries = [
            FileEntry("plain", 7, 10),
            FileEntry("with space", 3, 0),
            FileEntry("uni-é火", 12, 99),
            FileEntry("percent%25", 1, 1),
        ]
        used = {1, 5, 9}
        written = Document(config, {entry.name: entry.line for entry in entries})
        written.used.update(used)
        text = written.text()
        read = Document.read(text)
        config2 = read.config
        assert (config2.n, config2.p, config2.m, config2.mode) == (4, 16, 8, "A")
        assert config2.genesis == config.genesis
        assert config2.alphabet.tags == config.alphabet.tags
        assert list(map(read.entry, read.entries)) == entries
        assert read.used == used
        assert read.text() == text

    def test_superblock_no_used_line_outside_mode_a(self):
        config = DiscConfig.create(n=4, p=16, m=8, mode="C", disc_id="rt")
        text = Document(config).text()
        assert "used=" not in text
        assert Document.read(text).text() == text

    @pytest.mark.parametrize("mode", MODES)
    def test_reopen_reads_and_extends(self, mode, tmp_path):
        doc = tmp_path / "sb.txt"
        backend = MemoryBackend()
        config = DiscConfig.create(n=4, p=16, m=8, mode=mode, disc_id="ro")
        disc = Disc.format(config, backend, doc_path=doc)
        disc.write_file("first", b"written before reopen")
        disc.write_file("second", b"x" * 50)
        disc.delete_file("second")

        fresh = Disc.open(doc, backend)
        assert fresh.read_file("first") == b"written before reopen"
        fresh.write_file("third", b"written after reopen")
        assert fresh.read_file("third") == b"written after reopen"
        assert fresh.fsck().ok

        again = Disc.open(doc, backend)
        assert {e.name for e in again.list_files()} == {"first", "third"}
        assert again.read_file("third") == b"written after reopen"

    def test_open_missing_keys(self, tmp_path):
        doc = tmp_path / "sb.txt"
        doc.write_text("disc_id=x\nmode=C\n")
        with pytest.raises(ConfigInvalid):
            Disc.open(doc, MemoryBackend())


class TestModel:
    @pytest.mark.parametrize("mode", MODES)
    def test_random_script_against_dict(self, mode):
        rng = random.Random(ord(mode))
        disc, _ = make_disc(mode, n=5, m=16)
        reference = {}
        names = [f"doc{i}" for i in range(7)]
        for _ in range(60):
            op = rng.choice(["write", "read", "delete", "modify", "list"])
            name = rng.choice(names)
            if op == "write":
                blob = rng.randbytes(rng.randrange(0, 200))
                if name in reference:
                    with pytest.raises(NameExists):
                        disc.write_file(name, blob)
                else:
                    disc.write_file(name, blob)
                    reference[name] = blob
            elif op == "read":
                if name in reference:
                    assert disc.read_file(name) == reference[name]
                else:
                    with pytest.raises(FileNotFound):
                        disc.read_file(name)
            elif op == "delete":
                if name in reference:
                    disc.delete_file(name)
                    del reference[name]
                else:
                    with pytest.raises(FileNotFound):
                        disc.delete_file(name)
            elif op == "modify":
                if name in reference:
                    blob = rng.randbytes(rng.randrange(0, 200))
                    disc.modify_file(name, blob)
                    reference[name] = blob
                else:
                    with pytest.raises(FileNotFound):
                        disc.modify_file(name, b"x")
            else:
                assert [e.name for e in disc.list_files()] == sorted(reference)
        assert disc.fsck().ok
        for name, blob in reference.items():
            assert disc.read_file(name) == blob


class TestStats:
    def test_dictionary_only_in_mode_a(self):
        for mode in MODES:
            disc, _ = make_disc(mode, m=4)
            disc.write_file("f", b"0123456789")
            stats = disc.stats()
            assert stats.block_count == 3
            assert stats.file_count == 1
            assert (stats.checkpoints > 0) == (mode == "C")
            if mode == "A":
                assert stats.dictionary_bytes > 0
            else:
                assert stats.dictionary_bytes == 0

    @pytest.mark.parametrize("mode", MODES)
    def test_byte_counts_match_the_document(self, mode, tmp_path):
        doc = tmp_path / "sb.txt"
        config = DiscConfig.create(n=5, p=16, m=8, mode=mode, disc_id="bytes")
        disc = Disc.format(config, MemoryBackend(), doc_path=doc)
        for i in range(12):
            disc.write_file(f"file {i}", bytes(range(i * 3)))
        disc.delete_file("file 5")

        def check(stats):
            lines = doc.read_text(encoding="utf-8").splitlines()
            assert stats.persistent_bytes == doc.stat().st_size
            assert stats.catalog_bytes == sum(len(line.encode("utf-8")) + 1 for line in lines if "\t" in line)
            used = [line for line in lines if line.startswith("used=")]
            if mode == "A":
                assert stats.dictionary_bytes == len(used[0]) + 1
            else:
                assert not used and stats.dictionary_bytes == 0

        check(disc.stats())
        check(Disc.open(doc, disc.backend).stats())
        with doc.open("a", encoding="utf-8") as out:
            out.write("火é\t0\t0\n")  # a hand-written name is read and kept unquoted
        check(Disc.open(doc, disc.backend).stats())

    def test_mode_a_dictionary_tracks_blocks(self):
        disc, _ = make_disc("A", n=5, m=1)
        disc.write_file("f", b"0123456789")
        ten = disc.stats().dictionary_bytes
        disc.delete_file("f")
        assert disc.stats().dictionary_bytes < ten


class TestCheckpointLadder:
    def test_warm_reads_replay_at_most_one_bucket_plus_the_run(self):
        disc, backend = make_disc("C", n=7, p=24, m=8)
        rng = random.Random(300)
        files = {f"f{i:03d}": rng.randbytes(rng.randrange(1, 25)) for i in range(300)}
        for name, blob in files.items():
            disc.write_file(name, blob)
        codes = [code for code, _, _ in disc.chain_blocks()]
        entries = {e.name: e for e in disc.list_files()}
        # the writes walked every counter, so the ladder resolves each one
        for name, blob in files.items():
            assert disc.read_file(name) == blob
        assert disc.stats().replay_iterations == 0
        # a fresh session has no ladder: it replays from the seed to the run's end
        for name in list(files)[::37]:
            cold = Disc(Document(disc.config, {e.name: e.line for e in entries.values()}), backend)
            assert cold.read_file(name) == files[name]
            start = codes.index(entries[name].start_counter)
            last = codes[start + compute_chain_length(len(files[name]), 8) - 1]
            assert cold.stats().replay_iterations == last
            assert cold.stats().checkpoints > 0

    def test_rolled_back_write_leaves_sound_checkpoints(self):
        disc, backend = make_disc("C", n=7, p=24, m=8)
        backend.failure_rate = 0.02
        with pytest.raises(BackendUnavailable):
            disc.write_file("big", bytes(range(256)) * 2)  # 64 blocks
        stats = disc.stats()
        assert stats.hash_iterations == 0  # no allocation committed ...
        assert stats.checkpoints >= 2  # ... yet the walk left checkpoints
        backend.failure_rate = 0.0
        assert disc.fsck().ok
        rng = random.Random(2)
        files = {f"g{i}": rng.randbytes(rng.randrange(1, 60)) for i in range(40)}
        for name, blob in files.items():
            disc.write_file(name, blob)
        for name, blob in files.items():
            assert disc.read_file(name) == blob
        for code, addr, _ in disc.chain_blocks():
            assert addr == sampler_replay(disc.config.genesis, code)
        assert disc.fsck().ok

    @pytest.mark.parametrize("mode", MODES)
    def test_reads_leave_the_superblock_untouched(self, mode, tmp_path):
        doc = tmp_path / "sb.txt"
        config = DiscConfig.create(n=5, p=24, m=8, mode=mode, disc_id="ro")
        disc = Disc.format(config, MemoryBackend(), doc_path=doc)
        rng = random.Random(9)
        files = {f"h{i}": rng.randbytes(rng.randrange(1, 40)) for i in range(30)}
        for name, blob in files.items():
            disc.write_file(name, blob)
        before = doc.read_bytes()
        for _ in range(3):
            for name, blob in files.items():
                assert disc.read_file(name) == blob
        assert disc.fsck().ok
        assert doc.read_bytes() == before
        assert (disc.stats().checkpoints > 0) == (mode == "C")


class ProxyBackend:
    """A backend that counts queries by verb and, once armed, fails the
    k-th query (of one verb, or of any) with a transient error, once."""

    VERBS = ("post", "exists", "fetch", "replace", "remove", "live_addresses")

    def __init__(self, inner):
        self.inner = inner
        self.counts = {verb: 0 for verb in self.VERBS}
        self._left = None
        self._verb = None

    def arm(self, k, verb=None):
        self._left, self._verb = k, verb

    def _call(self, verb, *args):
        self.counts[verb] += 1
        if self._left is not None and self._verb in (None, verb):
            self._left -= 1
            if self._left == 0:
                self._left = None
                raise BackendUnavailable(f"injected failure of {verb}")
        return getattr(self.inner, verb)(*args)

    def __getattr__(self, verb):
        if verb not in self.VERBS:
            raise AttributeError(verb)
        return lambda *args: self._call(verb, *args)


def make_doc_disc(mode, tmp_path, n=7, p=24, m=8):
    backend = ProxyBackend(MemoryBackend())
    config = DiscConfig.create(n=n, p=p, m=m, mode=mode, disc_id=f"nb-{mode}")
    doc = tmp_path / "sb.txt"
    return Disc.format(config, backend, doc_path=doc), backend, doc


def _reorder_catalog(doc, names):
    """Write the document back as a snapshot whose catalog lists `names` in that order."""
    document = Document.read(doc.read_text(encoding="utf-8"))
    document.entries = {name: document.entries[name] for name in names}
    doc.write_text(document.text(), encoding="utf-8")


def run_starts(disc):
    """First pointer of each file's run, in chain order, from a traversal
    and the catalog's block counts."""
    codes = [code for code, _, _ in disc.chain_blocks()]
    by_start = {e.start_counter: e for e in disc.list_files() if e.length}
    starts, idx = [], 0
    while idx < len(codes):
        entry = by_start[codes[idx]]
        starts.append(entry.start_counter)
        idx += compute_chain_length(entry.length, disc.config.m)
    return starts


class TestCatalogNeighbours:
    @pytest.mark.parametrize("mode", MODES)
    def test_rm_and_reopen_fetch_only_neighbouring_runs(self, mode, tmp_path):
        disc, backend, doc = make_doc_disc(mode, tmp_path)
        rng = random.Random(41)
        files = {f"f{i:03d}": rng.randbytes(rng.randrange(1, 25)) for i in range(300)}
        for name, blob in files.items():
            disc.write_file(name, blob)
        names = list(files)

        def blocks(name):
            return compute_chain_length(len(files[name]), 8)

        for idx in (0, 100, 150, 200, 299):
            prev = blocks(names[idx - 1]) if idx else 0
            before = backend.counts["fetch"]
            disc.delete_file(names[idx])
            assert backend.counts["fetch"] - before <= prev + blocks(names[idx]) + 2
            del files[names[idx]]
        last = list(files)[-1]
        fresh = Disc.open(doc, backend)
        before = backend.counts["fetch"]
        fresh.write_file("new", b"appended after reopen")
        assert backend.counts["fetch"] - before <= blocks(last) + 2
        files["new"] = b"appended after reopen"
        assert fresh.fsck().ok
        for name, blob in files.items():
            assert fresh.read_file(name) == blob

    @pytest.mark.parametrize("mode", MODES)
    def test_first_put_after_open_fetches_the_tail_run_once(self, mode, tmp_path):
        disc, backend, doc = make_doc_disc(mode, tmp_path)
        for i in range(20):
            disc.write_file(f"f{i:02d}", bytes([i]) * 24)  # 3 blocks each
        disc.write_file("empty", b"")
        fresh = Disc.open(doc, backend)
        before = backend.counts["fetch"]
        fresh.write_file("new", b"n" * 20)
        # the tail lookup walks f19's run, and the link rewrites its last block
        assert backend.counts["fetch"] - before == 3
        before = backend.counts["fetch"]
        fresh.write_file("newer", b"m" * 9)
        assert backend.counts["fetch"] - before == 1  # a later put fetches the tail
        assert fresh.fsck().ok
        assert fresh.read_file("new") == b"n" * 20

    @pytest.mark.parametrize("mode", MODES)
    def test_catalog_order_is_chain_order(self, mode, tmp_path):
        disc, backend, doc = make_doc_disc(mode, tmp_path, n=6, m=8)
        rng = random.Random(ord(mode) + 5)
        reference = {}
        for step in range(120):
            name = f"d{rng.randrange(12)}"
            blob = rng.randbytes(rng.choice((0, rng.randrange(1, 40))))
            if name not in reference:
                disc.write_file(name, blob)
                reference[name] = blob
            elif rng.random() < 0.5:
                disc.modify_file(name, blob)
                reference[name] = blob
            else:
                disc.delete_file(name)
                del reference[name]
            if step % 40 == 39:
                disc = Disc.open(doc, backend)
            read = Document.read(doc.read_text(encoding="utf-8"))
            assert [e.start_counter for e in map(read.entry, read.entries) if e.length] == run_starts(disc)
        assert disc.fsck().ok
        for name, blob in reference.items():
            assert disc.read_file(name) == blob

    @pytest.mark.parametrize("mode", MODES)
    def test_out_of_order_catalog_falls_back_to_a_traversal(self, mode, tmp_path):
        disc, backend, doc = make_doc_disc(mode, tmp_path, n=6, m=4)
        for name in ("a", "b", "c", "d"):
            disc.write_file(name, name.encode() * 9)
        disc.modify_file("b", b"B" * 7)  # chain order is now a c d b
        # the catalog order an in-place edit used to leave behind
        _reorder_catalog(doc, "abcd")
        fresh = Disc.open(doc, backend)
        fresh.write_file("e", b"after the real tail")
        assert fresh.read_file("e") == b"after the real tail"
        fresh.delete_file("c")
        fresh.delete_file("b")
        assert fresh.fsck().ok
        assert fresh.read_file("a") == b"a" * 9
        assert fresh.read_file("d") == b"d" * 9
        again = Disc.open(doc, backend)
        again.write_file("f", b"tail after fallback deletes")
        assert again.fsck().ok
        assert again.read_file("f") == b"tail after fallback deletes"

    @pytest.mark.parametrize("mode", MODES)
    def test_fallback_walks_only_to_the_predecessor(self, mode, tmp_path):
        disc, backend, doc = make_doc_disc(mode, tmp_path)
        rng = random.Random(43)
        files = {f"f{i:03d}": rng.randbytes(rng.randrange(1, 17)) for i in range(300)}
        for name, blob in files.items():
            disc.write_file(name, blob)
        _reorder_catalog(doc, reversed(files))
        fresh = Disc.open(doc, backend)
        before = backend.counts["fetch"]
        fresh.delete_file("f000")  # the genesis block points at its run
        # the guess walks f001's run (at most 2 blocks), then the genesis
        # block is the predecessor
        assert backend.counts["fetch"] - before <= compute_chain_length(len(files["f000"]), 8) + 3
        del files["f000"]
        assert fresh.fsck().ok
        for name, blob in files.items():
            assert fresh.read_file(name) == blob

    def test_fresh_session_rm_of_the_last_file_then_put(self, tmp_path):
        disc, backend, doc = make_doc_disc("C", tmp_path)
        files = {name: name.encode() * 12 for name in ("a", "b", "c", "d")}
        for name, blob in files.items():
            disc.write_file(name, blob)
        disc.delete_file("b")  # frees counters below the tail
        del files["b"]
        fresh = Disc.open(doc, backend)
        fresh.delete_file("d")
        del files["d"]
        files["e"] = b"appended at the tail the rm left"
        fresh.write_file("e", files["e"])
        codes = [code for code, _, _ in fresh.chain_blocks()]
        assert codes == sorted(set(codes))
        assert fresh.fsck().ok
        for name, blob in files.items():
            assert fresh.read_file(name) == blob

    @pytest.mark.parametrize("mode", MODES)
    def test_put_after_a_failed_edit_appends_at_the_real_tail(self, mode, tmp_path):
        disc, backend, doc = make_doc_disc(mode, tmp_path, n=6, m=4)
        disc.write_file("a", b"a" * 9)
        disc.write_file("b", b"b" * 9)
        backend.arm(2, "replace")  # the first replace links the new run, the second splices
        with pytest.raises(BackendUnavailable):
            disc.modify_file("a", b"new content for a")
        # the new run is linked after b, and no entry names it
        assert len(disc.chain_blocks()) == 3 + 3 + 5
        fresh = Disc.open(doc, backend)
        fresh.write_file("c", b"c" * 9)
        runs = [code for code, _, _ in fresh.chain_blocks()]
        assert fresh.list_files()[2].start_counter == runs[-3]
        assert fresh.read_file("c") == b"c" * 9
        assert fresh.read_file("a") == b"a" * 9
        assert fresh.read_file("b") == b"b" * 9


class TestDeleteFaults:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("k", range(1, 11))  # rm of b makes 10 queries
    def test_transient_failure_in_rm(self, mode, k, tmp_path):
        disc, backend, doc = make_doc_disc(mode, tmp_path, n=4, p=16, m=4)
        files = {name: name.encode() * 10 for name in ("a", "b", "c")}
        for name, blob in files.items():
            disc.write_file(name, blob)
        backend.arm(k)
        try:
            disc.delete_file("b")
        except BackendUnavailable:
            disc.delete_file("b")
        assert backend._left is None  # the failure did happen, inside rm
        del files["b"]
        assert disc.fsck().ok
        with pytest.raises(FileNotFound):
            disc.read_file("b")
        for name, blob in files.items():
            assert disc.read_file(name) == blob
        # a leaked post must stay occupied: fill every free address
        fresh = Disc.open(doc, backend.inner)
        free = factorial(4) - len(backend.inner.live_addresses())
        fresh.write_file("fill", bytes(range(4 * free)))
        assert fresh.fsck().ok
        assert fresh.read_file("fill") == bytes(range(4 * free))

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
    @pytest.mark.parametrize("mode", MODES)
    def test_rm_after_a_crash_in_rm(self, mode, monkeypatch, tmp_path):
        import stegdisc.disc as disc_mod

        disc, backend, doc = make_doc_disc(mode, tmp_path, n=6, m=4)
        for name in ("a", "b", "c"):
            disc.write_file(name, name.encode() * 10)

        def unavailable(*args):
            raise BackendUnavailable("injected failure of remove")

        def crash(*args, **kwargs):
            raise SystemExit("killed before the document was written")

        with monkeypatch.context() as patch:
            patch.setattr(backend.inner, "remove", unavailable)
            patch.setattr(disc_mod, "write_superblock", crash)
            with pytest.raises(SystemExit):
                disc.delete_file("b")  # spliced out; its posts and its entry stay
        fresh = Disc.open(doc, backend.inner)
        fresh.delete_file("c")
        assert [(v.kind, v.counter) for v in fresh.fsck().violations] == []


def _two_files(mode, tmp_path):
    disc, backend, doc = make_doc_disc(mode, tmp_path, n=4, p=16, m=4)
    files = {name: name.encode() * 10 for name in ("a", "b")}
    for name, blob in files.items():
        disc.write_file(name, blob)
    return disc, backend, doc, files


class TestWriteFaults:
    @pytest.mark.parametrize("mode", MODES)
    def test_transient_failure_in_put(self, mode, tmp_path):
        disc, backend, _, _ = _two_files(mode, tmp_path)
        before = sum(backend.counts.values())
        disc.write_file("c", b"c" * 10)  # 3 blocks
        queries = sum(backend.counts.values()) - before
        for k in range(1, queries + 1):
            (tmp_path / str(k)).mkdir()
            disc, backend, doc, files = _two_files(mode, tmp_path / str(k))
            files["c"] = b"c" * 10
            backend.arm(k)
            try:
                disc.write_file("c", files["c"])
            except BackendUnavailable:
                disc.write_file("c", files["c"])
            assert backend._left is None  # the failure did happen, inside put
            assert disc.fsck().ok
            for name, blob in files.items():
                assert disc.read_file(name) == blob
            # a missing rollback leaves a post the chain does not hold
            assert len(backend.inner.live_addresses()) == len(disc.chain_blocks()) + 1
            fresh = Disc.open(doc, backend.inner)
            free = factorial(4) - len(backend.inner.live_addresses())
            fresh.write_file("fill", bytes(range(4 * free)))
            assert fresh.fsck().ok
            assert fresh.read_file("fill") == bytes(range(4 * free))


class ScriptedBackend(ProxyBackend):
    """Fails, once each, the n-th query of a verb counted from `script`."""

    def __init__(self, inner):
        super().__init__(inner)
        self._due = {}

    def script(self, **nth):
        self._due = {verb: self.counts[verb] + n for verb, n in nth.items()}

    def _call(self, verb, *args):
        if self._due.get(verb) == self.counts[verb] + 1:
            self.counts[verb] += 1
            del self._due[verb]
            raise BackendUnavailable(f"scripted failure of {verb}")
        return super()._call(verb, *args)


class TestUnrecordedPosts:
    """Mode A trusts its used set; a post the set does not list must not
    make later puts fail."""

    def test_put_after_a_crash_before_the_persist(self, monkeypatch, tmp_path):
        import stegdisc.disc as disc_mod

        disc, backend, doc, files = _two_files("A", tmp_path)

        def crash(*args, **kwargs):
            raise SystemExit("killed before the document was written")

        with monkeypatch.context() as patch:
            patch.setattr(disc_mod, "write_superblock", crash)
            with pytest.raises(SystemExit):
                disc.write_file("c", b"c" * 10)  # linked, but not in the document
        fresh = Disc.open(doc, backend.inner)
        files["d"] = b"d" * 10
        fresh.write_file("d", files["d"])
        for name, blob in files.items():
            assert fresh.read_file(name) == blob
        # c's run is linked and no entry names it
        assert [(v.kind, v.counter) for v in fresh.fsck().violations] == [("block-count", 0)]

    @pytest.mark.parametrize("reopen", [False, True], ids=["same-session", "reopened"])
    def test_put_after_a_failed_rollback(self, reopen, tmp_path):
        disc, _, doc, files = _two_files("A", tmp_path)
        backend = ScriptedBackend(disc.backend.inner)
        disc.backend = backend
        backend.script(post=2, remove=1)  # the 1st post stays behind as an orphan
        with pytest.raises(BackendUnavailable):
            disc.write_file("c", b"c" * 10)
        assert backend._due == {}
        if reopen:
            disc = Disc.open(doc, backend.inner)
        files["c"] = b"c" * 10
        disc.write_file("c", files["c"])
        assert disc.fsck().ok
        for name, blob in files.items():
            assert disc.read_file(name) == blob


class TestCatalog:
    def test_duplicate_name_rejected(self, tmp_path):
        config = DiscConfig.create(n=4, p=16, m=8, mode="C", disc_id="dup")
        doc = tmp_path / "sb.txt"
        text = Document(config, {"x": FileEntry("x", 1, 3).line}).text()
        doc.write_text(text + FileEntry("x", 9, 3).line + "\n", encoding="utf-8")
        with pytest.raises(ConfigInvalid):
            Disc.open(doc, MemoryBackend())

    def test_lines_are_quoted_once(self, monkeypatch, tmp_path):
        import stegdisc.document as document_mod

        disc, backend, doc = make_doc_disc("A", tmp_path, m=4)
        for i in range(20):
            disc.write_file(f"file {i}", b"x")
        calls = []
        real_quote = document_mod.quote
        monkeypatch.setattr(document_mod, "quote", lambda *a, **kw: calls.append(a) or real_quote(*a, **kw))
        disc.stats()
        disc.write_file("one more", b"y")
        disc.stats()
        # an opened catalog keeps the lines it was read from
        fresh = Disc.open(doc, backend)
        fresh.write_file("after reopen", b"z")
        fresh.stats()
        assert calls == [("one more",), ("after reopen",)]
        text = doc.read_text(encoding="utf-8")
        formatted = Document.read(text)
        formatted.entries = {e.name: e.line for e in map(formatted.entry, formatted.entries)}
        assert text == formatted.text()

    @pytest.mark.parametrize("mode", MODES)
    def test_start_code_wider_than_p_is_a_bad_block(self, mode, tmp_path):
        # a hand-edited line: mode C would replay 10^6 hashes to resolve it
        disc, backend, doc = make_doc_disc(mode, tmp_path, n=5, p=16)
        with doc.open("a", encoding="utf-8") as out:
            out.write("huge\t1000000\t5\n")
        fresh = Disc.open(doc, backend)
        fetches = backend.counts["fetch"]
        with pytest.raises(ChainBroken) as fault:
            fresh.read_file("huge")
        assert (fault.value.kind, fault.value.counter) == ("bad-block", 1000000)
        assert fresh.stats().replay_iterations == 0
        assert backend.counts["fetch"] == fetches
        # the put's tail guess walks huge's run first, then the chain
        fresh.write_file("after", b"a" * 20)
        assert fresh.stats().replay_iterations == 0
        assert fresh.read_file("after") == b"a" * 20
        report = fresh.fsck()
        assert [(v.kind, v.counter) for v in report.violations] == [("file-missing", 1000000), ("block-count", 0)]

    @pytest.mark.parametrize("key", ["used", "stream", "mode"])
    def test_repeated_header_key_rejected(self, key):
        config = DiscConfig.create(n=4, p=16, m=8, mode="A", disc_id="rep")
        document = Document(config)
        document.used.add(5)
        text = document.text()
        line = next(line for line in text.splitlines() if line.startswith(key + "="))
        with pytest.raises(ConfigInvalid, match="repeats"):
            Document.read(text + line + "\n")


def _rewrite_stream(doc, stream):
    """Write the document back with `stream` as its sampler position (None
    drops the line, as a document written before the line existed)."""
    document = Document.read(doc.read_text(encoding="utf-8"))
    document.sampler = stream or document.sampler
    lines = document.text().splitlines(keepends=True)
    kept = [line for line in lines if stream is not None or not line.startswith("stream=")]
    doc.write_text("".join(kept), encoding="utf-8")


class TestStreamPosition:
    """Modes A and B persist the allocation sampler's position, so a fresh
    session neither replays the stream nor probes past every used address."""

    @pytest.mark.parametrize("mode", ["A", "B"])
    def test_fresh_session_put_is_cheap(self, mode, tmp_path):
        disc, backend, doc = make_doc_disc(mode, tmp_path)
        rng = random.Random(17)
        for i in range(300):
            disc.write_file(f"f{i:03d}", rng.randbytes(rng.randrange(1, 17)))
        fresh = Disc.open(doc, backend)
        probes = backend.counts["exists"]
        fresh.write_file("three blocks", b"z" * 20)
        # a fresh sampler at counter 0 spends thousands of hashes (and in
        # mode B as many probes) passing every used address again
        assert fresh.stats().hash_iterations <= 1000
        if mode == "B":
            assert backend.counts["exists"] - probes <= 50
        assert fresh.read_file("three blocks") == b"z" * 20
        assert fresh.fsck().ok

    @pytest.mark.parametrize("mode", ["A", "B"])
    def test_reopen_does_not_change_allocation(self, mode, tmp_path):
        (tmp_path / "one").mkdir()
        (tmp_path / "two").mkdir()
        one, _, _ = make_doc_disc(mode, tmp_path / "one", n=5, p=16)
        two, backend, doc = make_doc_disc(mode, tmp_path / "two", n=5, p=16)
        rng = random.Random(23)
        for i in range(40):
            blob = rng.randbytes(rng.randrange(1, 25))
            two = Disc.open(doc, backend)
            for disc in (one, two):
                disc.write_file(f"f{i}", blob)
                if i % 7 == 6:  # freed addresses must not come back early
                    disc.delete_file(f"f{i - 3}")
        assert one.chain_blocks() == two.chain_blocks()
        assert two.fsck().ok

    @pytest.mark.parametrize("mode", ["A", "B"])
    def test_rank_code_modes_have_no_stream_bound(self, mode, tmp_path):
        # 2^p - 1 bounds rank codes, not the stream: churning one-block
        # files through n=3's few addresses walks far past 2^3 - 1
        disc, backend, doc = make_doc_disc(mode, tmp_path, n=3, p=3)
        files = {}
        for i in range(40):
            files[f"f{i}"] = bytes([i]) * 8
            disc.write_file(f"f{i}", files[f"f{i}"])
            if i >= 2:
                disc.delete_file(f"f{i - 2}")
                del files[f"f{i - 2}"]
        position = Document.read(doc.read_text(encoding="utf-8")).sampler
        assert position.iteration > 10 * (2 ** 3 - 1)
        assert disc.fsck().ok
        for name, blob in files.items():
            assert disc.read_file(name) == blob
        fresh = Disc.open(doc, backend)
        fresh.write_file("late", b"z" * 8)
        after = Document.read(doc.read_text(encoding="utf-8")).sampler
        # the reopened sampler started at the persisted position
        assert fresh.stats().hash_iterations == after.iteration - position.iteration > 0
        assert fresh.fsck().ok

    @pytest.mark.parametrize("mode", ["A", "B"])
    def test_document_without_the_line(self, mode, tmp_path):
        disc, backend, doc, files = _two_files(mode, tmp_path)
        _rewrite_stream(doc, None)
        assert "stream=" not in doc.read_text(encoding="utf-8")
        fresh = Disc.open(doc, backend)
        files["c"] = b"c" * 10
        fresh.write_file("c", files["c"])
        assert fresh.fsck().ok
        for name, blob in files.items():
            assert fresh.read_file(name) == blob
        text = doc.read_text(encoding="utf-8")
        assert "stream=" in text and Document.read(text).sampler.iteration > 0

    @pytest.mark.parametrize(
        "value", ["x:0,1,2,3", "-1:0,1,2,3", "9:0,1,2", "9:0,1,1,3"],
        ids=["iteration", "negative", "length", "repeated-index"],
    )
    def test_malformed_line_rejected(self, value):
        config = DiscConfig.create(n=4, p=16, m=8, mode="B", disc_id="bad")
        text = Document(config).text()  # its stream= line holds the seed
        assert "stream=0:0,1,2,3\n" in text
        with pytest.raises(ConfigInvalid, match="^bad superblock document: "):
            Document.read(text.replace("stream=0:0,1,2,3\n", f"stream={value}\n"))

    @pytest.mark.parametrize("mode", ["A", "B"])
    @pytest.mark.parametrize("stale", ["genesis", "hand-edited"])
    def test_stale_position_costs_hashes_only(self, mode, stale, tmp_path):
        disc, backend, doc = make_doc_disc(mode, tmp_path, n=5, p=16)
        rng = random.Random(29)
        files = {}
        for i in range(30):
            files[f"f{i}"] = rng.randbytes(rng.randrange(1, 25))
            disc.write_file(f"f{i}", files[f"f{i}"])
        for name in ("f3", "f17"):
            disc.delete_file(name)
            del files[name]
        genesis = disc.config.genesis
        if stale == "genesis":  # replays over every used address
            stream = SamplerState.fresh(genesis)
        else:
            stream = SamplerState(3, genesis[::-1])
        _rewrite_stream(doc, stream)
        fresh = Disc.open(doc, backend)
        for name in ("g1", "g2"):
            files[name] = name.encode() * 9
            fresh.write_file(name, files[name])
        assert fresh.fsck().ok
        for name, blob in files.items():
            assert fresh.read_file(name) == blob

    def test_mode_c_keeps_no_position(self, tmp_path):
        disc, backend, doc = make_doc_disc("C", tmp_path)
        for name in ("a", "b", "c"):
            disc.write_file(name, name.encode() * 12)
        disc.delete_file("b")
        fresh = Disc.open(doc, backend)
        fresh.write_file("d", b"d" * 12)
        text = doc.read_text(encoding="utf-8")
        assert "stream=" not in text
        assert "\n+@" not in text  # nor a journal record that moves the position
        doc.write_text(text + "stream=0:" + ",".join(map(str, range(7))) + "\n", encoding="utf-8")
        with pytest.raises(ConfigInvalid, match="mode C"):
            Disc.open(doc, backend)


def _reopen_and_put(disc, backend, doc, files):
    """Reopen `disc`'s document and put one 3-block file in mode C; check
    that allocation spent no hash reaching the chain tail and that the new
    run lies past it and replays."""
    blocks = disc.chain_blocks()
    tail = blocks[-1][0] if blocks else 0
    fresh = Disc.open(doc, backend)
    files["new"] = b"n" * (2 * disc.config.m + 1)
    fresh.write_file("new", files["new"])
    spent = fresh.stats().hash_iterations
    run = fresh.chain_blocks()[len(blocks):]
    assert len(run) == 3
    codes = [code for code, _, _ in run]
    assert tail < codes[0] < codes[1] < codes[2]
    # the sampler starts at the tail counter and ends at the last new one
    assert spent == codes[-1] - tail
    assert all(addr == sampler_replay(disc.config.genesis, code) for code, addr, _ in run)
    assert fresh.fsck().ok
    for name, blob in files.items():
        assert fresh.read_file(name) == blob


class TestModeCTail:
    """Mode C keeps no stream position: a fresh session's first mutation
    replays the stream to the chain tail once, in the tail lookup, and the
    allocation sampler continues from the lookup's cursor."""

    def test_fresh_session_put_allocates_from_the_tail(self, tmp_path):
        disc, backend, doc = make_doc_disc("C", tmp_path, n=5, p=16)
        rng = random.Random(31)
        files = {f"f{i:02d}": rng.randbytes(rng.randrange(1, 25)) for i in range(40)}
        for name, blob in files.items():
            disc.write_file(name, blob)
        _reopen_and_put(disc, backend, doc, files)

    def test_catalog_ending_in_empty_files(self, tmp_path):
        disc, backend, doc = make_doc_disc("C", tmp_path, n=5, p=16)
        files = {name: name.encode() * 9 for name in ("a", "b", "c")}
        files.update({"empty one": b"", "empty two": b""})
        for name, blob in files.items():
            disc.write_file(name, blob)
        _reopen_and_put(disc, backend, doc, files)

    def test_tail_at_the_genesis_block(self, tmp_path):
        disc, backend, doc = make_doc_disc("C", tmp_path, n=5, p=16)
        files = {"empty one": b"", "empty two": b""}
        for name, blob in files.items():
            disc.write_file(name, blob)
        _reopen_and_put(disc, backend, doc, files)

    def test_out_of_order_catalog(self, tmp_path):
        disc, backend, doc = make_doc_disc("C", tmp_path, n=6, m=4)
        files = {name: name.encode() * 9 for name in ("a", "c", "d")}
        for name in ("a", "b", "c", "d"):
            disc.write_file(name, name.encode() * 9)
        files["b"] = b"B" * 7
        disc.modify_file("b", files["b"])  # chain order is now a c d b
        # d's run does not end the chain, so the lookup walks from the genesis block
        _reorder_catalog(doc, "abcd")
        _reopen_and_put(disc, backend, doc, files)
