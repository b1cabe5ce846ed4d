"""Filesystem core: chains, catalog, splice, fsck, and the three modes."""

import random
from math import factorial

import pytest

from stegdisc.carrier import CarrierObject, CarrierPool, embed, encode_payload, read_payload
from stegdisc.disc import (
    Disc,
    DiscConfig,
    FileEntry,
    compute_chain_length,
    parse_superblock,
    serialize_superblock,
)
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
from stegdisc.osn import MemoryBackend
from stegdisc.steghash import (
    CHECKPOINT_EVERY,
    HashtagAlphabet,
    perm_to_hashtags,
    rank,
    sampler_replay,
)

MODES = ("A", "B", "C")


def small_pool(p=16, m=64):
    return CarrierPool(synth="opaque", opaque_size=512)


def make_disc(mode, n=4, p=16, m=8, backend=None, **kwargs):
    backend = backend if backend is not None else MemoryBackend()
    config = DiscConfig.create(n=n, p=p, m=m, mode=mode, disc_id=f"t-{mode}", **kwargs)
    return Disc.format(config, backend, small_pool()), backend


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

    def test_mode_a_needs_small_n(self):
        with pytest.raises(ConfigInvalid):
            DiscConfig.create(n=9, p=64, m=4, mode="A")
        DiscConfig.create(n=9, p=64, m=4, mode="C")  # fine without dictionaries

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

    def test_block_must_fit_pool(self):
        config = DiscConfig.create(n=3, p=16, m=10 ** 6, mode="C")
        with pytest.raises(ConfigInvalid):
            Disc.format(config, MemoryBackend(), small_pool())


class TestFormat:
    @pytest.mark.parametrize("mode", MODES)
    def test_fresh_disc_is_empty(self, mode):
        disc, _ = make_disc(mode)
        assert disc.list_files() == []
        assert disc.chain_blocks() == []

    def test_genesis_occupied(self):
        disc, backend = make_disc("C")
        with pytest.raises(DuplicateAddress):
            Disc.format(disc.config, backend, small_pool())

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
        disc._entries["a"] = FileEntry("a", disc._entries["a"].start_counter, 6)
        report = disc.fsck()
        kinds = {v.kind for v in report.violations}
        assert "file-bytes" in kinds or "block-count" in kinds


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
        text = serialize_superblock(config, entries, used)
        config2, entries2, used2 = parse_superblock(text)
        assert (config2.n, config2.p, config2.m, config2.mode) == (4, 16, 8, "A")
        assert config2.genesis == config.genesis
        assert config2.alphabet.tags == config.alphabet.tags
        assert entries2 == entries
        assert used2 == used

    def test_superblock_no_used_line_outside_mode_a(self):
        config = DiscConfig.create(n=4, p=16, m=8, mode="C", disc_id="rt")
        text = serialize_superblock(config, [])
        assert "used=" not in text
        _, _, used = parse_superblock(text)
        assert used is None

    @pytest.mark.parametrize("mode", MODES)
    def test_reopen_reads_and_extends(self, mode, tmp_path):
        doc = tmp_path / "sb.txt"
        backend = MemoryBackend()
        config = DiscConfig.create(n=4, p=16, m=8, mode=mode, disc_id="ro")
        disc = Disc.format(config, backend, small_pool(), doc_path=doc)
        disc.write_file("first", b"written before reopen")
        disc.write_file("second", b"x" * 50)
        disc.delete_file("second")

        fresh = Disc.open(doc, backend, small_pool())
        assert fresh.read_file("first") == b"written before reopen"
        fresh.write_file("third", b"written after reopen")
        assert fresh.read_file("third") == b"written after reopen"
        assert fresh.fsck().ok

        again = Disc.open(doc, backend, small_pool())
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
        for name, blob in files.items():
            start = codes.index(entries[name].start_counter)
            run = codes[start: start + compute_chain_length(len(blob), 8)]
            before = disc.stats().replay_iterations
            assert disc.read_file(name) == blob
            assert disc.stats().replay_iterations - before <= CHECKPOINT_EVERY + run[-1] - run[0]
        # a fresh session has no ladder: it replays from the seed to the run's end
        for name in list(files)[::37]:
            cold = Disc(disc.config, backend, disc.pool, entries=list(entries.values()))
            assert cold.read_file(name) == files[name]
            start = codes.index(entries[name].start_counter)
            last = codes[start + compute_chain_length(len(files[name]), 8) - 1]
            assert cold.stats().replay_iterations == last
            assert cold.stats().checkpoints > 0

    def test_rolled_back_write_leaves_sound_checkpoints(self):
        disc, backend = make_disc("C", n=7, p=24, m=8)
        backend.config.failure_rate = 0.02
        with pytest.raises(BackendUnavailable):
            disc.write_file("big", bytes(range(256)) * 2)  # 64 blocks
        stats = disc.stats()
        assert stats.hash_iterations == 0  # no allocation committed ...
        assert stats.checkpoints >= 2  # ... yet the walk left checkpoints
        backend.config.failure_rate = 0.0
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
        disc = Disc.format(config, MemoryBackend(), small_pool(), doc_path=doc)
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
    return Disc.format(config, backend, small_pool(), doc_path=doc), backend, doc


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
        fresh = Disc.open(doc, backend, small_pool())
        before = backend.counts["fetch"]
        fresh.write_file("new", b"appended after reopen")
        assert backend.counts["fetch"] - before <= blocks(last) + 2
        files["new"] = b"appended after reopen"
        assert fresh.fsck().ok
        for name, blob in files.items():
            assert fresh.read_file(name) == blob

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
                disc = Disc.open(doc, backend, small_pool())
            _, entries, _ = parse_superblock(doc.read_text(encoding="utf-8"))
            assert [e.start_counter for e in entries if e.length] == run_starts(disc)
        assert disc.fsck().ok
        for name, blob in reference.items():
            assert disc.read_file(name) == blob

    @pytest.mark.parametrize("mode", MODES)
    def test_out_of_order_catalog_falls_back_to_a_traversal(self, mode, tmp_path):
        disc, backend, doc = make_doc_disc(mode, tmp_path, n=6, m=4)
        for name in ("a", "b", "c", "d"):
            disc.write_file(name, name.encode() * 9)
        disc.modify_file("b", b"B" * 7)  # chain order is now a c d b
        config, entries, used = parse_superblock(doc.read_text(encoding="utf-8"))
        by_name = {e.name: e for e in entries}
        # the catalog order an in-place edit used to leave behind
        doc.write_text(
            serialize_superblock(config, [by_name[n] for n in "abcd"], used), encoding="utf-8"
        )
        fresh = Disc.open(doc, backend, small_pool())
        fresh.write_file("e", b"after the real tail")
        assert fresh.read_file("e") == b"after the real tail"
        fresh.delete_file("c")
        fresh.delete_file("b")
        assert fresh.fsck().ok
        assert fresh.read_file("a") == b"a" * 9
        assert fresh.read_file("d") == b"d" * 9
        again = Disc.open(doc, backend, small_pool())
        again.write_file("f", b"tail after fallback deletes")
        assert again.fsck().ok
        assert again.read_file("f") == b"tail after fallback deletes"

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
        fresh = Disc.open(doc, backend, small_pool())
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
        fresh = Disc.open(doc, backend.inner, small_pool())
        free = factorial(4) - len(backend.inner.live_addresses())
        fresh.write_file("fill", bytes(range(4 * free)))
        assert fresh.fsck().ok
        assert fresh.read_file("fill") == bytes(range(4 * free))


class TestCatalog:
    def test_duplicate_name_rejected(self, tmp_path):
        config = DiscConfig.create(n=4, p=16, m=8, mode="C", disc_id="dup")
        doc = tmp_path / "sb.txt"
        doc.write_text(
            serialize_superblock(config, [FileEntry("x", 1, 3), FileEntry("x", 9, 3)]),
            encoding="utf-8",
        )
        with pytest.raises(ConfigInvalid):
            Disc.open(doc, MemoryBackend())

    def test_lines_are_quoted_once(self, monkeypatch, tmp_path):
        import stegdisc.disc as disc_mod

        disc, backend, doc = make_doc_disc("A", tmp_path, m=4)
        for i in range(20):
            disc.write_file(f"file {i}", b"x")
        calls = []
        real_quote = disc_mod.quote
        monkeypatch.setattr(disc_mod, "quote", lambda *a, **kw: calls.append(a) or real_quote(*a, **kw))
        disc.stats()
        disc.write_file("one more", b"y")
        disc.stats()
        # an opened catalog keeps the lines it was read from
        fresh = Disc.open(doc, backend, small_pool())
        fresh.write_file("after reopen", b"z")
        fresh.stats()
        assert calls == [("one more",), ("after reopen",)]
        config, entries, used = parse_superblock(doc.read_text(encoding="utf-8"))
        formatted = [FileEntry(e.name, e.start_counter, e.length) for e in entries]
        assert doc.read_text(encoding="utf-8") == serialize_superblock(config, formatted, used)
