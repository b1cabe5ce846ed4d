"""Virtual filesystem over hashtag-addressed posts.

A disc is one linked chain of fixed-size blocks rooted at a genesis
block whose address (a hashtag permutation) is part of the user secret.
Each file occupies a consecutive run of blocks; every block's hidden
payload carries a pointer to the next block, so deletion is a splice:
copy the run's tail pointer into the predecessor and drop the run.

Three addressing modes trade local state for recomputation over one
address stream; the disc reads their choices from the config's
`Encoding` record (document.py), never from the mode letter:

  A  dual dictionaries: a used-address set is kept locally and codes
     are translated through rank/unrank; pointers are rank codes.
  B  no used-address set: uniqueness is checked live against the
     network; pointers are still rank codes (needs 2^p > n!).
  C  no dictionaries at all: pointers are positions in the hash
     stream.  The session's ladder keeps every completion state a walk
     of the stream (allocation, the tail lookup, traversal, read)
     passes, so a counter the session has walked past costs no hash and
     any other replays from the nearest state below it; the ladder is
     never persisted, so a fresh session replays from the seed.

Each block operation has one helper: `Disc._fetch` fetches and decodes
a post, `Disc._post` embeds and posts a payload, and `Disc._remove`
removes posts best effort (in mode A an orphan's code stays used).  One
walker, `Disc._walk`, follows every pointer: reads, splices, the tail
lookup, full traversals and fsck; `Disc._chain` is its one walk from the
genesis block.  It is the one place chain faults are detected (a mode C
counter that does not increase, a cycle, a block that cannot be resolved
or fetched, a NULL pointer inside a file's run), and each raises
ChainBroken naming its kind and pointer code; fsck reports the
walker's ChainBroken itself instead of walking the chain again, and
its own genesis and catalog faults are ChainBroken too.

Catalog order is chain order: writes and edits put their run at the
chain tail and their entry at the end of the catalog.  One lookup,
`Disc._before`, finds the block that points at a given code: the
predecessor of a run a splice removes, or the tail (the block that
points at NULL) for every put and edit.  The tail's first guess is the
block the session last linked, kept if a fresh fetch still shows NULL,
so a tail another writer moved is found; the next is the last block of
the previous non-empty entry, kept if its pointer matches; else `_chain`
is walked only as far as the first block that points there.  Mode C's
sampler then moves forward to the tail state in the ladder.  Each walk
builds its own cursor.  fsck and chain_blocks walk the whole chain.
"""

from __future__ import annotations

from contextlib import suppress
from math import factorial
from pathlib import Path
from typing import NamedTuple, Optional

from .carrier import (
    FLAG_SUPERBLOCK,
    BlockPayload,
    CarrierObject,
    CarrierPool,
    embed,
    encode_payload,
    header_size,
    read_payload,
)
from .document import DiscConfig, Document, FileEntry, write_superblock
from .errors import (
    AllocationStall,
    BadVersion,
    ChainBroken,
    DuplicateAddress,
    InvalidCounter,
    InvalidName,
    CodeOutOfRange,
    NameExists,
    NotFound,
    TruncatedPayload,
    UnsupportedCarrier,
)
from .steghash import (
    CheckpointLadder,
    Perm,
    ReplayCursor,
    allocate_address,
    rank,
    sampler_advance,  # unused here; perfbench/tracing.py rebinds it
    unrank,
)


def compute_chain_length(size: int, block_size: int) -> int:
    """Blocks needed to hold `size` bytes in `block_size`-byte chunks."""
    if block_size < 1:
        raise ValueError(f"block size must be >= 1, got {block_size}")
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    return -(-size // block_size)


def check_name(name: str) -> str:
    if not name or any(ord(c) < 0x20 or ord(c) == 0x7F for c in name):
        raise InvalidName(f"bad file name {name!r}")
    return name


class ChainReport(NamedTuple):
    violations: tuple[ChainBroken, ...] = ()  # as the walker raised them or fsck built them
    block_count: int = 0  # traversed blocks including the genesis block

    @property
    def ok(self) -> bool:
        return not self.violations


class TradeoffStats(NamedTuple):
    mode: str
    persistent_bytes: int  # full superblock+catalog document
    catalog_bytes: int  # the per-file lines alone
    dictionary_bytes: int  # mode A used-address line, 0 otherwise
    journal_bytes: int  # records appended after the document's snapshot
    # stream hashes of committed allocations (this session); a retried or
    # rolled-back attempt is not counted
    hash_iterations: int
    replay_iterations: int  # stream hashes spent resolving pointers on reads/traversals
    block_count: int  # live data blocks
    file_count: int
    checkpoints: int  # mode C session ladder length, 0 otherwise


def carrier_bytes(config: DiscConfig) -> int:
    """The largest payload a block posts: a full data block or the genesis
    echo.  Each post's cover holds its own payload, so this bounds the
    tallest cover, not every cover's size."""
    return header_size(config.p) + max(config.m, len(config.echo_bytes()))


class Disc:
    """An open disc, single-writer: its document and backend, and an
    optional document path.  The covers it posts follow from its config."""

    def __init__(self, document: Document, backend, *, doc_path=None):
        self.document = document
        self.config = config = document.config
        self.backend = backend
        self.pool = CarrierPool(config.disc_id)
        self.doc_path = Path(doc_path) if doc_path is not None else None
        # (pointer code, address) this session last linked at the tail: `_before(None)`'s first guess
        self._tail: Optional[tuple[int, Perm]] = None
        # mode C: the session's resume points in the stream, never persisted
        self._ladder = CheckpointLadder(config.n) if config.encoding.positions else None
        self.hash_iterations = 0  # stream hashes of committed allocations, as TradeoffStats says
        self._replayed, self._cursor = 0, None  # replay hashes of earlier cursors, the newest cursor
        self._largest = carrier_bytes(config)  # a read extracts no more

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def format(cls, config: DiscConfig, backend, *, doc_path=None) -> "Disc":
        disc = cls(Document(config), backend, doc_path=doc_path)
        disc._post(0, config.genesis, BlockPayload(0, config.echo_bytes(), FLAG_SUPERBLOCK))
        disc._persist()
        return disc

    @classmethod
    def open(cls, doc_path, backend) -> "Disc":
        return cls(Document.read(Path(doc_path).read_text(encoding="utf-8")), backend, doc_path=doc_path)

    # -- helpers -------------------------------------------------------------

    def _tags(self, perm: Perm):
        """The hashtags of an address that unrank, the replay cursor or the
        allocator produced; the backend checks the tags on every verb."""
        return tuple(map(self.config.alphabet.tags.__getitem__, perm))

    def _persist(self, name: Optional[str] = None) -> None:
        if self.doc_path is not None:
            self.document.save(self.doc_path, name, write_superblock)

    def _fetch(self, code: int, addr: Perm):
        """One fetch and one parse: the block (code, address, carrier,
        payload).  A missing or undecodable post is a bad block at `code`."""
        tags = self._tags(addr)
        try:
            carrier = CarrierObject.from_bytes(self.backend.fetch(tags))
            return code, addr, carrier, read_payload(carrier, self.config.p, self._largest)
        except NotFound as exc:
            raise ChainBroken(f"no object at {' '.join(tags)}", "bad-block", code) from exc
        except (TruncatedPayload, BadVersion, UnsupportedCarrier) as exc:
            raise ChainBroken(f"undecodable block at {' '.join(tags)}", "bad-block", code) from exc

    def _post(self, code: int, addr: Perm, payload: BlockPayload) -> None:
        """Embed `payload` in the pool's carrier for `code`, sized to the
        encoded payload, and post it at `addr`."""
        raw = encode_payload(payload, self.config.p)
        stego = embed(self.pool.next_carrier(code, len(raw)), raw)
        self.backend.post(stego.data, self._tags(addr))

    def _remove(self, run) -> None:
        """Remove the posts of a run of (code, address) pairs, best effort:
        a post already gone counts as removed, and one that fails to go
        stays behind as an orphan.  In mode A the code of a post that went
        is freed and the code of an orphan is kept used, so allocation never
        lands on it."""
        for code, addr in run:
            try:
                self.backend.remove(self._tags(addr))
            except NotFound:
                pass  # already gone
            except Exception:
                self.document.mark((code,))
                continue
            self.document.mark((code,), used=False)

    def _replay(self) -> Optional[ReplayCursor]:
        """Mode C: a replay cursor from the config's seed over the session's ladder; else None."""
        if self._ladder is None:
            return None
        self._replayed, self._cursor = self.replay_iterations, ReplayCursor(self.config.seed, self._ladder)
        return self._cursor

    @property
    def replay_iterations(self) -> int:
        """Stream hashes spent resolving pointers, by every cursor so far."""
        return self._replayed + (self._cursor.iterations if self._cursor is not None else 0)

    def _blocks_of(self, entry: FileEntry) -> int:
        return compute_chain_length(entry.length, self.config.m)

    def _walk(self, code: int, count: Optional[int] = None):
        """Follow pointers from `code`, yielding (code, address, carrier,
        payload) per block: `count` blocks, or up to the NULL pointer when
        `count` is None.  Every chain fault raises ChainBroken with its kind
        and the offending code."""
        start, prev, seen, cursor = code, 0, set(), self._replay()
        positions, p, n, fetch = self.config.encoding.positions, self.config.p, self.config.n, self._fetch
        while count is None or len(seen) < count:
            if code == 0:
                if count is None:
                    return
                raise ChainBroken(
                    f"chain ends after {len(seen)} of the {count} blocks from {start}",
                    "file-truncated", start,
                )
            # order first: a stream position that does not increase is an
            # order fault whether or not it also closes a cycle
            if positions and code <= prev:
                raise ChainBroken(f"counter {code} does not increase past {prev}", "order", code)
            if code in seen:
                raise ChainBroken(f"pointer {code} repeats along the chain", "cycle", code)
            if code >> p:  # only a catalog line can hold so wide a code
                raise ChainBroken(f"pointer {code} is wider than p bits", "bad-block", code)
            seen.add(code)
            try:  # mode C replays the stream through the walk's cursor
                addr = cursor.resolve(code) if cursor is not None else unrank(code, n)
            except (InvalidCounter, CodeOutOfRange) as exc:
                raise ChainBroken(f"bad pointer {code}: {exc}", "bad-block", code) from exc
            block = fetch(code, addr)
            yield block
            prev, code = code, block[3].next_counter

    def _chain(self):
        """The whole chain: the genesis block (code 0), then `_walk` from its
        pointer to the NULL pointer."""
        genesis = self._fetch(0, self.config.genesis)
        yield genesis
        yield from self._walk(genesis[3].next_counter)

    def _locate(self, blocks, position: dict[int, int], entry: FileEntry):
        """`entry`'s run in a traversal's `blocks`; `position` maps each
        traversed code to its index."""
        start = position.get(entry.start_counter)
        if start is None:
            raise ChainBroken(
                f"file {entry.name!r} starts at {entry.start_counter}, not on the chain",
                "file-missing", entry.start_counter,
            )
        count = self._blocks_of(entry)
        run = blocks[start: start + count]
        if len(run) < count:
            raise ChainBroken(
                f"chain ends inside file {entry.name!r}", "file-truncated", entry.start_counter
            )
        return run

    def _before(self, entry: Optional[FileEntry]):
        """The (code, address, carrier, payload) block whose pointer is
        `entry`'s start code, or NULL when `entry` is None (the tail).

        Guesses: for the tail, the block this session last linked if a fresh
        fetch shows NULL (a tail, not proof it is on the chain: an orphan
        passes); the last block of the last non-empty entry before `entry`;
        the chain from the genesis block up to the first block pointing there."""
        target = entry.start_counter if entry is not None else 0
        if entry is None and self._tail is not None:
            with suppress(ChainBroken):  # a missing post falls through
                if (block := self._fetch(*self._tail))[3].next_counter == 0:
                    return block
        earlier = reversed(self.document.entries)  # the tail's guess starts at the last entry
        if entry is not None:  # skip the names up to `entry`'s, comparing keys
            any(map(entry.name.__eq__, earlier))
        last = next((other for other in map(self.document.entry, earlier) if other.length), None)
        if last is not None:
            with suppress(ChainBroken):
                *_, block = self._walk(last.start_counter, self._blocks_of(last))
                if block[3].next_counter == target:
                    return block
        for block in self._chain():
            if block[3].next_counter == target:
                return block
        raise ChainBroken(f"no block points at {target}", "file-missing", target)

    def _rewrite_next(self, block, new_next: int) -> None:
        """Replace a fetched block's pointer, keeping its data and flags."""
        _, addr, carrier, payload = block
        fresh = BlockPayload(next_counter=new_next, data=payload.data, flags=payload.flags)
        stego = embed(carrier, encode_payload(fresh, self.config.p))
        self.backend.replace(self._tags(addr), stego.data)

    def _append_chain(self, data: bytes) -> int:
        """Allocate, post and link a run of blocks at the chain tail.

        Returns the first block's pointer code.  On failure nothing is
        committed: posted blocks are removed and the sampler state stays
        where it was, so a rejected write leaves the disc clean.  Mode A
        never probes the network, so a post its used set does not list (a
        run linked just before a crash, or an orphan of a failed rollback)
        raises DuplicateAddress: its code is marked used and the run is
        allocated again from the same sampler state.
        """
        cfg, encoding = self.config, self.config.encoding
        count = compute_chain_length(len(data), cfg.m)
        used = self.document.used if encoding.used_set else None
        if used is not None:  # fail fast; the reserved addresses are never free
            free = factorial(cfg.n) - len(cfg.reserved) - len(used)
            if count > free:
                raise AllocationStall(f"a run of {count} blocks needs more than the {free} free codes")
        tail = self._before(None)
        if self._ladder is not None:  # forward only; no hash, as a walk or an allocation recorded the tail
            self.document.sampler = self._ladder.resume(self.document.sampler, tail[0])
        base = self.document.sampler.iteration
        while True:
            pending: set[Perm] = set()  # the run's addresses so far
            run: list[tuple[int, Perm]] = []  # (pointer code, address)

            def occupied(perm: Perm) -> bool:
                if perm in pending or perm in cfg.reserved:
                    return True
                if used is not None:
                    return rank(perm) in used
                return self.backend.exists(self._tags(perm))

            state = self.document.sampler
            for _ in range(count):
                # the ladder keeps what a rolled-back write walked: the stream
                # is a pure function of the seed
                addr, counter, state = allocate_address(state, occupied, ladder=self._ladder, limit=cfg.limit)
                run.append((counter if encoding.positions else rank(addr), addr))
                pending.add(addr)
            posted = 0
            try:
                for idx, (code, addr) in enumerate(run):
                    chunk = data[idx * cfg.m: (idx + 1) * cfg.m]
                    nxt = run[idx + 1][0] if idx + 1 < count else 0
                    self._post(code, addr, BlockPayload(nxt, chunk))
                    posted += 1
                self._rewrite_next(tail, run[0][0])
                break
            except BaseException as exc:
                self._remove(run[:posted])
                if used is None or not isinstance(exc, DuplicateAddress):
                    raise
                self.document.mark((run[posted][0],))
        self.document.sampler = state
        self.hash_iterations += state.iteration - base
        self.document.mark(code for code, _ in run)
        self._tail = run[-1]
        return run[0][0]

    def _splice_run(self, entry: FileEntry) -> None:
        """Unlink and remove one file's blocks (§ the delete procedure):
        the predecessor takes over the pointer held by the run's last block.

        The predecessor rewrite is the point where the run leaves the
        chain.  Removal after it is best effort (`_remove`): raising there
        would leave a catalog entry naming a spliced-out run."""
        before = self._before(entry)
        run = list(self._walk(entry.start_counter, self._blocks_of(entry)))
        tail_ptr = run[-1][3].next_counter
        self._rewrite_next(before, tail_ptr)
        self._remove(block[:2] for block in run)
        if tail_ptr == 0:
            self._tail = before[:2]

    # -- file operations -----------------------------------------------------

    def write_file(self, name: str, data: bytes) -> FileEntry:
        check_name(name)
        data = bytes(data)
        if name in self.document.entries:
            raise NameExists(f"file {name!r} already exists")
        entry = FileEntry(name, self._append_chain(data) if data else 0, len(data))
        self.document.entries[name] = entry.line
        self._persist(name)
        return entry

    def read_file(self, name: str) -> bytes:
        entry = self.document.entry(name)
        walk = self._walk(entry.start_counter, self._blocks_of(entry))
        data = b"".join(payload.data for _, _, _, payload in walk)
        if len(data) != entry.length:
            raise ChainBroken(
                f"file {name!r} yielded {len(data)} bytes, expected {entry.length}",
                "file-bytes", entry.start_counter,
            )
        return data

    def delete_file(self, name: str) -> None:
        entry = self.document.entry(name)
        if entry.length > 0:
            self._splice_run(entry)
        del self.document.entries[name]
        self._persist(name)

    def modify_file(self, name: str, data: bytes) -> FileEntry:
        """Replace a file's contents: the new run is posted before the old
        one is spliced out, so the catalog never points at a half-written
        chain.  The new run sits at the chain tail, so the entry moves to
        the end of the catalog."""
        data = bytes(data)
        entry = self.document.entry(name)
        first = self._append_chain(data) if data else 0
        if entry.length > 0:
            self._splice_run(entry)
        fresh = FileEntry(name, first, len(data))
        del self.document.entries[name]
        self.document.entries[name] = fresh.line
        self._persist(name)
        return fresh

    def list_files(self) -> list[FileEntry]:
        doc = self.document
        return sorted(map(doc.entry, doc.entries))  # names are unique: name order

    def chain_blocks(self) -> list[tuple[int, Perm, BlockPayload]]:
        """Read-only traversal from the genesis block: one
        (pointer code, address, payload) triple per data block, in chain order."""
        return [(code, addr, payload) for code, addr, _, payload in self._chain()][1:]

    # -- inspection ------------------------------------------------------------

    def fsck(self) -> ChainReport:
        """Read-only chain check: traversal stops at the first fault the
        walker raises, which is reported as raised; catalog coverage is
        only judged on a fully traversed chain."""
        faults: list[ChainBroken] = []
        chain = self._chain()
        try:
            genesis_payload = next(chain)[3]
        except ChainBroken as exc:
            return ChainReport((ChainBroken(str(exc), "genesis-missing", 0),))
        if not genesis_payload.is_superblock:
            faults.append(ChainBroken("genesis block lacks the superblock flag", "genesis-flags", 0))
        expect = self.config.echo_bytes()
        if genesis_payload.data != expect:
            faults.append(ChainBroken(f"genesis echo {genesis_payload.data!r} != {expect!r}", "genesis-echo", 0))
        blocks: list[tuple[int, Perm, BlockPayload]] = []
        try:
            for code, addr, _, payload in chain:
                blocks.append((code, addr, payload))
        except ChainBroken as fault:
            return ChainReport((*faults, fault), 1 + len(blocks))
        position = {code: idx for idx, (code, _, _) in enumerate(blocks)}
        total_expected = 0
        for entry in map(self.document.entry, self.document.entries):
            total_expected += self._blocks_of(entry)
            if not entry.length:
                continue
            try:
                run = self._locate(blocks, position, entry)
            except ChainBroken as fault:
                faults.append(fault)
                continue
            got = sum(len(payload.data) for _, _, payload in run)
            if got != entry.length:
                faults.append(ChainBroken(
                    f"file {entry.name!r} spans {got} bytes, catalog says {entry.length}",
                    "file-bytes", entry.start_counter,
                ))
        if len(blocks) != total_expected:
            faults.append(ChainBroken(
                f"chain holds {len(blocks)} blocks, catalog accounts for {total_expected}", "block-count", 0
            ))
        return ChainReport(tuple(faults), 1 + len(blocks))

    def stats(self) -> TradeoffStats:
        doc = self.document
        return TradeoffStats(
            self.config.mode,
            *doc.sizes(),  # persistent, catalog, dictionary and journal bytes
            hash_iterations=self.hash_iterations,
            replay_iterations=self.replay_iterations,
            block_count=sum(self._blocks_of(e) for e in map(doc.entry, doc.entries)),
            file_count=len(doc.entries),
            checkpoints=len(self._ladder) if self._ladder is not None else 0,
        )
