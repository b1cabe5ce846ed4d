"""Virtual filesystem over hashtag-addressed posts.

A disc is one linked chain of fixed-size blocks rooted at a genesis
block whose address (a hashtag permutation) is part of the user secret.
Each file occupies a consecutive run of blocks; every block's hidden
payload carries a pointer to the next block, so deletion is a splice:
copy the run's tail pointer into the predecessor and drop the run.

Three addressing modes trade local state for recomputation:

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

Local persistence is a small superblock+catalog text document; the
chain itself lives only in the posted objects.  Opening a disc checks
all of it; the catalog is held as its lines, parsed each time a command
uses one and written back as read, and mode A's used= line is parsed
only when the document is written or measured.
In modes A and B the document also records the allocation sampler's
position (a `stream=` line), and a fresh session resumes allocation from
it instead of passing every used address again from counter 0.  Their
pointers are rank codes and freedom is checked against the used set or
the network, so the position only decides which free address comes
first: a stale one costs hashes, never correctness.  Mode C writes no
such line.

Each block operation has one helper: `Disc._fetch` fetches and decodes
a post, `Disc._post` embeds and posts a payload, and `Disc._remove`
removes posts best effort (in mode A an orphan's code stays used).  One
walker, `Disc._walk`, follows every pointer: reads, splices, the tail
lookup, full traversals and fsck; `Disc._chain` is its one walk from the
genesis block.  It is the one place chain faults are detected (a mode C
counter that does not increase, a cycle, a block that cannot be resolved
or fetched, a NULL pointer inside a file's run), and each raises
ChainBroken naming its kind and pointer code; fsck reports the fault
the walker raised instead of walking the chain again.

Catalog order is chain order: writes and edits put their run at the
chain tail and their entry at the end of the catalog.  One lookup,
`Disc._before`, finds the block that points at a given code: the
predecessor of a run a splice removes, or the tail (the block that
points at NULL) for the first mutation of a session.  It walks the run
of the previous non-empty entry (or takes the genesis block) and accepts
its last block only if the pointer matches; on a mismatch or a broken
run it walks `_chain`, but only as far as the first block that points
there; in mode C the allocation sampler then continues from the tail
lookup's cursor.  fsck and chain_blocks always walk the whole chain.
"""

from __future__ import annotations

import os
import tempfile
import threading
import uuid
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat
from math import factorial
from operator import not_
from pathlib import Path
from typing import NamedTuple, Optional
from urllib.parse import quote, unquote

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
from .errors import (
    BadVersion,
    ChainBroken,
    ConfigInvalid,
    DuplicateAddress,
    FileNotFound,
    InvalidCounter,
    InvalidName,
    CodeOutOfRange,
    NameExists,
    NotAPermutation,
    NotFound,
    TruncatedPayload,
    UnsupportedCarrier,
)
from .steghash import (
    CheckpointLadder,
    HashtagAlphabet,
    Perm,
    ReplayCursor,
    SamplerState,
    allocate_address,
    perm_to_hashtags,
    rank,
    sampler_advance,  # unused here; perfbench/tracing.py rebinds it
    unrank,
    validate_permutation,
)

MODES = ("A", "B", "C")

# characters that would break the one-line superblock header fields
_FIELD_FORBIDDEN = set(",;=\t\n\r ")


def compute_chain_length(size: int, block_size: int) -> int:
    """Blocks needed to hold `size` bytes in `block_size`-byte chunks."""
    if block_size < 1:
        raise ValueError(f"block size must be >= 1, got {block_size}")
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    return -(-size // block_size)


def _check_field(value: str, what: str) -> str:
    if not value or any(c in _FIELD_FORBIDDEN or ord(c) < 0x20 for c in value):
        raise ConfigInvalid(f"{what} {value!r} is empty or has reserved characters")
    return value


@dataclass
class DiscConfig:
    n: int
    p: int
    m: int
    mode: str
    alphabet: HashtagAlphabet
    genesis: Perm
    disc_id: str

    @classmethod
    def create(
        cls,
        n: int,
        p: int,
        m: int,
        mode: str,
        alphabet: Optional[HashtagAlphabet] = None,
        genesis=None,
        disc_id: Optional[str] = None,
    ) -> "DiscConfig":
        return cls(
            n=n,
            p=p,
            m=m,
            mode=mode,
            alphabet=alphabet or HashtagAlphabet.default(n),
            genesis=tuple(genesis) if genesis is not None else tuple(range(n)),
            disc_id=disc_id or uuid.uuid4().hex[:12],
        )

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigInvalid(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n < 1 or self.p < 1 or self.m < 1:
            raise ConfigInvalid(f"n, p, m must be >= 1 (n={self.n} p={self.p} m={self.m})")
        if len(self.alphabet) != self.n:
            raise ConfigInvalid(f"alphabet has {len(self.alphabet)} tags, expected n={self.n}")
        try:
            genesis = validate_permutation(self.genesis)
        except Exception as exc:
            raise ConfigInvalid(f"bad genesis: {exc}") from exc
        if len(genesis) != self.n:
            raise ConfigInvalid(f"genesis has {len(genesis)} elements, expected n={self.n}")
        self.genesis = genesis
        if self.mode == "A" and self.n > 8:
            raise ConfigInvalid(f"mode A materializes dictionaries; n={self.n} > 8")
        if self.mode in ("A", "B") and 2 ** self.p <= factorial(self.n):
            raise ConfigInvalid(
                f"rank codes need 2^p > n! (p={self.p}, n={self.n})"
            )
        _check_field(self.disc_id, "disc_id")
        for tag in self.alphabet.tags:
            _check_field(tag, "hashtag")

    def echo_bytes(self) -> bytes:
        """Config summary embedded in the genesis block for cross-checking."""
        return (
            f"n={self.n};p={self.p};m={self.m};mode={self.mode};id={self.disc_id}"
        ).encode("utf-8")

    def carrier_bytes(self) -> int:
        """Payload bytes every carrier must hold: a data block or the genesis echo."""
        return header_size(self.p) + max(self.m, len(self.echo_bytes()))


class FileEntry(NamedTuple):
    """A parsed view of one catalog line; the catalog itself is its lines."""

    name: str
    start_counter: int  # pointer code of the first block; 0 for empty files
    length: int  # bytes

    @property
    def line(self) -> str:
        """The entry's catalog line in the superblock document."""
        return f"{quote(self.name, safe='')}\t{self.start_counter}\t{self.length}"

    @classmethod
    def parse(cls, line: str) -> "FileEntry":
        """Inverse of `line`, for a line the document reader has checked;
        only a name with an escape pays for `unquote`."""
        name, start, length = line.split("\t")
        return cls(unquote(name) if "%" in name else name, int(start), int(length))


def check_name(name: str) -> str:
    if not name or any(ord(c) < 0x20 or ord(c) == 0x7F for c in name):
        raise InvalidName(f"bad file name {name!r}")
    return name


@dataclass
class Violation:
    kind: str
    counter: int  # offending pointer code, 0 when the genesis or catalog is at fault
    detail: str


@dataclass
class ChainReport:
    violations: list[Violation] = field(default_factory=list)
    block_count: int = 0  # traversed blocks including the genesis block

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class TradeoffStats:
    mode: str
    persistent_bytes: int  # full superblock+catalog document
    catalog_bytes: int  # the per-file lines alone
    dictionary_bytes: int  # mode A used-address line, 0 otherwise
    hash_iterations: int  # stream hashes spent allocating (this session)
    replay_iterations: int  # stream hashes spent resolving pointers on reads/traversals
    block_count: int  # live data blocks
    file_count: int
    checkpoints: int  # mode C session ladder length, 0 otherwise


# -- superblock document ---------------------------------------------------

_HEADER_KEYS = ("disc_id", "mode", "n", "p", "m", "genesis", "alphabet")


def _header(config: DiscConfig, used_codes, stream: Optional[SamplerState]) -> list[str]:
    """The document's header lines, with a stream= line in modes A and B
    and a used= line in mode A.

    stream= is `<iteration>:<permutation>`, the allocation sampler's state."""
    header = [
        f"disc_id={config.disc_id}",
        f"mode={config.mode}",
        f"n={config.n}",
        f"p={config.p}",
        f"m={config.m}",
        "genesis=" + ",".join(str(v) for v in config.genesis),
        "alphabet=" + ",".join(config.alphabet.tags),
    ]
    if stream is not None:
        header.append(f"stream={stream.iteration}:" + ",".join(map(str, stream.perm)))
    if used_codes is not None:
        header.append("used=" + ",".join(map(str, sorted(used_codes))))
    return header


def _text(header: list[str], lines) -> str:
    """The document: the header lines, then the catalog lines, one per file."""
    return "\n".join([*header, *lines]) + "\n"


def serialize_superblock(
    config: DiscConfig,
    entries,
    used_codes=None,
    stream: Optional[SamplerState] = None,
) -> str:
    return _text(_header(config, used_codes, stream), (entry.line for entry in entries))


def _parse_stream(value: str, config: DiscConfig) -> SamplerState:
    """The allocation sampler state a stream= value names."""
    if config.mode == "C":
        raise ConfigInvalid("mode C keeps no stream position")
    iteration, sep, perm = value.partition(":")
    iteration = int(iteration)
    if not sep or iteration < 0:
        raise ConfigInvalid(f"bad stream position {value!r}")
    try:
        perm = validate_permutation(perm.split(","))
    except NotAPermutation as exc:
        raise ConfigInvalid(f"bad stream position {value!r}: {exc}") from exc
    if len(perm) != config.n:
        raise ConfigInvalid(f"stream position {value!r} is not a permutation of n={config.n}")
    return SamplerState(iteration, perm)


def _catalog(pairs) -> dict[str, str]:
    """The catalog in chain order, name -> line; a name may appear once."""
    pairs = list(pairs)
    catalog = dict(pairs)
    if len(catalog) != len(pairs):
        raise ConfigInvalid("the catalog names a file twice")
    return catalog


def _read_document(text: str):
    """The one reader of the document: parse_superblock's result, but with
    the catalog as name -> line and the used= value checked, not read.
    Lines with tabs are the catalog, wherever they stand; it is checked as
    three columns, in C-level passes with no Python work per line."""
    lines = text.splitlines()
    tabs = list(map(str.count, lines, repeat("\t")))
    header: dict[str, str] = {}
    for line in filter(None, compress(lines, map(not_, tabs))):
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigInvalid(f"bad header line {line!r}")
        if key in header:
            raise ConfigInvalid(f"bad superblock document: header key {key!r} repeats")
        header[key] = value
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise ConfigInvalid(f"superblock document is missing {missing}")
    used = header.get("used")
    catalog = list(compress(lines, tabs))
    fields = "\t".join(catalog).split("\t")
    numbers = fields[1::3] + fields[2::3]  # the start and length columns
    digits = "".join(numbers) + (used or "").replace(",", "") + "0"  # and the used= codes
    malformed = not set(tabs) <= {0, 2} or "" in numbers or used and ",," in f",{used},"
    if malformed or not (digits.isascii() and digits.isdigit()):
        raise ConfigInvalid("bad superblock document: a catalog or used= line is malformed")
    names = fields[0::3]
    if "%" in "".join(names):  # only an escape makes a name differ from its quoted form
        names = [unquote(name) if "%" in name else name for name in names]
    try:
        config = DiscConfig(
            n=int(header["n"]),
            p=int(header["p"]),
            m=int(header["m"]),
            mode=header["mode"],
            alphabet=HashtagAlphabet(header["alphabet"].split(",")),
            genesis=tuple(map(int, header["genesis"].split(","))),
            disc_id=header["disc_id"],
        )
        stream = _parse_stream(header["stream"], config) if "stream" in header else None
    except (ValueError, ConfigInvalid) as exc:
        raise ConfigInvalid(f"bad superblock document: {exc}") from exc
    return config, _catalog(zip(names, catalog)), used, stream


def _used_codes(value: str) -> set[int]:
    """The codes a used= value lists."""
    return set(map(int, filter(None, value.split(","))))


def parse_superblock(text: str):
    """Inverse of serialize_superblock: (config, entries, used_codes, stream)
    with every line parsed; used_codes is None unless a used= line is there
    (mode A), and stream is None unless a stream= line is (modes A and B)."""
    config, catalog, used, stream = _read_document(text)
    used = _used_codes(used) if used is not None else None
    return config, list(map(FileEntry.parse, catalog.values())), used, stream


def write_superblock(path, text: str) -> None:
    """Atomic write of `text`: temp file in the same directory, then rename over."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".stegdisc-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def default_pool(config: DiscConfig) -> CarrierPool:
    """Synthetic bitmap pool just large enough for this disc's payloads."""
    need = config.carrier_bytes()
    side = 8
    while side * side * 3 < need * 8:
        side *= 2
    return CarrierPool(synth="bitmap", width=side, height=side, disc_id=config.disc_id)


class Disc:
    """An open disc: config + backend + carrier pool + local catalog.

    Instances are single-writer; all operations serialize on one lock.
    """

    def __init__(
        self,
        config: DiscConfig,
        backend,
        pool: Optional[CarrierPool] = None,
        doc_path=None,
        entries: Optional[list[FileEntry]] = None,
        stream: Optional[SamplerState] = None,
    ):
        self.config = config
        self.backend = backend
        self.pool = pool if pool is not None else default_pool(config)
        self.doc_path = Path(doc_path) if doc_path is not None else None
        self._entries: dict[str, str] = _catalog((e.name, e.line) for e in entries or ())
        self._used_line = ""  # mode A: the document's used= value
        # modes A and B resume allocation where the document's stream= line
        # left it; mode C, and a document without the line, start at the seed
        self._sampler = stream if stream is not None else SamplerState.fresh(config.genesis)
        # (pointer code, address) of the chain tail, looked up by the first
        # mutation; mode C's sampler takes the lookup cursor's tail state
        self._tail: Optional[tuple[int, Perm]] = None
        # mode C: session-local resume points in the stream, never persisted
        self._ladder = CheckpointLadder(config.n) if config.mode == "C" else None
        self._hash_iterations = 0
        self._replay_iterations = 0
        self._lock = threading.RLock()
        need, offer = config.carrier_bytes(), self.pool.min_capacity()
        if need > offer:
            raise ConfigInvalid(f"blocks need {need} carrier bytes, the pool offers {offer}")

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def format(cls, config: DiscConfig, backend, pool=None, doc_path=None) -> "Disc":
        disc = cls(config, backend, pool, doc_path)
        disc._post(0, config.genesis, BlockPayload(0, config.echo_bytes(), FLAG_SUPERBLOCK))
        disc._tail = (0, config.genesis)
        disc._persist()
        return disc

    @classmethod
    def open(cls, doc_path, backend, pool=None) -> "Disc":
        config, catalog, used, stream = _read_document(Path(doc_path).read_text(encoding="utf-8"))
        disc = cls(config, backend, pool, doc_path, stream=stream)
        disc._entries, disc._used_line = catalog, used or ""
        return disc

    # -- helpers -------------------------------------------------------------

    def _tags(self, perm: Perm):
        return perm_to_hashtags(perm, self.config.alphabet)

    @cached_property
    def _used(self) -> set[int]:
        """Mode A: rank codes of live blocks, read from the used= value on first use."""
        return _used_codes(self._used_line)

    def _document_header(self) -> list[str]:
        """The header lines: mode A's used set, modes A and B's sampler position."""
        mode = self.config.mode
        used = self._used if mode == "A" else None
        return _header(self.config, used, self._sampler if mode != "C" else None)

    def _persist(self) -> None:
        if self.doc_path is not None:
            write_superblock(self.doc_path, _text(self._document_header(), self._entries.values()))

    def _entry(self, name: str) -> FileEntry:
        """`name`'s entry, parsed from its catalog line."""
        line = self._entries.get(name)
        if line is None:
            raise FileNotFound(f"file {name!r} not found")
        return FileEntry.parse(line)

    def _fetch(self, code: int, addr: Perm):
        """One fetch and one parse: the block (code, address, carrier,
        payload).  A missing or undecodable post is a bad block at `code`."""
        tags = self._tags(addr)
        try:
            carrier = CarrierObject.from_bytes(self.backend.fetch(tags))
            return code, addr, carrier, read_payload(carrier, self.config.p)
        except NotFound as exc:
            raise ChainBroken(f"no object at {' '.join(tags)}", "bad-block", code) from exc
        except (TruncatedPayload, BadVersion, UnsupportedCarrier) as exc:
            raise ChainBroken(f"undecodable block at {' '.join(tags)}", "bad-block", code) from exc

    def _post(self, code: int, addr: Perm, payload: BlockPayload, m: Optional[int] = None) -> None:
        """Embed `payload` in the pool's carrier for `code` and post it at `addr`."""
        stego = embed(self.pool.next_carrier(code), encode_payload(payload, self.config.p, m))
        self.backend.post(stego.data, self._tags(addr))

    def _remove(self, run) -> None:
        """Remove the posts of a run of (code, address) pairs, best effort:
        a post already gone counts as removed, and one that fails to go
        stays behind as an orphan.  In mode A the code of a post that went
        is freed and the code of an orphan is kept used, so allocation never
        lands on it."""
        used = self._used if self.config.mode == "A" else set()
        for code, addr in run:
            try:
                self.backend.remove(self._tags(addr))
            except NotFound:
                pass  # already gone
            except Exception:
                used.add(code)
                continue
            used.discard(code)

    @contextmanager
    def _replay(self):
        """A replay cursor in mode C, None otherwise; the hashes it spent
        count as replay iterations when the scope ends."""
        cursor = ReplayCursor(self.config.genesis, self._ladder) if self.config.mode == "C" else None
        try:
            yield cursor
        finally:
            if cursor is not None:
                self._replay_iterations += cursor.iterations

    def _blocks_of(self, entry: FileEntry) -> int:
        return compute_chain_length(entry.length, self.config.m)

    def _walk(self, code: int, cursor: Optional[ReplayCursor], count: Optional[int] = None):
        """Follow pointers from `code`, yielding (code, address, carrier,
        payload) per block: `count` blocks, or up to the NULL pointer when
        `count` is None.  Every chain fault raises ChainBroken with its kind
        and the offending code."""
        start, prev, seen = code, 0, set()
        while count is None or len(seen) < count:
            if code == 0:
                if count is None:
                    return
                raise ChainBroken(
                    f"chain ends after {len(seen)} of the {count} blocks from {start}",
                    "file-truncated", start,
                )
            # order first: in mode C a backward pointer is an order fault
            # whether or not it also closes a cycle
            if self.config.mode == "C" and code <= prev:
                raise ChainBroken(f"counter {code} does not increase past {prev}", "order", code)
            if code in seen:
                raise ChainBroken(f"pointer {code} repeats along the chain", "cycle", code)
            seen.add(code)
            try:  # mode C replays the stream through `cursor`
                addr = cursor.resolve(code) if cursor is not None else unrank(code, self.config.n)
            except (InvalidCounter, CodeOutOfRange) as exc:
                raise ChainBroken(f"bad pointer {code}: {exc}", "bad-block", code) from exc
            block = self._fetch(code, addr)
            yield block
            prev, code = code, block[3].next_counter

    def _chain(self, cursor: Optional[ReplayCursor]):
        """The whole chain: the genesis block (code 0), then `_walk` from its
        pointer to the NULL pointer."""
        genesis = self._fetch(0, self.config.genesis)
        yield genesis
        yield from self._walk(genesis[3].next_counter, cursor)

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

    def _before(self, entry: Optional[FileEntry], cursor):
        """The (code, address, carrier, payload) block whose pointer is
        `entry`'s start code, or NULL when `entry` is None (the tail).

        The guess is the last block of the last non-empty entry before
        `entry`, or the genesis block; failing that, the chain is walked
        from the genesis block up to the first block pointing there."""
        target = entry.start_counter if entry is not None else 0
        earlier = reversed(self._entries)  # the tail's guess starts at the last entry
        if entry is not None:  # skip the names up to `entry`'s, comparing keys
            any(map(entry.name.__eq__, earlier))
        last = next((other for other in map(self._entry, earlier) if other.length), None)
        if last is not None:
            with suppress(ChainBroken):
                *_, block = self._walk(last.start_counter, cursor, self._blocks_of(last))
                if block[3].next_counter == target:
                    return block
        for block in self._chain(cursor):
            if block[3].next_counter == target:
                return block
        raise ChainBroken(f"no block points at {target}", "file-missing", target)

    def _rewrite_next(self, block, new_next: int) -> None:
        """Replace a fetched block's pointer, keeping its data and flags."""
        _, addr, carrier, payload = block
        fresh = BlockPayload(next_counter=new_next, data=payload.data, flags=payload.flags)
        stego = embed(carrier, encode_payload(fresh, self.config.p))
        self.backend.replace(self._tags(addr), stego.data)

    def _occupied_predicate(self, pending: set[Perm]):
        identity = tuple(range(self.config.n))
        genesis = self.config.genesis
        mode = self.config.mode
        used = self._used if mode == "A" else None
        backend = self.backend

        def occupied(perm: Perm) -> bool:
            # rank 0 (the identity) would collide with the NULL pointer
            if perm in pending or (mode != "C" and perm == identity):
                return True
            if mode == "A":
                return perm == genesis or rank(perm) in used
            return backend.exists(self._tags(perm))

        return occupied

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
        tail = None  # the tail block, as the session's first mutation fetched it
        if self._tail is None:  # the session's first mutation looks up the tail
            with self._replay() as cursor:
                tail = self._before(None, cursor)
                if tail[0] and cursor is not None:
                    cursor.resolve(tail[0])  # no hash: the lookup left the cursor at the tail
                    self._sampler = cursor.state
            self._tail = tail[:2]
        cfg = self.config
        count = compute_chain_length(len(data), cfg.m)
        limit = 2 ** cfg.p - 1 if cfg.mode == "C" else None  # rank codes need no bound
        base = self._sampler.iteration
        while True:
            pending_addrs: set[Perm] = set()
            run: list[tuple[int, Perm]] = []  # (pointer code, address)
            state = self._sampler
            occupied = self._occupied_predicate(pending_addrs)
            for _ in range(count):
                # the ladder keeps what a rolled-back write walked: the stream
                # is a pure function of the seed
                addr, counter, state = allocate_address(state, occupied, ladder=self._ladder, limit=limit)
                run.append((counter if cfg.mode == "C" else rank(addr), addr))
                pending_addrs.add(addr)
            posted = 0
            try:
                for idx, (code, addr) in enumerate(run):
                    chunk = data[idx * cfg.m: (idx + 1) * cfg.m]
                    nxt = run[idx + 1][0] if idx + 1 < count else 0
                    self._post(code, addr, BlockPayload(nxt, chunk), cfg.m)
                    posted += 1
                self._rewrite_next(tail or self._fetch(*self._tail), run[0][0])
                break
            except BaseException as exc:
                self._remove(run[:posted])
                if cfg.mode != "A" or not isinstance(exc, DuplicateAddress):
                    raise
                self._used.add(run[posted][0])
        self._sampler = state
        self._hash_iterations += state.iteration - base
        if cfg.mode == "A":
            self._used.update(code for code, _ in run)
        self._tail = run[-1]
        return run[0][0]

    def _splice_run(self, entry: FileEntry) -> None:
        """Unlink and remove one file's blocks (§ the delete procedure):
        the predecessor takes over the pointer held by the run's last block.

        The predecessor rewrite is the point where the run leaves the
        chain.  Removal after it is best effort (`_remove`): raising there
        would leave a catalog entry naming a spliced-out run."""
        with self._replay() as cursor:
            before = self._before(entry, cursor)
            run = list(self._walk(entry.start_counter, cursor, self._blocks_of(entry)))
        tail_ptr = run[-1][3].next_counter
        self._rewrite_next(before, tail_ptr)
        self._remove(block[:2] for block in run)
        if tail_ptr == 0 and self._tail is not None:
            self._tail = before[:2]

    # -- file operations -----------------------------------------------------

    def write_file(self, name: str, data: bytes) -> FileEntry:
        check_name(name)
        data = bytes(data)
        with self._lock:
            if name in self._entries:
                raise NameExists(f"file {name!r} already exists")
            entry = FileEntry(name, self._append_chain(data) if data else 0, len(data))
            self._entries[name] = entry.line
            self._persist()
            return entry

    def read_file(self, name: str) -> bytes:
        with self._lock:
            entry = self._entry(name)
            with self._replay() as cursor:
                walk = self._walk(entry.start_counter, cursor, self._blocks_of(entry))
                data = b"".join(payload.data for _, _, _, payload in walk)
            if len(data) != entry.length:
                raise ChainBroken(
                    f"file {name!r} yielded {len(data)} bytes, expected {entry.length}",
                    "file-bytes", entry.start_counter,
                )
            return data

    def delete_file(self, name: str) -> None:
        with self._lock:
            entry = self._entry(name)
            if entry.length > 0:
                self._splice_run(entry)
            del self._entries[name]
            self._persist()

    def modify_file(self, name: str, data: bytes) -> FileEntry:
        """Replace a file's contents: the new run is posted before the old
        one is spliced out, so the catalog never points at a half-written
        chain.  The new run sits at the chain tail, so the entry moves to
        the end of the catalog."""
        data = bytes(data)
        with self._lock:
            entry = self._entry(name)
            first = self._append_chain(data) if data else 0
            if entry.length > 0:
                self._splice_run(entry)
            fresh = FileEntry(name, first, len(data))
            del self._entries[name]
            self._entries[name] = fresh.line
            self._persist()
            return fresh

    def list_files(self) -> list[FileEntry]:
        with self._lock:
            return sorted(map(self._entry, self._entries))  # names are unique: name order

    def chain_blocks(self) -> list[tuple[int, Perm, BlockPayload]]:
        """Read-only traversal from the genesis block: one
        (pointer code, address, payload) triple per data block, in chain order."""
        with self._lock, self._replay() as cursor:
            return [(code, addr, payload) for code, addr, _, payload in self._chain(cursor)][1:]

    # -- inspection ------------------------------------------------------------

    def fsck(self) -> ChainReport:
        """Read-only chain check: traversal stops at the first fault the
        walker raises; catalog coverage is only judged on a fully
        traversed chain."""
        with self._lock, self._replay() as cursor:
            report = ChainReport()
            chain = self._chain(cursor)
            try:
                genesis_payload = next(chain)[3]
            except ChainBroken as exc:
                report.violations.append(Violation("genesis-missing", 0, str(exc)))
                return report
            report.block_count = 1
            if not genesis_payload.is_superblock:
                report.violations.append(
                    Violation("genesis-flags", 0, "genesis block lacks the superblock flag")
                )
            expect = self.config.echo_bytes()
            if genesis_payload.data != expect:
                report.violations.append(
                    Violation("genesis-echo", 0, f"genesis echo {genesis_payload.data!r} != {expect!r}")
                )
            blocks: list[tuple[int, Perm, BlockPayload]] = []
            try:
                for code, addr, _, payload in chain:
                    report.block_count += 1
                    blocks.append((code, addr, payload))
            except ChainBroken as fault:
                report.violations.append(Violation(fault.kind, fault.counter, str(fault)))
                return report
            position = {code: idx for idx, (code, _, _) in enumerate(blocks)}
            total_expected = 0
            for entry in map(self._entry, self._entries):
                total_expected += self._blocks_of(entry)
                if not entry.length:
                    continue
                try:
                    run = self._locate(blocks, position, entry)
                except ChainBroken as fault:
                    report.violations.append(Violation(fault.kind, fault.counter, str(fault)))
                    continue
                got = sum(len(payload.data) for _, _, payload in run)
                if got != entry.length:
                    report.violations.append(
                        Violation(
                            "file-bytes", entry.start_counter,
                            f"file {entry.name!r} spans {got} bytes, catalog says {entry.length}",
                        )
                    )
            if len(blocks) != total_expected:
                report.violations.append(
                    Violation(
                        "block-count", 0,
                        f"chain holds {len(blocks)} blocks, catalog accounts for {total_expected}",
                    )
                )
            return report

    def stats(self) -> TradeoffStats:
        with self._lock:
            header = self._document_header()
            # each line is followed by a newline; a name may be non-ASCII
            catalog_bytes = sum(len(line.encode("utf-8")) + 1 for line in self._entries.values())
            return TradeoffStats(
                mode=self.config.mode,
                persistent_bytes=sum(len(line.encode("utf-8")) + 1 for line in header) + catalog_bytes,
                catalog_bytes=catalog_bytes,
                dictionary_bytes=sum(len(line) + 1 for line in header if line.startswith("used=")),
                hash_iterations=self._hash_iterations,
                replay_iterations=self._replay_iterations,
                block_count=sum(self._blocks_of(e) for e in map(self._entry, self._entries)),
                file_count=len(self._entries),
                checkpoints=len(self._ladder) if self._ladder is not None else 0,
            )
