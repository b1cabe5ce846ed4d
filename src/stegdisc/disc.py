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
     stream, so resolving one replays the stream from the nearest
     checkpoint of the session's ladder.  Every walk of the stream
     (allocation, reopen sync, traversal, read) leaves checkpoints
     behind; the ladder is never persisted, so a fresh session replays
     from the seed.

Local persistence is a small superblock+catalog text document; the
chain itself lives only in the posted objects.
"""

from __future__ import annotations

import os
import tempfile
import threading
import uuid
from dataclasses import dataclass, field
from math import factorial
from pathlib import Path
from typing import Optional
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
    FileNotFound,
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
    HashtagAlphabet,
    Perm,
    ReplayCursor,
    SamplerState,
    allocate_address,
    perm_to_hashtags,
    rank,
    sampler_advance,
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
        cfg = cls(
            n=n,
            p=p,
            m=m,
            mode=mode,
            alphabet=alphabet or HashtagAlphabet.default(n),
            genesis=tuple(genesis) if genesis is not None else tuple(range(n)),
            disc_id=disc_id or uuid.uuid4().hex[:12],
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
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


def _parse_echo(data: bytes) -> dict[str, str]:
    out = {}
    for part in data.decode("utf-8", errors="replace").split(";"):
        key, sep, value = part.partition("=")
        if sep:
            out[key] = value
    return out


@dataclass
class FileEntry:
    name: str
    start_counter: int  # pointer code of the first block; 0 for empty files
    length: int  # bytes


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


def _superblock_lines(config: DiscConfig, entries, used_codes) -> tuple[list[str], list[str]]:
    """The document's header lines (the used= line last, if any) and its
    catalog lines, one per file."""
    header = [
        f"disc_id={config.disc_id}",
        f"mode={config.mode}",
        f"n={config.n}",
        f"p={config.p}",
        f"m={config.m}",
        "genesis=" + ",".join(str(v) for v in config.genesis),
        "alphabet=" + ",".join(config.alphabet.tags),
    ]
    if used_codes is not None:
        header.append("used=" + ",".join(str(c) for c in sorted(used_codes)))
    catalog = [f"{quote(e.name, safe='')}\t{e.start_counter}\t{e.length}" for e in entries]
    return header, catalog


def serialize_superblock(
    config: DiscConfig,
    entries: list[FileEntry],
    used_codes=None,
) -> str:
    header, catalog = _superblock_lines(config, entries, used_codes)
    return "\n".join(header + catalog) + "\n"


def parse_superblock(text: str):
    """Inverse of serialize_superblock.

    Returns (config, entries, used_codes); used_codes is None unless a
    used= line is present (mode A).
    """
    header: dict[str, str] = {}
    entries: list[FileEntry] = []
    used_codes = None
    for line in text.splitlines():
        if not line:
            continue
        if "\t" in line:
            parts = line.split("\t")
            if len(parts) != 3:
                raise ConfigInvalid(f"bad catalog line {line!r}")
            try:
                entries.append(FileEntry(unquote(parts[0]), int(parts[1]), int(parts[2])))
            except ValueError as exc:
                raise ConfigInvalid(f"bad catalog line {line!r}") from exc
        else:
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigInvalid(f"bad header line {line!r}")
            header[key] = value
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise ConfigInvalid(f"superblock document is missing {missing}")
    try:
        genesis = tuple(int(v) for v in header["genesis"].split(","))
        config = DiscConfig(
            n=int(header["n"]),
            p=int(header["p"]),
            m=int(header["m"]),
            mode=header["mode"],
            alphabet=HashtagAlphabet(header["alphabet"].split(",")),
            genesis=genesis,
            disc_id=header["disc_id"],
        )
        if "used" in header:
            used_codes = {int(v) for v in header["used"].split(",") if v}
    except (ValueError, ConfigInvalid) as exc:
        raise ConfigInvalid(f"bad superblock document: {exc}") from exc
    config.validate()
    return config, entries, used_codes


def write_superblock(path, config: DiscConfig, entries, used_codes=None) -> None:
    """Atomic write: temp file in the same directory, then rename over."""
    path = Path(path)
    text = serialize_superblock(config, entries, used_codes)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".stegdisc-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def default_pool(config: DiscConfig) -> CarrierPool:
    """Synthetic bitmap pool just large enough for this disc's payloads."""
    need = header_size(config.p) + max(config.m, len(config.echo_bytes()))
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
        used_codes=None,
    ):
        config.validate()
        self.config = config
        self.backend = backend
        self.pool = pool if pool is not None else default_pool(config)
        self.doc_path = Path(doc_path) if doc_path is not None else None
        self._entries: list[FileEntry] = list(entries or [])
        self._used: set[int] = set(used_codes or ())  # mode A: rank codes of live blocks
        limit = 2 ** config.p - 1 if config.mode == "C" else None
        self._sampler = SamplerState.fresh(config.genesis, limit=limit)
        # mode C allocation must not reuse counters at or below the chain
        # tail; a reopened disc walks the stream up to the tail first
        self._sampler_synced = config.mode != "C"
        self._tail: Optional[tuple[Perm, int]] = None  # (address, pointer code)
        # mode C: session-local resume points in the stream, never persisted
        self._ladder = CheckpointLadder() if config.mode == "C" else None
        self._hash_iterations = 0
        self._replay_iterations = 0
        self._lock = threading.RLock()
        min_cap = self.pool.min_capacity()
        if header_size(config.p) + config.m > min_cap:
            raise ConfigInvalid(
                f"block of m={config.m} bytes needs "
                f"{header_size(config.p) + config.m} carrier bytes, pool offers {min_cap}"
            )
        if header_size(config.p) + len(config.echo_bytes()) > min_cap:
            raise ConfigInvalid("carrier pool too small for the genesis block")

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def format(cls, config: DiscConfig, backend, pool=None, doc_path=None) -> "Disc":
        disc = cls(config, backend, pool, doc_path)
        payload = BlockPayload(next_counter=0, data=config.echo_bytes(), flags=FLAG_SUPERBLOCK)
        raw = encode_payload(payload, config.p)
        stego = embed(disc.pool.next_carrier(0), raw)
        backend.post(stego.data, disc._tags(config.genesis))
        disc._tail = (config.genesis, 0)
        disc._sampler_synced = True
        disc._persist()
        return disc

    @classmethod
    def open(cls, doc_path, backend, pool=None) -> "Disc":
        text = Path(doc_path).read_text(encoding="utf-8")
        config, entries, used_codes = parse_superblock(text)
        return cls(config, backend, pool, doc_path, entries, used_codes)

    # -- helpers -------------------------------------------------------------

    def _tags(self, perm: Perm):
        return perm_to_hashtags(perm, self.config.alphabet)

    def _persist(self) -> None:
        if self.doc_path is None:
            return
        used = self._used if self.config.mode == "A" else None
        write_superblock(self.doc_path, self.config, self._entries, used)

    def _entry(self, name: str) -> FileEntry:
        for entry in self._entries:
            if entry.name == name:
                return entry
        raise FileNotFound(f"file {name!r} not found")

    def _resolve(self, code: int, cursor: Optional[ReplayCursor]) -> Perm:
        """Pointer code -> address; mode C replays the stream via `cursor`."""
        if self.config.mode == "C":
            try:
                return cursor.resolve(code)
            except InvalidCounter as exc:
                raise ChainBroken(f"pointer {code} is not a valid stream position") from exc
        try:
            return unrank(code, self.config.n)
        except CodeOutOfRange as exc:
            raise ChainBroken(f"pointer {code} is not a valid address code") from exc

    def _fetch(self, addr: Perm) -> tuple[CarrierObject, BlockPayload]:
        """One fetch and one parse: the posted object and its payload."""
        try:
            carrier = CarrierObject.from_bytes(self.backend.fetch(self._tags(addr)))
        except NotFound as exc:
            raise ChainBroken(f"no object at {' '.join(self._tags(addr))}") from exc
        try:
            return carrier, read_payload(carrier, self.config.p)
        except (TruncatedPayload, BadVersion, UnsupportedCarrier) as exc:
            raise ChainBroken(f"undecodable block at {' '.join(self._tags(addr))}") from exc

    def _fetch_block(self, addr: Perm) -> BlockPayload:
        return self._fetch(addr)[1]

    def _new_cursor(self) -> Optional[ReplayCursor]:
        if self.config.mode != "C":
            return None
        return ReplayCursor(self.config.genesis, self._ladder)

    def _traverse(self) -> list[tuple[int, Perm, BlockPayload]]:
        """Walk genesis -> tail; returns (code, address, payload) per data block."""
        genesis_payload = self._fetch_block(self.config.genesis)
        cursor = self._new_cursor()
        blocks = []
        seen: set[int] = set()
        code = genesis_payload.next_counter
        try:
            while code != 0:
                if code in seen:
                    raise ChainBroken(f"pointer cycle at {code}")
                seen.add(code)
                addr = self._resolve(code, cursor)
                payload = self._fetch_block(addr)
                blocks.append((code, addr, payload))
                code = payload.next_counter
        finally:
            if cursor is not None:
                self._replay_iterations += cursor.iterations
        return blocks

    def _rewrite_next(self, addr: Perm, new_next: int) -> None:
        """Replace one posted block's pointer, keeping its data and flags."""
        carrier, payload = self._fetch(addr)
        fresh = BlockPayload(next_counter=new_next, data=payload.data, flags=payload.flags)
        stego = embed(carrier, encode_payload(fresh, self.config.p))
        self.backend.replace(self._tags(addr), stego.data)

    def _sync_from(self, blocks) -> None:
        """Refresh the tail cache; mode C also advances the allocation
        sampler past the last live counter so new counters stay above it,
        starting from the ladder checkpoint nearest below that counter."""
        if blocks:
            self._tail = (blocks[-1][1], blocks[-1][0])
        else:
            self._tail = (self.config.genesis, 0)
        if not self._sampler_synced:
            if self.config.mode == "C" and blocks:
                target = blocks[-1][0]
                state = self._ladder.resume(self._sampler, target)
                while state.iteration < target:
                    before = state.iteration
                    _, _, state = sampler_advance(state)
                    self._hash_iterations += state.iteration - before
                    self._ladder.record(state)
                self._sampler = state
            self._sampler_synced = True

    def _prepare_mutation(self) -> None:
        if self._tail is None or not self._sampler_synced:
            self._sync_from(self._traverse())

    def _occupied_predicate(self, pending: set[Perm]):
        identity = tuple(range(self.config.n))
        genesis = self.config.genesis
        mode = self.config.mode
        if mode == "A":
            used = self._used

            def occupied(perm: Perm) -> bool:
                # rank 0 (the identity) would collide with the NULL pointer
                return perm == identity or perm == genesis or perm in pending or rank(perm) in used

            return occupied

        backend = self.backend

        def occupied(perm: Perm) -> bool:
            if mode == "B" and perm == identity:
                return True
            return perm in pending or backend.exists(self._tags(perm))

        return occupied

    def _append_chain(self, data: bytes) -> int:
        """Allocate, post and link a run of blocks at the chain tail.

        Returns the first block's pointer code.  On failure nothing is
        committed: posted blocks are removed and the sampler state stays
        where it was, so a rejected write leaves the disc clean.
        """
        cfg = self.config
        count = compute_chain_length(len(data), cfg.m)
        pending_addrs: set[Perm] = set()
        run: list[tuple[Perm, int]] = []  # (address, pointer code)
        state = self._sampler
        base = state.iteration
        occupied = self._occupied_predicate(pending_addrs)
        for _ in range(count):
            # the ladder keeps what a rolled-back write walked: the stream
            # is a pure function of the seed
            addr, counter, state = allocate_address(state, occupied, ladder=self._ladder)
            code = counter if cfg.mode == "C" else rank(addr)
            run.append((addr, code))
            pending_addrs.add(addr)
        posted: list[Perm] = []
        try:
            for idx, (addr, code) in enumerate(run):
                chunk = data[idx * cfg.m: (idx + 1) * cfg.m]
                nxt = run[idx + 1][1] if idx + 1 < count else 0
                payload = BlockPayload(next_counter=nxt, data=chunk)
                raw = encode_payload(payload, cfg.p, cfg.m)
                stego = embed(self.pool.next_carrier(code), raw)
                self.backend.post(stego.data, self._tags(addr))
                posted.append(addr)
            self._rewrite_next(self._tail[0], run[0][1])
        except BaseException:
            for addr in posted:
                try:
                    self.backend.remove(self._tags(addr))
                except Exception:
                    pass
            raise
        self._sampler = state
        self._hash_iterations += state.iteration - base
        if cfg.mode == "A":
            self._used.update(rank(addr) for addr, _ in run)
        self._tail = run[-1]
        return run[0][1]

    def _splice_run(self, entry: FileEntry, blocks=None) -> None:
        """Unlink and remove one file's blocks (§ the delete procedure):
        the predecessor takes over the pointer held by the run's last block."""
        if blocks is None:
            blocks = self._traverse()
        codes = [code for code, _, _ in blocks]
        try:
            start = codes.index(entry.start_counter)
        except ValueError:
            raise ChainBroken(
                f"file {entry.name!r} starts at {entry.start_counter}, not on the chain"
            ) from None
        count = compute_chain_length(entry.length, self.config.m)
        run = blocks[start: start + count]
        if len(run) < count:
            raise ChainBroken(f"chain ends inside file {entry.name!r}")
        tail_ptr = run[-1][2].next_counter
        pred_addr = self.config.genesis if start == 0 else blocks[start - 1][1]
        self._rewrite_next(pred_addr, tail_ptr)
        for _, addr, _ in run:
            try:
                self.backend.remove(self._tags(addr))
            except NotFound as exc:
                raise ChainBroken(f"block vanished during delete: {exc}") from exc
        if self.config.mode == "A":
            self._used.difference_update(rank(addr) for _, addr, _ in run)
        if tail_ptr == 0:
            if start == 0:
                self._tail = (self.config.genesis, 0)
            else:
                self._tail = (blocks[start - 1][1], blocks[start - 1][0])

    # -- file operations -----------------------------------------------------

    def write_file(self, name: str, data: bytes) -> FileEntry:
        check_name(name)
        data = bytes(data)
        with self._lock:
            if any(entry.name == name for entry in self._entries):
                raise NameExists(f"file {name!r} already exists")
            if not data:
                entry = FileEntry(name, 0, 0)
            else:
                self._prepare_mutation()
                first = self._append_chain(data)
                entry = FileEntry(name, first, len(data))
            self._entries.append(entry)
            self._persist()
            return entry

    def read_file(self, name: str) -> bytes:
        with self._lock:
            entry = self._entry(name)
            if entry.length == 0:
                return b""
            count = compute_chain_length(entry.length, self.config.m)
            cursor = self._new_cursor()
            chunks = []
            code = entry.start_counter
            try:
                for _ in range(count):
                    if code == 0:
                        raise ChainBroken(f"chain ends inside file {name!r}")
                    addr = self._resolve(code, cursor)
                    payload = self._fetch_block(addr)
                    chunks.append(payload.data)
                    code = payload.next_counter
            finally:
                if cursor is not None:
                    self._replay_iterations += cursor.iterations
            data = b"".join(chunks)
            if len(data) != entry.length:
                raise ChainBroken(
                    f"file {name!r} yielded {len(data)} bytes, expected {entry.length}"
                )
            return data

    def delete_file(self, name: str) -> None:
        with self._lock:
            entry = self._entry(name)
            if entry.length > 0:
                blocks = self._traverse()
                self._sync_from(blocks)
                self._splice_run(entry, blocks)
            self._entries.remove(entry)
            self._persist()

    def modify_file(self, name: str, data: bytes) -> FileEntry:
        """Replace a file's contents: the new run is posted before the old
        one is spliced out, so the catalog never points at a half-written
        chain."""
        data = bytes(data)
        with self._lock:
            entry = self._entry(name)
            self._prepare_mutation()
            first = self._append_chain(data) if data else 0
            if entry.length > 0:
                self._splice_run(entry)
            fresh = FileEntry(name, first, len(data))
            self._entries[self._entries.index(entry)] = fresh
            self._persist()
            return fresh

    def list_files(self) -> list[FileEntry]:
        with self._lock:
            return sorted(self._entries, key=lambda entry: entry.name)

    def chain_blocks(self) -> list[tuple[int, Perm, BlockPayload]]:
        """Read-only traversal from the genesis block: one
        (pointer code, address, payload) triple per data block, in chain order."""
        with self._lock:
            return self._traverse()

    # -- inspection ------------------------------------------------------------

    def fsck(self) -> ChainReport:
        """Read-only chain check: traversal stops at the first structural
        fault; catalog coverage is only judged on a fully traversed chain."""
        with self._lock:
            report = ChainReport()
            try:
                genesis_payload = self._fetch_block(self.config.genesis)
            except ChainBroken as exc:
                report.violations.append(Violation("genesis-missing", 0, str(exc)))
                return report
            report.block_count = 1
            if not genesis_payload.is_superblock:
                report.violations.append(
                    Violation("genesis-flags", 0, "genesis block lacks the superblock flag")
                )
            echo = _parse_echo(genesis_payload.data)
            expect = _parse_echo(self.config.echo_bytes())
            if echo != expect:
                report.violations.append(
                    Violation("genesis-echo", 0, f"genesis echo {echo} != {expect}")
                )
            cursor = self._new_cursor()
            blocks: list[tuple[int, BlockPayload]] = []
            seen: set[int] = set()
            code = genesis_payload.next_counter
            prev = 0
            broken = False
            try:
                while code != 0:
                    # order first: in mode C a backward pointer is an order
                    # fault whether or not it also closes a cycle
                    if self.config.mode == "C" and code <= prev:
                        report.violations.append(
                            Violation(
                                "order", code,
                                f"counter {code} does not increase past {prev}",
                            )
                        )
                        broken = True
                        break
                    if code in seen:
                        report.violations.append(
                            Violation("cycle", code, f"pointer {code} repeats along the chain")
                        )
                        broken = True
                        break
                    seen.add(code)
                    try:
                        addr = self._resolve(code, cursor)
                        payload = self._fetch_block(addr)
                    except ChainBroken as exc:
                        report.violations.append(Violation("bad-block", code, str(exc)))
                        broken = True
                        break
                    report.block_count += 1
                    blocks.append((code, payload))
                    prev = code
                    code = payload.next_counter
            finally:
                if cursor is not None:
                    self._replay_iterations += cursor.iterations
            if broken:
                return report
            codes = [c for c, _ in blocks]
            total_expected = 0
            for entry in self._entries:
                count = compute_chain_length(entry.length, self.config.m)
                total_expected += count
                if count == 0:
                    continue
                try:
                    start = codes.index(entry.start_counter)
                except ValueError:
                    report.violations.append(
                        Violation(
                            "file-missing", entry.start_counter,
                            f"file {entry.name!r} start pointer not on the chain",
                        )
                    )
                    continue
                run = blocks[start: start + count]
                if len(run) < count:
                    report.violations.append(
                        Violation(
                            "file-truncated", entry.start_counter,
                            f"chain ends inside file {entry.name!r}",
                        )
                    )
                    continue
                got = sum(len(payload.data) for _, payload in run)
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
            used = self._used if self.config.mode == "A" else None
            header, catalog = _superblock_lines(self.config, self._entries, used)
            # each line is followed by a newline; quoted catalog lines are ASCII
            return TradeoffStats(
                mode=self.config.mode,
                persistent_bytes=sum(len(line.encode("utf-8")) + 1 for line in header + catalog),
                catalog_bytes=sum(len(line) + 1 for line in catalog),
                dictionary_bytes=len(header[-1]) + 1 if used is not None else 0,
                hash_iterations=self._hash_iterations,
                replay_iterations=self._replay_iterations,
                block_count=sum(
                    compute_chain_length(e.length, self.config.m) for e in self._entries
                ),
                file_count=len(self._entries),
                checkpoints=len(self._ladder) if self._ladder is not None else 0,
            )
