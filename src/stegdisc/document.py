"""The superblock document: a disc's config, catalog, mode A's used codes
and allocation position, with one reader and one writer.

A mode's two choices are one `Encoding` record in `ENCODINGS` (`MODES`
is its keys), which `DiscConfig` looks up from the mode letter; the disc
and this document read the record, never the letter.

Local persistence is a small superblock+catalog text document; the
chain itself lives only in the posted objects.  Opening a disc checks
all of it; the catalog is held as its lines, parsed each time a command
uses one and written back as read, and mode A's used= line is parsed
only when a command needs the used set.  That line holds the sorted
codes as their differences after a `~` (`used=~22,1,9` is {22, 23, 32});
each gap, like each code a journal record names, is at least 1 and has
no leading zero (rank 0 is the NULL pointer).  The line an earlier
version wrote, the codes themselves with no `~`, still reads, and the
next snapshot writes gaps; an earlier version rejects the `~` line.
With rank-code pointers (modes A and B) a `stream=` line records the
allocation sampler's position, and a fresh session resumes allocation
from it; freedom is checked against the used set or the network, so a
stale position costs hashes, never correctness.  Stream-position
pointers (mode C) write no such line: the tail's pointer is its
position.

These lines are a snapshot, and a journal follows: a put, edit or rm
appends one group of records, written whole, its catalog record last:
`+<TAB><catalog line>` adds or moves an entry to the end, `+!<quoted
name>` drops one, `+@<iteration>:<perm>` moves the allocation position,
and `+*<codes>` / `+^<codes>` mark mode A codes used / free (the codes
themselves, not gaps).  A torn last line is ignored.  A group that would
take the journal past 2 % of the snapshot's bytes is written as a
snapshot instead (a new file, readable by its owner alone, renamed
over).  Earlier versions reject a journal: a record has three tabs or no "=".
"""

from __future__ import annotations

import os
from contextlib import suppress
from functools import cached_property
from itertools import accumulate, compress, repeat
from math import factorial
from operator import not_, sub
from typing import NamedTuple, Optional
from urllib.parse import quote, unquote

from .errors import ConfigInvalid, FileNotFound, NotAPermutation
from .steghash import HashtagAlphabet, Perm, SamplerState, sampler_advance, validate_permutation


class Encoding(NamedTuple):
    """How a mode encodes the one address stream the three modes share:
    the two choices its letter makes, read from here and nowhere else.
    Rank-code pointers reserve rank 0 (the identity) for NULL and need a
    stream= line to resume allocation; stream positions reserve no
    address, end at 2^p - 1 and resume from the chain tail's position."""

    positions: bool  # pointers are stream positions (C), not rank codes (A, B)
    used_set: bool  # freedom is checked in a local used set (A), not with the backend (B, C)


ENCODINGS = {"A": Encoding(False, True), "B": Encoding(False, False), "C": Encoding(True, False)}
MODES = tuple(ENCODINGS)

# characters that would break the one-line superblock header fields,
# including the line breaks str.splitlines() sees past the C0 controls
_FIELD_FORBIDDEN = set(",;=\t\n\r \x85\u2028\u2029")


def _check_field(value: str, what: str) -> str:
    if not value or any(c in _FIELD_FORBIDDEN or ord(c) < 0x20 for c in value):
        raise ConfigInvalid(f"{what} {value!r} is empty or has reserved characters")
    return value


class DiscConfig:
    """A disc's parameters, checked when built; `encoding` follows from
    `mode` alone, and no alphabet means the demo one of n hashtags.
    Three derived attributes own the address space: `reserved`, which no
    data block takes (the genesis, and the NULL identity for rank codes),
    `limit` (2^p - 1 for stream positions, else None) and the stream's `seed`."""

    def __init__(self, n: int, p: int, m: int, mode: str, alphabet: Optional[HashtagAlphabet],
                 genesis: Perm, disc_id: str):
        if mode not in MODES:
            raise ConfigInvalid(f"mode must be one of {MODES}, got {mode!r}")
        self.n, self.p, self.m, self.mode, self.disc_id = n, p, m, mode, disc_id
        self.encoding = ENCODINGS[mode]  # derived from mode alone, never set on its own
        if n < 1 or p < 1 or m < 1:
            raise ConfigInvalid(f"n, p, m must be >= 1 (n={n} p={p} m={m})")
        self.alphabet = alphabet = alphabet or HashtagAlphabet.default(n)  # once n is checked
        if len(alphabet) != n:
            raise ConfigInvalid(f"alphabet has {len(alphabet)} tags, expected n={n}")
        try:
            self.genesis = validate_permutation(genesis)
        except Exception as exc:
            raise ConfigInvalid(f"bad genesis: {exc}") from exc
        if len(self.genesis) != n:
            raise ConfigInvalid(f"genesis has {len(self.genesis)} elements, expected n={n}")
        positions = self.encoding.positions
        self.reserved = frozenset({self.genesis} if positions else {self.genesis, tuple(range(n))})
        if len(self.reserved) == factorial(n):
            raise ConfigInvalid(f"n={n} with genesis {','.join(map(str, self.genesis))} "
                                "leaves no address for a data block")
        if not positions and 2 ** p <= factorial(n):
            raise ConfigInvalid(f"rank codes need 2^p > n! (p={p}, n={n})")
        self.limit = 2 ** p - 1 if positions else None  # rank codes have no bound
        self.seed = SamplerState.fresh(self.genesis)
        if self.limit is not None:  # a disc that cannot hold one block is refused
            first = sampler_advance(self.seed)[1]
            if first > self.limit:
                raise ConfigInvalid(f"the stream's first completion {first} passes 2^p - 1 (p={p})")
        _check_field(disc_id, "disc_id")  # HashtagAlphabet checks its own tags

    @classmethod
    def create(cls, n: int, p: int, m: int, mode: str, alphabet: Optional[HashtagAlphabet] = None,
               genesis=None, disc_id: Optional[str] = None) -> "DiscConfig":
        genesis = tuple(genesis) if genesis is not None else tuple(range(n))
        return cls(n, p, m, mode, alphabet, genesis, disc_id or os.urandom(6).hex())

    def echo_bytes(self) -> bytes:
        """Config summary embedded in the genesis block for cross-checking."""
        return f"n={self.n};p={self.p};m={self.m};mode={self.mode};id={self.disc_id}".encode("utf-8")


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


_HEADER_KEYS = ("disc_id", "mode", "n", "p", "m", "genesis", "alphabet")


def _position(state: SamplerState) -> str:
    """`<iteration>:<perm>`, a sampler state as stream= and +@ hold it."""
    return f"{state.iteration}:" + ",".join(map(str, state.perm))


def write_superblock(path, text: str, append: bool = False) -> None:
    """Write `text` to `path`: appended whole, however short each write, or
    atomically (a temp file renamed over)."""
    if append:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND)
        try:
            view = memoryview(text.encode("utf-8"))
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        return
    # owner-only (0o600), as the document holds the genesis and the alphabet
    tmp = os.path.join(os.path.dirname(path), f".stegdisc-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o600)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def _parse_stream(value: str, config: DiscConfig) -> SamplerState:
    """The allocation sampler state a stream= value names."""
    if config.encoding.positions:
        raise ConfigInvalid(f"mode {config.mode} keeps no stream position")
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


def _read_document(text: str):
    """The one reader: (config, catalog as name -> line, the used= value and
    code records checked but not read, stream, the (snapshot, journal)
    bytes), None for what is absent.
    Snapshot lines with tabs and catalog records are checked as C-level columns."""
    plus = text.find("+")  # one memchr: the first record is at or after the first "+"
    cut = text.find("\n+", plus - 1) + 1 if plus > 0 else 0
    snapshot, journal = (text[:cut], text[cut:]) if cut else (text, "")
    lines = snapshot.splitlines()
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
    catalog = list(compress(lines, tabs))
    fields = "\t".join(catalog).split("\t")
    names = fields[0::3]
    if "%" in "".join(names):  # only an escape makes a name differ from its quoted form
        names = [unquote(name) if "%" in name else name for name in names]
    entries = dict(zip(names, catalog))  # name -> line, in chain order
    if len(entries) != len(catalog):
        raise ConfigInvalid("the catalog names a file twice")
    *records, _ = journal.split("\n")  # "" after the last newline, else a torn record: ignored
    puts, marks = [], []
    for record in records:  # the journal, in order: a few dozen records at most
        kind = record[:2]
        if kind == "+\t":
            body = record[2:]
            name = unquote(body.partition("\t")[0])
            entries.pop(name, None)
            entries[name] = body
            puts.append(body)
        elif kind == "+*" or kind == "+^":
            marks.append(record[1:])
        elif kind == "+@":
            header["stream"] = record[2:]  # only the last position is parsed
        elif kind == "+!" and unquote(record[2:]) in entries:
            del entries[unquote(record[2:])]
        else:
            raise ConfigInvalid(f"bad journal record {record!r}, or a drop of no entry")
    appended = "\t".join(puts).split("\t")  # the journal's catalog records
    numbers = [*fields[1::3], *fields[2::3], *appended[1::3], *appended[2::3]]  # starts, lengths
    used = header.get("used", "")  # "~" and the gaps between the sorted codes, or the codes
    codes = ",".join([used.removeprefix("~") or "1", *(m[1:] for m in marks)])  # used= may be empty
    digits = "".join(numbers) + codes.replace(",", "") + "0"
    malformed = not set(tabs) <= {0, 2} or not set(map(str.count, puts, repeat("\t"))) <= {2}
    malformed = malformed or "" in numbers or ",," in f",{codes},"
    malformed = malformed or ",0" in f",{codes}"  # each code and gap is at least 1, with no leading 0
    if malformed or not (digits.isascii() and digits.isdigit()):
        raise ConfigInvalid("bad superblock document: a catalog, used= or journal line is malformed")
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
    used = [header["used"], *marks] if "used" in header else None
    return config, entries, used, stream, (len(snapshot.encode("utf-8")), len(journal.encode("utf-8")))


class Document:
    """A disc's config, catalog (name -> line, in chain order), mode A's
    used codes and allocation sampler.  The mode's `Encoding` decides the
    lines: a local used set (A) writes used=, rank-code pointers (A, B)
    write stream=, and stream positions (C) keep the sampler for the
    session alone."""

    def __init__(self, config: DiscConfig, entries=None, used=None, sampler=None, written=None):
        self.config = config
        self.entries: dict[str, str] = entries if entries is not None else {}
        self._used = used or [""]  # the used= value and code records, parsed in mode A alone
        # a document without a stream= line, and mode C, start at the seed
        self.sampler = sampler if sampler is not None else config.seed
        self.written = written  # the file's (snapshot, journal) bytes; None: unknown, save a snapshot
        self._torn = False  # the file ends in a torn line: a group appended would join it
        self._saved = self.sampler  # the allocation position the file holds
        self._marks: dict[int, bool] = {}  # mode A codes used (True) or freed since the last save

    @classmethod
    def read(cls, text: str) -> "Document":
        document = cls(*_read_document(text))
        document._torn = not text.endswith("\n")
        return document

    @cached_property
    def used(self) -> set[int]:
        """Mode A: rank codes of live blocks, read on first use."""
        value = self._used[0]
        codes = map(int, filter(None, value.removeprefix("~").split(",")))
        used = set(accumulate(codes) if value.startswith("~") else codes)  # "~": gaps between sorted codes
        for record in self._used[1:]:  # marked used ("*") or freed ("^") by journal records
            (used.update if record[0] == "*" else used.difference_update)(map(int, record[1:].split(",")))
        return used

    def mark(self, codes, used: bool = True) -> None:
        """With a local used set (mode A): mark `codes` used, or free them,
        for the next journal group; otherwise nothing."""
        if self.config.encoding.used_set:
            changed = [code for code in codes if (code in self.used) != used]
            (self.used.update if used else self.used.difference_update)(changed)
            self._marks.update(dict.fromkeys(changed, used))

    def entry(self, name: str) -> FileEntry:
        """`name`'s entry, parsed from its catalog line."""
        line = self.entries.get(name)
        if line is None:
            raise FileNotFound(f"file {name!r} not found")
        return FileEntry.parse(line)

    def _mode_header(self) -> list[str]:
        """The header: the config lines, then a stream= line (the sampler's
        position) for rank-code pointers and a used= line for a local used set."""
        config = self.config
        header = [
            f"disc_id={config.disc_id}",
            f"mode={config.mode}",
            f"n={config.n}",
            f"p={config.p}",
            f"m={config.m}",
            "genesis=" + ",".join(map(str, config.genesis)),
            "alphabet=" + ",".join(config.alphabet.tags),
        ]
        if not config.encoding.positions:
            header.append("stream=" + _position(self.sampler))
        if config.encoding.used_set:
            codes = sorted(self.used)
            header.append("used=~" + ",".join(map(str, map(sub, codes, [0, *codes]))))
        return header

    def text(self) -> str:
        """The snapshot: the header lines, then the catalog lines, one per file."""
        return "\n".join([*self._mode_header(), *self.entries.values()]) + "\n"

    def _group(self, name: str) -> str:
        """The records of the changes since the last save, `name`'s entry last."""
        marks = self._marks
        records = [sign + ",".join(str(code) for code in marks if marks[code] is used)
                   for sign, used in (("*", True), ("^", False)) if used in marks.values()]
        if not self.config.encoding.positions and self.sampler != self._saved:
            records.append("@" + _position(self.sampler))
        line = self.entries.get(name)
        records.append("\t" + line if line is not None else "!" + quote(name, safe=""))
        return "".join(f"+{record}\n" for record in records)

    def save(self, path, name: Optional[str], write) -> None:
        """Write `name`'s change as a journal group via `write(path, text, append)`; write a
        snapshot for no `name`, a torn file, an unknown file size (a write raised) or a full journal."""
        group = self._group(name) if name is not None and self.written and not self._torn else ""
        snapshot, journal = self.written or (0, 0)
        journal += len(group.encode("utf-8"))
        append = bool(group) and 50 * journal <= snapshot  # the journal stays within 2 %
        text = group if append else self.text()
        self.written = None  # until `write` returns
        write(path, text, append)
        self.written = (snapshot, journal) if append else (len(text.encode("utf-8")), 0)
        self._torn = False
        self._marks.clear()
        self._saved = self.sampler

    def sizes(self) -> tuple[int, int, int, int]:
        """Bytes of the document (the file, once read or written), catalog, used= line and journal."""
        header = self._mode_header()
        # each line is followed by a newline; a name may be non-ASCII
        catalog = sum(len(line.encode("utf-8")) + 1 for line in self.entries.values())
        used = sum(len(line) + 1 for line in header if line.startswith("used="))
        snapshot, journal = self.written or (len("\n".join(header).encode("utf-8")) + 1 + catalog, 0)
        return snapshot + journal, catalog, used, journal
