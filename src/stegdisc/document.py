"""The superblock document: a disc's config, catalog, mode A's used codes
and allocation position, with one reader and one writer.

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
"""

from __future__ import annotations

import os
import tempfile
import uuid
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from math import factorial
from operator import not_
from pathlib import Path
from typing import NamedTuple, Optional
from urllib.parse import quote, unquote

from .carrier import header_size
from .errors import ConfigInvalid, FileNotFound, NotAPermutation
from .steghash import HashtagAlphabet, Perm, SamplerState, validate_permutation

MODES = ("A", "B", "C")

# characters that would break the one-line superblock header fields
_FIELD_FORBIDDEN = set(",;=\t\n\r ")


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
    def create(cls, n: int, p: int, m: int, mode: str, alphabet: Optional[HashtagAlphabet] = None,
               genesis=None, disc_id: Optional[str] = None) -> "DiscConfig":
        genesis = tuple(genesis) if genesis is not None else tuple(range(n))
        alphabet = alphabet or HashtagAlphabet.default(n)
        return cls(n, p, m, mode, alphabet, genesis, disc_id or uuid.uuid4().hex[:12])

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
            raise ConfigInvalid(f"rank codes need 2^p > n! (p={self.p}, n={self.n})")
        _check_field(self.disc_id, "disc_id")
        for tag in self.alphabet.tags:
            _check_field(tag, "hashtag")

    def echo_bytes(self) -> bytes:
        """Config summary embedded in the genesis block for cross-checking."""
        return f"n={self.n};p={self.p};m={self.m};mode={self.mode};id={self.disc_id}".encode("utf-8")

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


_HEADER_KEYS = ("disc_id", "mode", "n", "p", "m", "genesis", "alphabet")


def _header(config: DiscConfig, used_codes, stream: Optional[SamplerState]) -> list[str]:
    """The header lines, with a stream= line when `stream` is given and a
    used= line when `used_codes` is.

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


def serialize_superblock(config: DiscConfig, entries, used_codes=None, stream=None) -> str:
    """The document holding exactly the lines given, whatever the mode."""
    return _text(_header(config, used_codes, stream), (entry.line for entry in entries))


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


def _read_document(text: str):
    """The one reader of the document: (config, catalog, used, stream),
    the catalog as name -> line, the used= value checked but not read,
    and None for a line that is not there.
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
    entries = dict(zip(names, catalog))  # name -> line, in chain order
    if len(entries) != len(catalog):
        raise ConfigInvalid("the catalog names a file twice")
    return config, entries, used, stream


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


class Document:
    """A disc's config, catalog (name -> line, in chain order), mode A's
    used codes and allocation sampler.  Mode A writes a used= line, modes
    A and B a stream= line; mode C's sampler lives for the session alone."""

    def __init__(self, config: DiscConfig, entries=None, used_line: Optional[str] = None, sampler=None):
        self.config = config
        self.entries: dict[str, str] = entries if entries is not None else {}
        self._used_line = used_line or ""  # the used= value, parsed in mode A alone
        # a document without a stream= line, and mode C, start at the seed
        self.sampler = sampler if sampler is not None else SamplerState.fresh(config.genesis)

    @classmethod
    def read(cls, text: str) -> "Document":
        return cls(*_read_document(text))

    @cached_property
    def used(self) -> set[int]:
        """Mode A: rank codes of live blocks, read from the used= value on first use."""
        return _used_codes(self._used_line)

    def entry(self, name: str) -> FileEntry:
        """`name`'s entry, parsed from its catalog line."""
        line = self.entries.get(name)
        if line is None:
            raise FileNotFound(f"file {name!r} not found")
        return FileEntry.parse(line)

    def _mode_header(self) -> list[str]:
        mode = self.config.mode
        used = self.used if mode == "A" else None
        return _header(self.config, used, self.sampler if mode != "C" else None)

    def text(self) -> str:
        return _text(self._mode_header(), self.entries.values())

    def sizes(self) -> tuple[int, int, int]:
        """Bytes of the whole document, of its catalog lines and of its used= line."""
        header = self._mode_header()
        # each line is followed by a newline; a name may be non-ASCII
        catalog = sum(len(line.encode("utf-8")) + 1 for line in self.entries.values())
        used = sum(len(line) + 1 for line in header if line.startswith("used="))
        return len(_text(header, ()).encode("utf-8")) + catalog, catalog, used
