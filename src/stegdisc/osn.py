"""Simulated open social network.

Stores posted objects indexed by their ordered hashtag sequence and
answers existence, fetch, replace and remove queries.  The order of the
sequence is significant: the permutation IS the address, so a permuted
query of an occupied address misses.  Real networks index hashtags as
sets; we model the order as recoverable from the post's description
text, and we never recompress or sanitize object bytes (fetch returns
exactly what was posted).

Two backends share the interface: in-memory, and an on-disk store whose
layout is one directory per post (named by a digest of the sequence)
holding the object file plus a line-oriented metadata file.  The store
keeps no index: a post's directory is derived from its address, and a
rewrite replaces the object file whole.  A chain walk pays a fetch per
block, which digests the sequence once into the post's directory, then
makes one stat of meta.txt and one os.open, os.reads until one returns
nothing, and one os.close of object.bin: 4-8 us of file access per block
on a shared 2-vCPU ext4 host, where isfile plus open().read() took 8-14.
Every query passes one admission path: its tags are checked, its key
derived, and the post's presence checked where the verb needs it.  The
backends never fail on their own: `BackendUnavailable`, the interface's
transient failure, is raised by a test's wrapper at the query it picks.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from contextlib import suppress

from .errors import DuplicateAddress, NotFound

Hashtags = tuple[str, ...]


def _check_hashtags(hashtags) -> Hashtags:
    tags = tuple(hashtags)
    for tag in tags:
        if not isinstance(tag, str) or not tag.startswith("#"):
            raise ValueError(f"not a hashtag: {tag!r}")
    if not tags or len(set(tags)) != len(tags):
        raise ValueError(f"hashtag sequence must be non-empty and distinct: {tags!r}")
    return tags


def _write_file(path: str, data: bytes) -> None:
    """Create or truncate `path` and write all of `data`, however short each write."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


class _BackendBase:
    """Shared plumbing: admission.  Subclasses define `_key` (a post's key),
    `_has`, `_put`, `_get` (None if absent), `_rewrite`, `_drop`, `_all`."""

    def _query(self, hashtags, present: bool = False):
        """Admit one query: check its tags, then if `present` check the post
        exists; returns the tags and the post's key."""
        tags = _check_hashtags(hashtags)
        key = self._key(tags)
        if present and not self._has(key):
            raise NotFound(f"no post at {' '.join(tags)}")
        return tags, key

    # -- interface -------------------------------------------------------

    def post(self, data: bytes, hashtags) -> None:
        tags, key = self._query(hashtags)
        if self._has(key):
            raise DuplicateAddress(f"address occupied: {' '.join(tags)}")
        self._put(key, bytes(data), tags)

    def exists(self, hashtags) -> bool:
        return self._has(self._query(hashtags)[1])

    def fetch(self, hashtags) -> bytes:
        tags, key = self._query(hashtags)
        if (data := self._get(key)) is None:  # one presence lookup
            raise NotFound(f"no post at {' '.join(tags)}")
        return data

    def replace(self, hashtags, data: bytes) -> None:
        self._rewrite(self._query(hashtags, present=True)[1], bytes(data))

    def remove(self, hashtags) -> None:
        self._drop(self._query(hashtags, present=True)[1])

    def live_addresses(self) -> list[Hashtags]:
        """All occupied ordered sequences (test/inspection helper)."""
        return self._all()


class MemoryBackend(_BackendBase):
    """Volatile backend; the default for tests and benchmarks.  It keeps
    each address's object bytes, keyed by the address itself."""

    def __init__(self):
        self._posts: dict[Hashtags, bytes] = {}

    @staticmethod
    def _key(tags):
        return tags

    def _has(self, key):
        return key in self._posts

    def _put(self, key, data, _tags=None):
        self._posts[key] = data

    _rewrite = _put

    def _get(self, key):
        return self._posts.get(key)

    def _drop(self, key):
        del self._posts[key]

    def _all(self):
        return list(self._posts.keys())


class DirectoryBackend(_BackendBase):
    """Durable backend: root/<digest>/object.bin + meta.txt per post.

    meta.txt is the ordered hashtags, one per line; the digest is
    SHA-256 over the newline-joined ordered sequence, so distinct
    orderings land in distinct directories.  A post's directory is
    derived from its address, never indexed, so every handle on one root
    sees the same posts.  A query's key is that directory, digested once.
    meta.txt is written last and removed first: a post exists exactly
    while it is there.
    """

    OBJECT = "object.bin"
    META = "meta.txt"

    def __init__(self, root):
        self._root = os.fspath(root)  # root may be a str or a Path
        os.makedirs(self._root, exist_ok=True)

    @staticmethod
    def _digest(tags: Hashtags) -> str:
        return hashlib.sha256("\n".join(tags).encode("utf-8")).hexdigest()

    def _key(self, tags: Hashtags) -> str:
        return f"{self._root}/{self._digest(tags)}"

    def _has(self, post_dir):
        return os.path.isfile(f"{post_dir}/{self.META}")

    def _write_object(self, post_dir: str, data: bytes) -> None:
        """object.bin's one writer: a temp file renamed over it, so a crash
        leaves the old bytes or the new ones, never a mix."""
        tmp = f"{post_dir}/.object-{os.urandom(16).hex()}"
        try:
            _write_file(tmp, data)
            os.replace(tmp, f"{post_dir}/{self.OBJECT}")
        except BaseException:
            with suppress(FileNotFoundError):
                os.remove(tmp)
            raise

    def _put(self, post_dir, data, tags):
        # a directory left by a post that crashed before its meta.txt is reused
        with suppress(FileExistsError):
            os.mkdir(post_dir)
        self._write_object(post_dir, data)
        _write_file(f"{post_dir}/{self.META}", ("\n".join(tags) + "\n").encode("utf-8"))

    def _get(self, post_dir):
        if not self._has(post_dir):  # a post exists while its meta.txt does
            return None
        try:
            fd, chunks = os.open(f"{post_dir}/{self.OBJECT}", os.O_RDONLY), []
        except FileNotFoundError:  # a meta.txt without its object holds no post to read
            return None
        try:  # a short read is not the end of the file; an empty one is
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
        finally:
            os.close(fd)
        return b"".join(chunks)

    _rewrite = _write_object

    def _drop(self, post_dir):
        os.remove(f"{post_dir}/{self.META}")
        shutil.rmtree(post_dir)

    def _all(self):
        out = []
        for name in os.listdir(self._root):
            meta = f"{self._root}/{name}/{self.META}"
            if not os.path.isfile(meta):
                continue
            with open(meta, encoding="utf-8") as text:
                lines = text.read().splitlines()
            # meta.txt written by earlier versions ends in a timestamp line
            tags = tuple(line for line in lines if line.startswith("#"))
            if tags:
                out.append(tags)
        return out


def open_backend(spec: str) -> _BackendBase:
    """The backend a command-line spec names: "memory" or "dir:<path>"."""
    if spec == "memory":
        return MemoryBackend()
    if spec.startswith("dir:") and len(spec) > len("dir:"):
        return DirectoryBackend(spec[len("dir:"):])
    raise ValueError(f"unknown backend spec {spec!r}")
