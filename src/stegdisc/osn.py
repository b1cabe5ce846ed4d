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
rewrite replaces the object file whole.  Its paths are plain strings, as
a chain walk pays a query's cost per block.  Every query passes one
admission path: tag check, then a transient-failure draw.  The draw's
rate and seed are constructor arguments of either backend, for
resilience tests; the rate defaults to 0, which never fails.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
from pathlib import Path

from .errors import BackendUnavailable, DuplicateAddress, NotFound

Hashtags = tuple[str, ...]

_UNTAGGED = object()  # the sequence of a query that names no address


def _check_hashtags(hashtags) -> Hashtags:
    tags = tuple(hashtags)
    if not tags or len(set(tags)) != len(tags):
        raise ValueError(f"hashtag sequence must be non-empty and distinct: {tags!r}")
    for tag in tags:
        if not tag.startswith("#"):
            raise ValueError(f"not a hashtag: {tag!r}")
    return tags


class _BackendBase:
    """Shared plumbing: admission and failure injection.  Subclasses define
    the storage primitives `_has`, `_put`, `_get`, `_rewrite`, `_drop`, `_all`."""

    def __init__(self, failure_rate: float = 0.0, failure_seed: int = 0):
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError(f"failure_rate {failure_rate} not in [0, 1]")
        self.failure_rate = failure_rate  # probability of a transient failure per query
        self._chaos = random.Random(failure_seed)

    def _query(self, hashtags=_UNTAGGED) -> Hashtags:
        """Admit one query: check its tags, then draw the injected failure; returns the tags."""
        tags = () if hashtags is _UNTAGGED else _check_hashtags(hashtags)
        if self.failure_rate and self._chaos.random() < self.failure_rate:
            raise BackendUnavailable("injected transient failure")
        return tags

    def _present(self, tags: Hashtags) -> None:
        if not self._has(tags):
            raise NotFound(f"no post at {' '.join(tags)}")

    # -- interface -------------------------------------------------------

    def post(self, data: bytes, hashtags) -> None:
        tags = self._query(hashtags)
        if self._has(tags):
            raise DuplicateAddress(f"address occupied: {' '.join(tags)}")
        self._put(tags, bytes(data))

    def exists(self, hashtags) -> bool:
        return self._has(self._query(hashtags))

    def fetch(self, hashtags) -> bytes:
        tags = self._query(hashtags)
        self._present(tags)
        return self._get(tags)

    def replace(self, hashtags, data: bytes) -> None:
        tags = self._query(hashtags)
        self._present(tags)
        self._rewrite(tags, bytes(data))

    def remove(self, hashtags) -> None:
        tags = self._query(hashtags)
        self._present(tags)
        self._drop(tags)

    def live_addresses(self) -> list[Hashtags]:
        """All occupied ordered sequences (test/inspection helper)."""
        self._query()
        return self._all()


class MemoryBackend(_BackendBase):
    """Volatile backend; the default for tests and benchmarks.  It keeps
    each address's object bytes."""

    def __init__(self, failure_rate: float = 0.0, failure_seed: int = 0):
        super().__init__(failure_rate, failure_seed)
        self._posts: dict[Hashtags, bytes] = {}

    def _has(self, tags):
        return tags in self._posts

    def _put(self, tags, data):
        self._posts[tags] = data

    _rewrite = _put

    def _get(self, tags):
        return self._posts[tags]

    def _drop(self, tags):
        del self._posts[tags]

    def _all(self):
        return list(self._posts.keys())


class DirectoryBackend(_BackendBase):
    """Durable backend: root/<digest>/object.bin + meta.txt per post.

    meta.txt is the ordered hashtags, one per line; the digest is
    SHA-256 over the newline-joined ordered sequence, so distinct
    orderings land in distinct directories.  A post's directory is
    derived from its address, never indexed, so every handle on one root
    sees the same posts.  meta.txt is written last and removed first: a
    post exists exactly while it is there.
    """

    OBJECT = "object.bin"
    META = "meta.txt"

    def __init__(self, root, failure_rate: float = 0.0, failure_seed: int = 0):
        super().__init__(failure_rate, failure_seed)
        self._root = str(Path(root))  # root may be a str or a Path
        os.makedirs(self._root, exist_ok=True)

    @staticmethod
    def _digest(tags: Hashtags) -> str:
        return hashlib.sha256("\n".join(tags).encode("utf-8")).hexdigest()

    def _dir(self, tags: Hashtags) -> str:
        return f"{self._root}/{self._digest(tags)}"

    def _has(self, tags):
        return os.path.isfile(f"{self._dir(tags)}/{self.META}")

    def _write_object(self, post_dir: str, data: bytes) -> None:
        """object.bin's one writer: a temp file renamed over it, so a crash
        leaves the old bytes or the new ones, never a mix."""
        tmp = f"{post_dir}/.object-{os.urandom(16).hex()}"
        try:
            with open(tmp, "wb") as out:
                out.write(data)
            os.replace(tmp, f"{post_dir}/{self.OBJECT}")
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise

    def _put(self, tags, data):
        # a directory left by a post that crashed before its meta.txt is reused
        post_dir = self._dir(tags)
        os.makedirs(post_dir, exist_ok=True)
        self._write_object(post_dir, data)
        with open(f"{post_dir}/{self.META}", "w", encoding="utf-8") as out:
            out.write("\n".join(tags) + "\n")

    def _get(self, tags):
        with open(f"{self._dir(tags)}/{self.OBJECT}", "rb") as obj:
            return obj.read()

    def _rewrite(self, tags, data):
        self._write_object(self._dir(tags), data)

    def _drop(self, tags):
        post_dir = self._dir(tags)
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
