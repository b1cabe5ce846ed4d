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
holding the object file plus a line-oriented metadata file.  Optional
latency and failure injection exist for resilience tests and are off by
default.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import threading
import time
import uuid
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from .errors import BackendUnavailable, DuplicateAddress, NotFound

Hashtags = tuple[str, ...]


@dataclass
class Post:
    post_id: str
    hashtags: Hashtags
    data: bytes
    created_at: str  # ISO-8601


@dataclass
class BackendConfig:
    mode: str = "memory"  # "memory" | "dir"
    root: Optional[Path] = None
    latency: Optional[float] = None  # fixed per-query delay, seconds
    failure_rate: float = 0.0  # probability of a transient failure per query
    failure_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ValueError(f"failure_rate {self.failure_rate} not in [0, 1]")


def _check_hashtags(hashtags) -> Hashtags:
    tags = tuple(hashtags)
    if not tags or len(set(tags)) != len(tags):
        raise ValueError(f"hashtag sequence must be non-empty and distinct: {tags!r}")
    for tag in tags:
        if not tag.startswith("#"):
            raise ValueError(f"not a hashtag: {tag!r}")
    return tags


class _BackendBase:
    """Shared plumbing: locking, latency/failure injection."""

    def __init__(self, config: BackendConfig):
        self.config = config
        self._lock = threading.RLock()
        self._chaos = random.Random(config.failure_seed)

    def _query(self):
        # every public operation calls this once, before touching state
        if self.config.latency:
            time.sleep(self.config.latency)
        if self.config.failure_rate and self._chaos.random() < self.config.failure_rate:
            raise BackendUnavailable("injected transient failure")

    # -- interface -------------------------------------------------------

    def post(self, data: bytes, hashtags) -> str:
        tags = _check_hashtags(hashtags)
        self._query()
        with self._lock:
            if self._has(tags):
                raise DuplicateAddress(f"address occupied: {' '.join(tags)}")
            rec = Post(
                post_id=uuid.uuid4().hex,
                hashtags=tags,
                data=bytes(data),
                created_at=datetime.now(timezone.utc).isoformat(),
            )
            self._put(rec)
            return rec.post_id

    def exists(self, hashtags) -> bool:
        tags = _check_hashtags(hashtags)
        self._query()
        with self._lock:
            return self._has(tags)

    def fetch(self, hashtags) -> bytes:
        tags = _check_hashtags(hashtags)
        self._query()
        with self._lock:
            if not self._has(tags):
                raise NotFound(f"no post at {' '.join(tags)}")
            return self._get(tags)

    def replace(self, hashtags, data: bytes) -> None:
        tags = _check_hashtags(hashtags)
        self._query()
        with self._lock:
            if not self._has(tags):
                raise NotFound(f"no post at {' '.join(tags)}")
            self._rewrite(tags, bytes(data))

    def remove(self, hashtags) -> None:
        tags = _check_hashtags(hashtags)
        self._query()
        with self._lock:
            if not self._has(tags):
                raise NotFound(f"no post at {' '.join(tags)}")
            self._drop(tags)

    def live_addresses(self) -> list[Hashtags]:
        """All occupied ordered sequences (test/inspection helper)."""
        self._query()
        with self._lock:
            return self._all()

    # storage primitives, always called under the lock
    def _has(self, tags: Hashtags) -> bool:
        raise NotImplementedError

    def _put(self, rec: Post) -> None:
        raise NotImplementedError

    def _get(self, tags: Hashtags) -> bytes:
        raise NotImplementedError

    def _rewrite(self, tags: Hashtags, data: bytes) -> None:
        raise NotImplementedError

    def _drop(self, tags: Hashtags) -> None:
        raise NotImplementedError

    def _all(self) -> list[Hashtags]:
        raise NotImplementedError


class MemoryBackend(_BackendBase):
    """Volatile backend; the default for tests and benchmarks.  It keeps
    only each address's object bytes: post ids and timestamps are not
    read back."""

    def __init__(self, config: Optional[BackendConfig] = None):
        super().__init__(config or BackendConfig(mode="memory"))
        self._posts: dict[Hashtags, bytes] = {}

    def _has(self, tags):
        return tags in self._posts

    def _put(self, rec):
        self._posts[rec.hashtags] = rec.data

    def _get(self, tags):
        return self._posts[tags]

    def _rewrite(self, tags, data):
        self._posts[tags] = data

    def _drop(self, tags):
        del self._posts[tags]

    def _all(self):
        return list(self._posts.keys())


class DirectoryBackend(_BackendBase):
    """Durable backend: root/<digest>/object.bin + meta.txt per post.

    meta.txt is one hashtag per line followed by the ISO-8601 creation
    timestamp; the digest is SHA-256 over the newline-joined ordered
    sequence, so distinct orderings land in distinct directories.
    """

    OBJECT = "object.bin"
    META = "meta.txt"

    def __init__(self, root, config: Optional[BackendConfig] = None):
        cfg = config or BackendConfig(mode="dir", root=Path(root))
        super().__init__(cfg)
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._index: dict[Hashtags, Path] = {}
        self._scan()

    @staticmethod
    def _digest(tags: Hashtags) -> str:
        return hashlib.sha256("\n".join(tags).encode("utf-8")).hexdigest()

    def _scan(self):
        for entry in self.root.iterdir():
            meta = entry / self.META
            if not (entry.is_dir() and meta.is_file()):
                continue
            lines = meta.read_text(encoding="utf-8").splitlines()
            tags = tuple(line for line in lines if line.startswith("#"))
            if tags:
                self._index[tags] = entry
        return self._index

    def _has(self, tags):
        return tags in self._index

    def _put(self, rec):
        post_dir = self.root / self._digest(rec.hashtags)
        post_dir.mkdir()
        (post_dir / self.OBJECT).write_bytes(rec.data)
        meta = "\n".join(rec.hashtags) + "\n" + rec.created_at + "\n"
        (post_dir / self.META).write_text(meta, encoding="utf-8")
        self._index[rec.hashtags] = post_dir

    def _get(self, tags):
        return (self._index[tags] / self.OBJECT).read_bytes()

    def _rewrite(self, tags, data):
        (self._index[tags] / self.OBJECT).write_bytes(data)

    def _drop(self, tags):
        shutil.rmtree(self._index.pop(tags))

    def _all(self):
        return list(self._index.keys())


def open_backend(config: BackendConfig) -> _BackendBase:
    if config.mode == "memory":
        return MemoryBackend(config)
    if config.mode == "dir":
        if config.root is None:
            raise ValueError("dir backend needs a root path")
        return DirectoryBackend(config.root, config)
    raise ValueError(f"unknown backend mode {config.mode!r}")


def parse_backend_spec(spec: str) -> BackendConfig:
    """Parse "memory" or "dir:<path>" as used by the command line."""
    if spec == "memory":
        return BackendConfig(mode="memory")
    if spec.startswith("dir:"):
        path = spec[len("dir:"):]
        if not path:
            raise ValueError("dir backend spec is missing a path")
        return BackendConfig(mode="dir", root=Path(path))
    raise ValueError(f"unknown backend spec {spec!r}")
