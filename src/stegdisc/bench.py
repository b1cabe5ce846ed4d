"""Space-time tradeoff benchmark.

Runs the same scripted workload (write a batch of one-block files, read
them all back in order, delete a few) against a fresh in-memory backend
and the default bitmap covers for each addressing mode and batch size,
and reports what each mode pays for it: bytes of local persistent
state, hash iterations spent allocating, replay iterations per read,
and wall time.

Replay per read is measured twice.  The paper's column reads each file
on a fresh session, as every one-shot CLI `get` does: mode C then
replays the stream from the seed.  The warm column reads on the session
that wrote the files, whose mode C ladder keeps every stream state the
writes walked, so a warm read replays no hash.
"""

from __future__ import annotations

import random
import time
from typing import NamedTuple, Sequence

from .disc import Disc
from .document import MODES, DiscConfig, Document
from .errors import UsageError
from .osn import MemoryBackend


class BenchmarkRow(NamedTuple):
    mode: str
    blocks: int
    persistent_bytes: int  # whole superblock+catalog document
    state_bytes: int  # document minus the catalog lines
    dictionary_bytes: int  # mode A used-address line
    hash_iterations: int  # hashes of the write phase's committed allocations
    write_seconds: float
    read_seconds: float  # warm reads
    per_read_iterations: Sequence[int] = ()  # fresh session per read
    warm_per_read_iterations: Sequence[int] = ()  # the writing session


def run_benchmark(
    block_counts=(10, 100),
    modes=MODES,
    n: int = 5,
    p: int = 24,
    m: int = 8,
    seed: int = 7,
) -> list[BenchmarkRow]:
    """One row per (mode, block count), in the given order.

    Files are one block each, so block count equals file count and the
    k-th read resolves the k-th highest counters; per_read_iterations
    then directly exposes how read cost scales with counter magnitude.
    """
    block_counts = tuple(block_counts)
    modes = tuple(modes)
    if not block_counts or any(not isinstance(c, int) or c < 1 for c in block_counts):
        raise UsageError(f"block counts must be positive integers: {block_counts!r}")
    if not modes or any(mode not in MODES for mode in modes):
        raise UsageError(f"modes must come from {MODES}: {modes!r}")

    rows = []
    for mode in modes:
        for count in block_counts:
            rows.append(_run_one(mode, count, n, p, m, seed))
    return rows


def _run_one(mode: str, count: int, n: int, p: int, m: int, seed: int) -> BenchmarkRow:
    rng = random.Random(seed)
    backend = MemoryBackend()
    config = DiscConfig.create(n=n, p=p, m=m, mode=mode, disc_id=f"bench-{mode}-{count}")
    disc = Disc.format(config, backend)

    names = [f"blk{i:05d}" for i in range(count)]
    payloads = {name: rng.randbytes(m) for name in names}

    start = time.perf_counter()
    for name in names:
        disc.write_file(name, payloads[name])
    write_seconds = time.perf_counter() - start
    written = disc.stats()

    warm = []
    read_seconds = 0.0
    for name in names:
        before = disc.replay_iterations
        start = time.perf_counter()
        data = disc.read_file(name)
        read_seconds += time.perf_counter() - start
        warm.append(disc.replay_iterations - before)
        if data != payloads[name]:
            raise AssertionError(f"benchmark read mismatch for {name}")

    cold = []
    catalog = dict(disc.document.entries)
    for name in names:
        session = Disc(Document(config, catalog), backend)
        if session.read_file(name) != payloads[name]:
            raise AssertionError(f"benchmark cold read mismatch for {name}")
        cold.append(session.replay_iterations)

    # finish the script: drop a couple of files, disc must stay consistent
    for name in names[:: max(1, count // 3)]:
        disc.delete_file(name)

    return BenchmarkRow(
        mode=mode,
        blocks=count,
        persistent_bytes=written.persistent_bytes,
        state_bytes=written.persistent_bytes - written.catalog_bytes,
        dictionary_bytes=written.dictionary_bytes,
        hash_iterations=written.hash_iterations,
        write_seconds=write_seconds,
        read_seconds=read_seconds,
        per_read_iterations=cold,
        warm_per_read_iterations=warm,
    )


def rows_as_dicts(rows) -> list[dict]:
    return [row._asdict() for row in rows]


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def format_table(rows) -> str:
    """One line per row; `cold/rd` and `warm/rd` are mean replay hashes per read."""
    header = (
        f"{'mode':<5}{'blocks':>7}{'state B':>9}{'dict B':>8}{'hashes':>9}"
        f"{'cold/rd':>9}{'warm/rd':>9}{'write s':>9}{'read s':>9}"
    )
    lines = [header]
    for row in rows:
        lines.append(
            f"{row.mode:<5}{row.blocks:>7}{row.state_bytes:>9}{row.dictionary_bytes:>8}"
            f"{row.hash_iterations:>9}{_mean(row.per_read_iterations):>9.1f}"
            f"{_mean(row.warm_per_read_iterations):>9.1f}"
            f"{row.write_seconds:>9.3f}{row.read_seconds:>9.3f}"
        )
    return "\n".join(lines)
