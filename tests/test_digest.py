"""One digest of what a disc writes, per mode (ROADMAP item 20).

A fixed-seed script runs in each mode on both backends: format, then
puts, gets, edits and rms of a few names (some of which fail, as a put
of a live name or an rm of none does), two reopens, and a put too large
for the address space, which stalls.  Three SHA-256 digests are pinned
per mode:

- `CONTENT`: after every step, its outcome (the error's type name, or
  "ok" and the bytes a get read), the document file's text, and every
  live post's address and bytes in address order;
- `QUERIES`: after every step, the backend's query counts by verb;
- `COSTS`: after every step, the paper's tradeoff columns as counted
  work: the session's allocation and replay hashes, the bytes of each
  document text handed to `write_superblock` (an append marked "+"),
  counted by a wrapper of the disc's writer and never read from the
  file's size, and the bytes of each cover posted.

Both backends must give the same digests.  A change that claims no
behaviour change leaves all three alone; a change to a format, or one
that cuts traffic, updates the digest it moves and says why.  The script
is built from `random.Random`, not hypothesis, so no library version can
move it.
"""

import hashlib
import random

import pytest

import stegdisc.disc
from conftest import FaultInjector
from stegdisc.disc import Disc, DiscConfig
from stegdisc.errors import AllocationStall, StegDiscError
from stegdisc.osn import DirectoryBackend, MemoryBackend


def _script(seed=20):
    """(verb, name, contents) steps.  A live name mostly gets a get, an
    edit or an rm, and a free one a put; one step in eight does the
    opposite, which fails.  n=4 leaves 22 or 23 free addresses, so the
    final 25-block put stalls in every mode."""
    rng = random.Random(seed)
    steps, live = [], set()
    for index in range(60):
        name = rng.choice("abcdef")
        if (name in live) == (rng.random() < 0.875):
            verb = rng.choice(["get", "edit", "rm"])
        else:
            verb = "put"
        if verb == "put":
            live.add(name)
        elif verb == "rm":
            live.discard(name)
        steps.append((verb, name, rng.randbytes(rng.randrange(0, 41))))
        if index in (20, 40):
            steps.append(("reopen", "", b""))
    return [*steps, ("put", "big", bytes(range(200))), ("reopen", "", b"")]


SCRIPT = _script()

CONTENT = {
    "A": "bd512e85da1f2f597cd1921f723e697e7d7927622da2a3679c76fe4ab8cba694",
    "B": "4b7975bdecf8e63e56105dfee654637583e6c1e9af60c2ef5b325de6f72fb03b",
    "C": "cc879e7731bc76e1f3bb5611f6645f164dac89217a1a34a937760ab613bee0b8",
}
QUERIES = {
    "A": "20806b15f1226ecd7ef51df9772c926873d70bf3712fdc4427b007e4c8e02c90",
    "B": "8838c6c0131b0b235b959f602cafdd40a606c72071e32d14b3ed981295623443",
    "C": "d1298ec7240b36e5f462a329d20faad4c01f6df30bcc4a61efb341de6db67cb0",
}
COSTS = {
    "A": "db17b28e6d1946af905305d6568e555144340137b8f42829e5595a47100f3d9c",
    "B": "1e0d6b10f3f1dd89063dd3dbcf5520181f07bba5a079f7c4060dcdd744726b5b",
    "C": "fb33a1bec011082a0c2c144f6fb051db2c1875815c3e6965cd9c4050e12abc9f",
}


def _digests(mode, backend, doc, monkeypatch):
    """The (content, queries, costs) hex digests of SCRIPT run in `mode`,
    and each step's outcome."""
    content, queries, costs = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    written, posted = [], []

    def count_write(path, text, append=False, write=stegdisc.disc.write_superblock):
        written.append(f"{'+' if append else ''}{len(text.encode('utf-8'))}")
        write(path, text, append)

    def count_post(data, hashtags, post=backend.post):
        posted.append(len(data))
        post(data, hashtags)

    monkeypatch.setattr(stegdisc.disc, "write_superblock", count_write)
    backend.post = count_post
    counted = FaultInjector(backend)
    config = DiscConfig.create(n=4, p=16, m=8, mode=mode, disc_id="digest")
    disc = Disc.format(config, counted, doc_path=doc)
    outcomes = []
    for verb, name, blob in [("format", "", b""), *SCRIPT]:
        read = b""
        try:
            if verb == "put":
                disc.write_file(name, blob)
            elif verb == "get":
                read = disc.read_file(name)
            elif verb == "edit":
                disc.modify_file(name, blob)
            elif verb == "rm":
                disc.delete_file(name)
            elif verb == "reopen":
                disc = Disc.open(doc, counted)
            outcome = "ok"
        except StegDiscError as exc:
            outcome = type(exc).__name__
        outcomes.append(outcome)
        content.update(f"{verb} {name} {outcome} {len(read)}\n".encode() + read)
        content.update(doc.read_bytes())
        for tags in sorted(backend.live_addresses()):
            post = backend.fetch(tags)
            content.update(f"{' '.join(tags)} {len(post)}\n".encode() + post)
        queries.update(f"{sorted(counted.counts.items())}\n".encode())
        costs.update(f"{disc.hash_iterations} {disc.replay_iterations} {written} {posted}\n".encode())
        written.clear()
        posted.clear()
    monkeypatch.undo()
    assert disc.fsck().ok
    return content.hexdigest(), queries.hexdigest(), costs.hexdigest(), outcomes


@pytest.mark.parametrize("mode", ["A", "B", "C"])
def test_one_script_digest(mode, tmp_path, monkeypatch):
    memory = _digests(mode, MemoryBackend(), tmp_path / "memory.txt", monkeypatch)
    directory = _digests(mode, DirectoryBackend(tmp_path / "store"), tmp_path / "dir.txt", monkeypatch)
    assert memory == directory
    content, queries, costs, outcomes = memory
    assert outcomes[-2] == AllocationStall.__name__
    assert {"NameExists", "FileNotFound"} <= set(outcomes)
    assert (content, queries, costs) == (CONTENT[mode], QUERIES[mode], COSTS[mode])
