"""One digest of what a disc writes, per mode (ROADMAP item 20).

A fixed-seed script runs in each mode on both backends: format, then
puts, gets, edits and rms of a few names (some of which fail, as a put
of a live name or an rm of none does), two reopens, and a put too large
for the address space, which stalls.  Two SHA-256 digests are pinned per
mode:

- `CONTENT`: after every step, its outcome (the error's type name, or
  "ok" and the bytes a get read), the document file's text, and every
  live post's address and bytes in address order;
- `QUERIES`: after every step, the backend's query counts by verb.

Both backends must give the same digests.  A change that claims no
behaviour change leaves both alone; a change to a format, or one that
cuts traffic, updates the digest it moves and says why.  The script is
built from `random.Random`, not hypothesis, so no library version can
move it.
"""

import hashlib
import random

import pytest

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
    "A": "618f2057b284d7d407b1fdbfe3d4b24970f52418c4ce21919b4c34fb9106c7bd",
    "B": "0326e30c7b0e83971e500b3cf3652c29a67782645c51337b11610d8e40a08a90",
    "C": "06d157f5f172c7f5812e732d35bc48b367a06c4a8a460672683d582dd1a2ca3b",
}
QUERIES = {
    "A": "8925652590fa098d67bfe9a4d9853e5ad7581207b79dd649edc59e3b6f64ffd1",
    "B": "6a659b16e85e249364e87881e03b1bcd48ac901038af02ba5d3479a366a2bc60",
    "C": "5c75bcd7863eab936594a2d50fcb0b0caa4a532c4ea23486beecb10e710becc4",
}


def _digests(mode, backend, doc):
    """The (content, queries) hex digests of SCRIPT run in `mode`, and
    each step's outcome."""
    content, queries = hashlib.sha256(), hashlib.sha256()
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
    assert disc.fsck().ok
    return content.hexdigest(), queries.hexdigest(), outcomes


@pytest.mark.parametrize("mode", ["A", "B", "C"])
def test_one_script_digest(mode, tmp_path):
    memory = _digests(mode, MemoryBackend(), tmp_path / "memory.txt")
    directory = _digests(mode, DirectoryBackend(tmp_path / "store"), tmp_path / "dir.txt")
    assert memory == directory
    content, queries, outcomes = memory
    assert outcomes[-2] == AllocationStall.__name__
    assert {"NameExists", "FileNotFound"} <= set(outcomes)
    assert (content, queries) == (CONTENT[mode], QUERIES[mode])
