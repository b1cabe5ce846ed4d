"""Hashtag-permutation addressing.

Every stored object is addressed by an ordered permutation of a fixed
alphabet of n hashtags, so the address space has n! elements.  Addresses
are produced by a deterministic SHA-256 rejection sampler: replaying the
stream from a seed permutation for a known number of iterations
regenerates any address, which is what lets the disc store a small
counter instead of a dictionary.  Lexicographic rank/unrank maps
permutations to integer codes in [0, n!-1] on demand, never
materializing the dictionary.
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_left, bisect_right
from math import factorial
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import (
    AllocationStall,
    CodeOutOfRange,
    ConfigInvalid,
    CounterOverflow,
    InvalidCounter,
    NotAPermutation,
)

Perm = tuple[int, ...]


def validate_permutation(elems: Iterable[int]) -> Perm:
    """Return elems as a tuple, raising NotAPermutation unless it is a
    permutation of 0..n-1 with n >= 1."""
    perm = tuple(map(int, elems))
    n = len(perm)
    if n == 0 or sorted(perm) != list(range(n)):
        raise NotAPermutation(f"not a permutation of 0..n-1: {perm!r}")
    return perm


class HashtagAlphabet:
    """Ordered set of n distinct hashtags, fixed when the disc is formatted.

    Index i <-> tags[i] is a stable bijection; permutations of the index
    range are rendered through it to become post addresses.
    """

    def __init__(self, tags: Sequence[str]):
        tags = tuple(tags)
        if not tags:
            raise ConfigInvalid("alphabet must contain at least one hashtag")
        for tag in tags:
            if len(tag) < 2 or not tag.startswith("#"):
                raise ConfigInvalid(f"bad hashtag {tag!r}: must be #<tag>")
            if any(ch.isspace() for ch in tag) or "," in tag:
                raise ConfigInvalid(f"bad hashtag {tag!r}: whitespace/comma not allowed")
            if any(ch in ";=" or ch < " " for ch in tag):  # reserved in the document's header fields
                raise ConfigInvalid(f"bad hashtag {tag!r}: ';', '=' and control characters not allowed")
        if len(set(tags)) != len(tags):
            raise ConfigInvalid("alphabet tags must be pairwise distinct")
        self.tags = tags

    def __len__(self) -> int:
        return len(self.tags)

    @classmethod
    def default(cls, n: int) -> "HashtagAlphabet":
        """Demo alphabet #tag0..#tag{n-1}; real deployments supply their own."""
        return cls(tuple(f"#tag{i}" for i in range(n)))


# -- lexicographic rank / unrank ---------------------------------------------

def rank(perm: Sequence[int]) -> int:
    """Position of perm in the lexicographic order of all n! permutations."""
    perm = validate_permutation(perm)
    n = len(perm)
    code = 0
    for i, v in enumerate(perm):
        smaller_right = sum(1 for u in perm[i + 1:] if u < v)
        code += smaller_right * factorial(n - 1 - i)
    return code


def unrank(code: int, n: int) -> Perm:
    """Permutation of 0..n-1 at lexicographic position code."""
    if n < 1:
        raise NotAPermutation("n must be >= 1")
    place = factorial(n - 1)  # the weight of the next digit: (n-1)!, then (n-2)!, ...
    if not 0 <= code < place * n:
        raise CodeOutOfRange(f"code {code} out of range for n={n} (n! = {place * n})")
    remaining = list(range(n))
    out = []
    for i in range(n - 1, 0, -1):
        digit, code = divmod(code, place)
        out.append(remaining.pop(digit))
        place //= i
    out += remaining  # the last digit is always 0
    return tuple(out)


# -- the address sampler -------------------------------------------------------
#
# One iteration: i += 1; pick = SHA256("<perm>;<i>") as a big-endian integer,
# mod n, where <perm> is the last completed permutation (the seed before the
# first completion) as comma-joined decimals; append pick to the partial
# permutation iff unseen.  A permutation completes when the partial reaches
# length n; it becomes the next hash input, and the iteration count at that
# instant is the address's counter.  Rejected picks still consume
# iterations, so stored counters are always completion points and counter 0
# (fewer than n iterations) never denotes a real address.  The stream has no
# bound of its own: mode C's 2^p - 1 is checked by allocate_address.

class SamplerState(NamedTuple):
    """Position in the global address stream, a pure function of (seed,
    iteration): a completion counter and the permutation completed there,
    or (0, seed) before the first completion; a plain tuple, cheap to build."""

    iteration: int
    perm: Perm

    @classmethod
    def fresh(cls, seed: Sequence[int]) -> "SamplerState":
        return cls(0, validate_permutation(seed))


def sampler_advance(state: SamplerState) -> tuple[Perm, int, SamplerState]:
    """Run the stream to the next completed permutation.

    Returns (permutation, completion counter, state positioned just after
    the completion).  The hash input is built from state.perm; no bound is
    checked.
    """
    n = len(state.perm)
    current = ",".join(map(str, state.perm))
    partial: list[int] = []
    i = state.iteration
    sha = hashlib.sha256
    while True:
        i += 1
        digest = sha(f"{current};{i}".encode("ascii")).digest()
        pick = int.from_bytes(digest, "big") % n
        if pick not in partial:
            partial.append(pick)
        if len(partial) == n:
            perm = tuple(partial)
            return perm, i, SamplerState(i, perm)


# -- checkpoint ladder -----------------------------------------------------------
#
# The stream is a pure function of the seed, so any completion state seen
# by any walk is a valid place for a later walk to resume.  The ladder keeps
# them all, so a counter the session has walked past costs no hash
# (Hellman's time-memory tradeoff).  A state costs 8 + n bytes and no object;
# mode C's 2^p - 1 bounds a session's ladder, to about 14 MB at p=24, n=7.
# It lives in the session only; nothing of it is persisted.


class CheckpointLadder:
    """Every completion state offered, sorted by iteration, in two flat
    arrays: the iterations, and n permutation digits per state.  Walks start
    from the seed or from a recorded state, so record mostly appends."""

    def __init__(self, n: int):
        self._n = n
        self._iterations = array("q")
        # the narrowest unsigned type that holds the digits 0..n-1
        self._digits = array(next(t for t in "BHIQ" if n <= 1 << 8 * array(t).itemsize))

    def __len__(self) -> int:
        return len(self._iterations)

    def record(self, state: SamplerState) -> None:
        """Remember a completion state (iteration > 0), unless it is known."""
        it, keys, digits = state.iteration, self._iterations, self._digits
        if not keys or it > keys[-1]:
            keys.append(it)
            digits.extend(state.perm)
            return
        i = bisect_left(keys, it)
        if keys[i] != it:  # a state offered out of order
            keys.insert(i, it)
            digits[i * self._n: i * self._n] = array(digits.typecode, state.perm)

    def resume(self, state: SamplerState, counter: int) -> SamplerState:
        """Where a walk from `state` towards `counter` should start: the
        highest recorded state at or below counter if it is further along
        than state, else state itself."""
        keys, n = self._iterations, self._n
        i = bisect_right(keys, counter)
        if i and keys[i - 1] > state.iteration:
            return SamplerState(keys[i - 1], tuple(self._digits[(i - 1) * n: i * n]))
        return state


class ReplayCursor:
    """Walk of the address stream that resolves completion counters.

    Each resolve starts from the nearest known state at or below the
    counter: the cursor's own position, a state of the shared ladder, or
    the seed.  Every completion the walk passes is offered to the
    ladder.  Chain traversals resolve counters in increasing order, so one
    traversal costs one pass over the stream.  The result always equals
    sampler_replay(seed, counter).  `seed` is the seed permutation or its
    SamplerState.fresh(seed), which a disc's config builds once for the
    cursor each walk makes; `state` is the completion state last resolved.
    """

    def __init__(self, seed: SamplerState | Sequence[int], ladder: Optional[CheckpointLadder] = None):
        self._ladder = ladder
        self._fresh = self.state = seed if isinstance(seed, SamplerState) else SamplerState.fresh(seed)
        self.iterations = 0  # total hash evaluations consumed by this cursor

    def resolve(self, counter: int) -> Perm:
        if counter <= 0:
            raise InvalidCounter(f"counter {counter} is the NULL pointer")
        state = self.state
        if state.iteration > counter:
            state = self._fresh
        ladder = self._ladder
        if ladder is not None:
            state = ladder.resume(state, counter)
        while state.iteration < counter:
            before = state.iteration
            _, completed_at, state = sampler_advance(state)
            self.iterations += completed_at - before
            if ladder is not None:
                ladder.record(state)
        self.state = state
        if state.iteration != counter:
            raise InvalidCounter(f"counter {counter} is not a completion point")
        return state.perm


def sampler_replay(seed: Sequence[int], counter: int) -> Perm:
    """Permutation whose generation completed at exactly `counter` iterations
    of a fresh stream seeded by `seed`."""
    return ReplayCursor(seed).resolve(counter)


def default_stall_limit(n: int) -> int:
    return 10 * factorial(n) if n <= 8 else 10 ** 6


def allocate_address(
    state: SamplerState,
    occupied: Callable[[Perm], bool],
    ladder: Optional[CheckpointLadder] = None,
    limit: Optional[int] = None,
) -> tuple[Perm, int, SamplerState]:
    """Advance the stream until a permutation the predicate reports free.

    Occupied emissions are discarded but their iterations stay consumed,
    which is what lets freed addresses return to the pool later in the
    stream.  Every completion passed, occupied or not, is offered to
    `ladder`.  Raises CounterOverflow at the first completion whose counter
    passes `limit` (mode C's 2^p - 1), before it is offered or returned,
    and AllocationStall after default_stall_limit(n) consecutive occupied
    emissions (10*n! for n <= 8, else 10^6).
    """
    stall_limit = default_stall_limit(len(state.perm))
    misses = 0
    while True:
        perm, counter, state = sampler_advance(state)
        if limit is not None and counter > limit:
            raise CounterOverflow(f"iteration {counter} exceeds bound {limit}")
        if ladder is not None:
            ladder.record(state)
        if not occupied(perm):
            return perm, counter, state
        misses += 1
        if misses >= stall_limit:
            raise AllocationStall(
                f"{misses} consecutive occupied addresses (n={len(perm)})"
            )
