"""Address generation: permutations, rank codes, and the hash stream."""

import hashlib
import random
import tracemalloc
from functools import lru_cache
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perm_to_hashtags
from stegdisc.errors import (
    AllocationStall,
    CodeOutOfRange,
    ConfigInvalid,
    CounterOverflow,
    InvalidCounter,
    NotAPermutation,
)
from stegdisc.steghash import (
    CheckpointLadder,
    HashtagAlphabet,
    ReplayCursor,
    SamplerState,
    allocate_address,
    default_stall_limit,
    rank,
    sampler_advance,
    sampler_replay,
    unrank,
)


def oracle_stream(seed, count):
    """Independent transcription of the generation loop, kept deliberately
    separate from the library: comma-joined decimals reseed the input, the
    per-iteration hash input is "<current>;<i>" with i counted from 1."""
    out = []
    current = ",".join(str(v) for v in seed)
    partial = []
    i = 0
    n = len(seed)
    while len(out) < count:
        i += 1
        digest = hashlib.sha256(f"{current};{i}".encode("ascii")).digest()
        pick = int.from_bytes(digest, "big") % n
        if pick not in partial:
            partial.append(pick)
        if len(partial) == n:
            out.append((i, tuple(partial)))
            current = ",".join(str(v) for v in partial)
            partial = []
    return out


# frozen output of oracle_stream, recorded before the library existed
GOLDEN_N3 = [
    (3, (0, 2, 1)),
    (7, (1, 0, 2)),
    (17, (1, 2, 0)),
    (20, (0, 1, 2)),
    (25, (1, 2, 0)),
    (28, (0, 1, 2)),
]
GOLDEN_N5 = [
    (10, (4, 2, 0, 1, 3)),
    (22, (1, 3, 4, 2, 0)),
    (40, (2, 4, 3, 0, 1)),
]
GOLDEN_N2_SEED10 = [(2, (0, 1)), (4, (0, 1)), (7, (0, 1)), (11, (0, 1))]


def advance_many(seed, count):
    state = SamplerState.fresh(seed)
    out = []
    for _ in range(count):
        perm, counter, state = sampler_advance(state)
        out.append((counter, perm))
    return out


class TestHashtagMapping:
    def test_identity_perm(self):
        alpha = HashtagAlphabet(["#a", "#b", "#c"])
        assert perm_to_hashtags((0, 1, 2), alpha) == ("#a", "#b", "#c")

    def test_lookup(self):
        alpha = HashtagAlphabet(["#a", "#b", "#c"])
        assert perm_to_hashtags((2, 0, 1), alpha) == ("#c", "#a", "#b")

    def test_single_tag(self):
        assert perm_to_hashtags((0,), HashtagAlphabet(["#x"])) == ("#x",)

    @pytest.mark.parametrize("tags, message", [
        ([], "at least one hashtag"),
        (["#a", "b"], "bad hashtag 'b': must be #<tag>"),
        (["#a", "#"], "bad hashtag '#': must be #<tag>"),
        (["#a", "#b c"], "bad hashtag '#b c': whitespace/comma not allowed"),
        (["#a", "#b,c"], "bad hashtag '#b,c': whitespace/comma not allowed"),
        (["#a", "#b", "#a"], "pairwise distinct"),
        # characters the document reserves in its header fields
        (["#a", "#a;b"], "bad hashtag '#a;b': ';', '=' and control characters not allowed"),
        (["#a", "#a=b"], "bad hashtag '#a=b': ';', '=' and control characters not allowed"),
        (["#a", "#a\x01b"], r"bad hashtag '#a\\x01b': ';', '=' and control characters not allowed"),
    ])
    def test_alphabet_refusals(self, tags, message):
        with pytest.raises(ConfigInvalid, match=message):
            HashtagAlphabet(tags)

    def test_distinct_perms_distinct_addresses(self):
        for n in range(1, 7):
            alpha = HashtagAlphabet.default(n)
            addresses = {perm_to_hashtags(perm, alpha) for perm in permutations(range(n))}
            assert len(addresses) == factorial(n)


class TestRankUnrank:
    def test_identity_is_zero(self):
        assert rank((0, 1, 2)) == 0

    def test_reverse_is_last(self):
        assert rank((2, 1, 0)) == 5

    def test_enumeration_order(self):
        # 012, 021, 102, 120, 201, 210
        assert rank((1, 2, 0)) == 3

    def test_unrank_identity(self):
        assert unrank(0, 3) == (0, 1, 2)

    def test_unrank_mid(self):
        assert unrank(3, 3) == (1, 2, 0)

    def test_out_of_range(self):
        with pytest.raises(CodeOutOfRange):
            unrank(6, 3)
        with pytest.raises(CodeOutOfRange):
            unrank(-1, 3)

    @pytest.mark.parametrize("n", [0, -1])
    def test_unrank_needs_a_positive_n(self, n):
        with pytest.raises(NotAPermutation, match="n must be >= 1"):
            unrank(0, n)

    def test_bijection_exhaustive(self):
        # brute force against sorted enumeration for every n up to 6
        import itertools

        for n in range(1, 7):
            perms = list(itertools.permutations(range(n)))
            assert perms == sorted(perms)  # itertools emits lexicographic order
            for code, perm in enumerate(perms):
                assert rank(perm) == code
                assert unrank(code, n) == perm

    @given(st.integers(1, 10), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_bijection_random(self, n, rng):
        perm = tuple(rng.sample(range(n), n))
        assert unrank(rank(perm), n) == perm


class TestSampler:
    def test_golden_n3(self):
        assert advance_many((0, 1, 2), 6) == GOLDEN_N3

    def test_golden_n5(self):
        assert advance_many((0, 1, 2, 3, 4), 3) == GOLDEN_N5

    def test_golden_n2_nonidentity_seed(self):
        assert advance_many((1, 0), 4) == GOLDEN_N2_SEED10

    def test_matches_oracle_long(self):
        for seed in [(0, 1, 2), (2, 0, 1, 3), (0, 1, 2, 3, 4)]:
            assert advance_many(seed, 200) == oracle_stream(seed, 200)

    def test_n1_completes_every_iteration(self):
        state = SamplerState.fresh((0,))
        for expect in range(1, 6):
            perm, counter, state = sampler_advance(state)
            assert (perm, counter) == ((0,), expect)

    def test_deterministic(self):
        state = SamplerState.fresh((0, 1, 2))
        assert sampler_advance(state)[:2] == sampler_advance(state)[:2]

    def test_counters_strictly_increase(self):
        counters = [c for c, _ in advance_many((0, 1, 2, 3), 300)]
        assert all(a < b for a, b in zip(counters, counters[1:]))

    def test_emissions_are_permutations(self):
        for _, perm in advance_many((0, 1, 2, 3, 4, 5, 6, 7), 50):
            assert sorted(perm) == list(range(8))

    def test_overflow_at_limit(self):
        # first completion for n=3 needs 3 iterations; a 2-iteration budget fails
        state = SamplerState.fresh((0, 1, 2))
        with pytest.raises(CounterOverflow):
            allocate_address(state, lambda p: False, limit=2)

    def test_limit_boundary_exact(self):
        state = SamplerState.fresh((0, 1, 2))
        perm, counter, state = allocate_address(state, lambda p: False, limit=3)
        assert counter == 3
        with pytest.raises(CounterOverflow):
            allocate_address(state, lambda p: False, limit=3)


class TestReplay:
    def test_replay_equals_advance(self):
        for n in (3, 5, 8):
            seed = tuple(range(n))
            stream = advance_many(seed, 1000)
            cursor = ReplayCursor(seed)
            for counter, perm in stream:
                assert cursor.resolve(counter) == perm
            # a fresh replay per counter is the same function, just slower
            for counter, perm in stream[:5] + stream[::211]:
                assert sampler_replay(seed, counter) == perm

    def test_zero_is_null(self):
        with pytest.raises(InvalidCounter):
            sampler_replay((0, 1, 2), 0)

    def test_non_completion_point(self):
        (c1, _), = advance_many((0, 1, 2), 1)
        assert c1 == 3
        with pytest.raises(InvalidCounter):
            sampler_replay((0, 1, 2), c1 - 1)

    def test_cursor_matches_replay_any_order(self):
        seed = (0, 1, 2, 3)
        stream = advance_many(seed, 30)
        cursor = ReplayCursor(seed)
        rng = random.Random(5)
        probes = [rng.choice(stream) for _ in range(40)]
        for counter, perm in probes:
            assert cursor.resolve(counter) == perm

    def test_cursor_counts_iterations(self):
        seed = (0, 1, 2)
        stream = advance_many(seed, 5)
        cursor = ReplayCursor(seed)
        cursor.resolve(stream[-1][0])
        assert cursor.iterations == stream[-1][0]

    def test_cursor_rejects_gap_counter(self):
        cursor = ReplayCursor((0, 1, 2))
        with pytest.raises(InvalidCounter):
            cursor.resolve(4)  # stream completes at 3 then 7


LADDER_SEED = (0, 1, 2, 3)
LADDER_STREAM = advance_many(LADDER_SEED, 150)  # about 1,250 iterations
LADDER_COMPLETIONS = dict(LADDER_STREAM)
LADDER_TOP = LADDER_STREAM[-1][0]


@lru_cache(maxsize=None)
def ladder_replay(counter):
    return sampler_replay(LADDER_SEED, counter)


def walked_ladder():
    """A ladder fed by one cursor walk over the whole test stream."""
    ladder = CheckpointLadder(len(LADDER_SEED))
    ReplayCursor(LADDER_SEED, ladder).resolve(LADDER_TOP)
    return ladder


class TestCheckpointLadder:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.one_of(st.sampled_from(sorted(LADDER_COMPLETIONS)), st.integers(1, LADDER_TOP)),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_cursors_sharing_a_ladder_agree_with_replay(self, requests):
        # three cursors feed and use one ladder; requests jump forward and
        # backward, and non-completion counters must still be rejected
        ladder = CheckpointLadder(len(LADDER_SEED))
        cursors = [ReplayCursor(LADDER_SEED, ladder) for _ in range(3)]
        for which, counter in requests:
            if counter in LADDER_COMPLETIONS:
                assert cursors[which].resolve(counter) == ladder_replay(counter)
            else:
                with pytest.raises(InvalidCounter):
                    cursors[which].resolve(counter)

    def test_every_completion_walked_is_recorded(self):
        ladder = walked_ladder()
        assert len(ladder) == len(LADDER_COMPLETIONS)
        ReplayCursor(LADDER_SEED, ladder).resolve(LADDER_STREAM[70][0])  # known ground
        assert len(ladder) == len(LADDER_COMPLETIONS)

    def test_counter_on_a_checkpoint_costs_nothing(self):
        # every completion walked is a checkpoint, so every one of them
        # resolves without hashing
        ladder = walked_ladder()
        for counter in LADDER_COMPLETIONS:
            cursor = ReplayCursor(LADDER_SEED, ladder)
            assert cursor.resolve(counter) == ladder_replay(counter)
            assert cursor.iterations == 0

    def test_warm_replay_stays_within_one_bucket(self):
        # a bucket is the span between two recorded states: a warm replay
        # walks only from the highest recorded state at or below its counter
        states, state = [], SamplerState.fresh(LADDER_SEED)
        for _ in LADDER_STREAM:
            state = sampler_advance(state)[2]
            states.append(state)
        for k, state in enumerate(states):
            ladder = CheckpointLadder(len(LADDER_SEED))
            for recorded in states[9::10]:
                ladder.record(recorded)
            below = states[(k + 1) // 10 * 10 - 1].iteration if k >= 9 else 0
            cursor = ReplayCursor(LADDER_SEED, ladder)
            assert cursor.resolve(state.iteration) == ladder_replay(state.iteration)
            assert cursor.iterations == state.iteration - below
        # a counter past the walk replays from the highest recorded state
        ladder = walked_ladder()
        cursor = ReplayCursor(LADDER_SEED, ladder)
        beyond = advance_many(LADDER_SEED, len(LADDER_STREAM) + 1)[-1][0]
        assert cursor.resolve(beyond) == sampler_replay(LADDER_SEED, beyond)
        assert cursor.iterations == beyond - LADDER_TOP
        assert len(ladder) == len(LADDER_COMPLETIONS) + 1

    def test_states_offered_out_of_order_are_inserted(self):
        # a walk from an unrecorded state records out of order: each state
        # is inserted in place, a known one is not recorded twice
        states, state = [], SamplerState.fresh(LADDER_SEED)
        for _ in LADDER_STREAM:
            state = sampler_advance(state)[2]
            states.append(state)
        ladder = CheckpointLadder(len(LADDER_SEED))
        order = list(range(len(states)))
        random.Random(11).shuffle(order)
        for k in order + order[:20]:
            ladder.record(states[k])
        assert len(ladder) == len(states)
        fresh = SamplerState.fresh(LADDER_SEED)
        for k, state in enumerate(states):
            assert ladder.resume(fresh, state.iteration) == state
            assert ladder.resume(fresh, state.iteration - 1) == (states[k - 1] if k else fresh)
            cursor = ReplayCursor(LADDER_SEED, ladder)
            assert cursor.resolve(state.iteration) == ladder_replay(state.iteration)
            assert cursor.iterations == 0
        with pytest.raises(InvalidCounter):
            ReplayCursor(LADDER_SEED, ladder).resolve(states[5].iteration + 1)

    @pytest.mark.parametrize("n", [1, 256, 257, 70_000])
    def test_digits_of_any_n_round_trip(self, n):
        perm = tuple(reversed(range(n)))
        ladder = CheckpointLadder(n)
        ladder.record(SamplerState(2 * n, perm))
        ladder.record(SamplerState(n, tuple(range(n))))
        assert ladder.resume(SamplerState.fresh(range(n)), 3 * n) == SamplerState(2 * n, perm)
        assert ladder.resume(SamplerState.fresh(range(n)), n).perm == tuple(range(n))

    def test_a_state_costs_at_most_24_bytes(self):
        # traced from before the walk, so what the ladder keeps of the
        # walk's state objects counts too
        seed = tuple(range(7))
        top = advance_many(seed, 3_000)[-1][0]
        tracemalloc.start()
        try:
            ladder = CheckpointLadder(7)
            ReplayCursor(seed, ladder).resolve(top)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(ladder) == 3_000
        assert held <= 24 * len(ladder)

    @pytest.mark.parametrize("shared", [False, True], ids=["alone", "ladder"])
    def test_cursor_state_is_the_walks_completion_state(self, shared):
        # after resolve(c), wherever the cursor resumed from, its state is
        # the one a plain sampler_advance walk from the seed reaches at c
        cursor = ReplayCursor(LADDER_SEED, walked_ladder() if shared else None)
        state, walk = SamplerState.fresh(LADDER_SEED), {}
        for _ in LADDER_STREAM:
            _, counter, state = sampler_advance(state)
            walk[counter] = state
        for counter in random.Random(7).sample(sorted(walk), 60):
            cursor.resolve(counter)
            assert cursor.state == walk[counter]
            assert cursor.state.iteration == counter

    def test_allocation_checkpoints_resume_like_cursor_ones(self):
        # checkpoints recorded by a bounded allocation resume like a
        # cursor's and replay past the bound; a bounded allocation resuming
        # from a cursor's checkpoint still stops at its own bound
        limit = LADDER_STREAM[60][0]
        from_alloc = CheckpointLadder(len(LADDER_SEED))
        state = SamplerState.fresh(LADDER_SEED)
        for _ in range(61):
            _, _, state = allocate_address(state, lambda p: False, ladder=from_alloc, limit=limit)
        from_cursor = CheckpointLadder(len(LADDER_SEED))
        ReplayCursor(LADDER_SEED, from_cursor).resolve(limit)
        fresh = SamplerState.fresh(LADDER_SEED)
        for counter in LADDER_COMPLETIONS:
            assert from_alloc.resume(fresh, counter) == from_cursor.resume(fresh, counter)
        cursor = ReplayCursor(LADDER_SEED, from_alloc)
        assert cursor.resolve(LADDER_TOP) == ladder_replay(LADDER_TOP)  # past the bound
        bounded = from_cursor.resume(fresh, limit)
        assert bounded.iteration > 0
        with pytest.raises(CounterOverflow):
            while True:
                _, _, bounded = allocate_address(bounded, lambda p: False, limit=limit)


class TestAllocate:
    def test_no_rejection_matches_advance(self):
        state = SamplerState.fresh((0, 1, 2))
        assert allocate_address(state, lambda p: False) == sampler_advance(state)

    def test_skips_occupied(self):
        state = SamplerState.fresh((0, 1, 2))
        p1, c1, _ = sampler_advance(state)
        _, c2_direct, _ = sampler_advance(sampler_advance(state)[2])
        perm, counter, _ = allocate_address(state, lambda p: p == p1)
        assert counter == c2_direct > c1
        assert perm != p1

    def test_stall(self):
        state = SamplerState.fresh((0, 1, 2))
        with pytest.raises(AllocationStall):
            allocate_address(state, lambda p: True)

    def test_default_stall_limit(self):
        assert default_stall_limit(3) == 60
        assert default_stall_limit(8) == 10 * factorial(8)
        assert default_stall_limit(9) == 10 ** 6

    def test_overflow_propagates(self):
        state = SamplerState.fresh((0, 1, 2))
        with pytest.raises(CounterOverflow):
            allocate_address(state, lambda p: True, limit=10)

    def test_overflow_is_not_recorded(self):
        # the completion past the bound reaches neither the ladder nor the caller
        ladder = CheckpointLadder(3)
        with pytest.raises(CounterOverflow):
            allocate_address(SamplerState.fresh((0, 1, 2)), lambda p: False, ladder=ladder, limit=2)
        assert len(ladder) == 0
