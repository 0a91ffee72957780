"""The per-trial splitmix64 streams: known answers, the blocks of trials
and the first-word counts against the sequential generator, and the
independence of successive draws."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pooled_chi_square
from reference_kernel import trial_stream
from scoutnet.experiments import chi_square_critical
from scoutnet.rng import (
    BLOCK_DRAWS,
    MAX_TRIALS,
    MIN_TRIALS,
    block_trials,
    count_first_words,
    trial_blocks,
)


def test_trial_seeds_are_splitmix64_outputs():
    # Vigna's splitmix64 seeded with 0: its first three outputs are the
    # states that trials 0, 1 and 2 of master seed 0 start from
    want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert [trial_stream(0, i).state for i in range(3)] == want


@given(
    master_seed=st.integers(min_value=0, max_value=2**64 - 1),
    start=st.integers(min_value=0, max_value=2**64),
    n=st.sampled_from(
        [
            *(0, 1, 2, 39, 33, 1025),
            # the edges of the block rule: the last n the lane limit caps,
            # the first it does not, and the first the floor sets
            BLOCK_DRAWS // MAX_TRIALS,
            BLOCK_DRAWS // MAX_TRIALS + 1,
            BLOCK_DRAWS // MIN_TRIALS + 1,
        ]
    ),
    extra=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=100, deadline=None)
def test_lane_batch_equals_sequential_generator(master_seed, start, n, extra):
    # a span that crosses two block boundaries and ends in a short block
    # of ``extra`` trials: up to BLOCK_DRAWS // MAX_TRIALS draws, the lane
    # limit holds a block at MAX_TRIALS trials; past BLOCK_DRAWS //
    # MIN_TRIALS draws the floor holds it at MIN_TRIALS
    block = block_trials(n)
    stop = start + 2 * block + extra
    index = start
    sizes = []
    for words, trials in trial_blocks(master_seed, n, start, stop):
        # the blocks cover the span exactly: none computes a trial past it
        assert trials <= block
        assert len(words) == n * trials
        sizes.append(trials)
        for t in range(trials):
            sequential = trial_stream(master_seed, index)
            # draw j does not depend on how many draws a trial holds, nor
            # on the block it falls in; the block holds n draws per trial,
            # each the top 53 bits of the sequential word
            want = [sequential.next_word() >> 11 for _ in range(n)]
            assert list(words[t::trials]) == want
            index += 1
    assert sum(sizes) == stop - start
    assert index == stop


def test_one_draw_blocks_equal_sequential_generator():
    # a block of one-draw trials is one row; seeded near 2**64 so the
    # Weyl offset carries
    master_seed = 2**64 - 3
    start = 2**64 - MAX_TRIALS
    stop = start + 2 * MAX_TRIALS + 3
    index = start
    for words, trials in trial_blocks(master_seed, 1, start, stop):
        assert len(words) == trials
        streams = [trial_stream(master_seed, index + t) for t in range(trials)]
        assert list(words) == [stream.next_word() >> 11 for stream in streams]
        index += trials
    assert index == stop


class TestFirstWordCounts:
    """``count_first_words`` at the edges of its cuts, over a span that
    crosses a block boundary, ends in a shorter block and whose trial
    states wrap past 2**64."""

    SEED = 5
    START = 2**64 - 40
    STOP = START + MAX_TRIALS + 60

    @pytest.fixture(scope="class")
    def words(self) -> list[int]:
        return [
            trial_stream(self.SEED, i).next_word() >> 11
            for i in range(self.START, self.STOP)
        ]

    def count(self, cuts: list[int]) -> list[int]:
        return count_first_words(self.SEED, cuts, self.START, self.STOP)

    def test_a_cut_on_a_word_counts_it_above(self, words):
        # bisect_right: a trial whose word equals a cut lies past it, and
        # below a cut one word higher
        w = words[3]
        below = sum(x < w for x in words)
        assert self.count([w, w + 1]) == [below, 1, len(words) - below - 1]

    def test_cut_zero_counts_every_trial(self, words):
        assert self.count([0]) == [0, len(words)]

    def test_cut_past_the_last_word_counts_none(self, words):
        assert self.count([2**53]) == [len(words), 0]
        assert self.count([0, 2**53]) == [0, len(words), 0]


def serial_pair_chi_square(pairs: list[tuple[int, int]]) -> tuple[float, int]:
    """Pooled Pearson statistic of ``pairs`` of 53-bit words over an 8 x 8
    grid of equal cells."""
    cells = Counter((a >> 50, b >> 50) for a, b in pairs)
    law = {(i, j): 1 / 64 for i in range(8) for j in range(8)}
    return pooled_chi_square(cells, law, len(pairs))


class TestSerialPairs:
    TRIALS = 20_000

    @pytest.fixture(scope="class")
    def first_two(self) -> list[tuple[int, int]]:
        pairs: list[tuple[int, int]] = []
        for words, trials in trial_blocks(20_241_018, 2, 0, self.TRIALS):
            pairs += zip(words[:trials], words[trials:])
        return pairs

    def test_consecutive_draws_within_a_trial(self, first_two):
        statistic, dof = serial_pair_chi_square(first_two)
        assert dof == 63
        assert statistic <= chi_square_critical(dof, 1 - 1e-6), statistic

    def test_first_draws_of_consecutive_trials(self, first_two):
        firsts = [a for a, _ in first_two]
        statistic, dof = serial_pair_chi_square(list(zip(firsts[::2], firsts[1::2])))
        assert dof == 63
        assert statistic <= chi_square_critical(dof, 1 - 1e-6), statistic
