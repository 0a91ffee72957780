"""The per-trial splitmix64 streams: known answers, the lane batch against
the sequential generator, and the independence of successive draws."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pooled_chi_square
from reference_kernel import trial_stream
from scoutnet.experiments import chi_square_critical
from scoutnet.rng import TrialStream, derive_trial_seed


def test_trial_seeds_are_splitmix64_outputs():
    # Vigna's splitmix64 seeded with 0: its first three outputs
    want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert [derive_trial_seed(0, i) for i in range(3)] == want


@given(
    master_seed=st.integers(min_value=0, max_value=2**64 - 1),
    index=st.integers(min_value=0, max_value=2**64),
)
@settings(max_examples=200, deadline=None)
def test_lane_batch_equals_sequential_generator(master_seed, index):
    sequential = trial_stream(master_seed, index)
    want = [sequential.random() for _ in range(500)]
    for n in (1, 2, 39, 500):
        stream = TrialStream(master_seed, n).seek(index)
        # draw j does not depend on how many draws the batch holds
        assert [stream.random() for _ in range(n)] == want[:n]


def serial_pair_chi_square(pairs: list[tuple[float, float]]) -> tuple[float, int]:
    """Pooled Pearson statistic of ``pairs`` over an 8 x 8 grid of equal cells."""
    cells = Counter((int(8 * a), int(8 * b)) for a, b in pairs)
    law = {(i, j): 1 / 64 for i in range(8) for j in range(8)}
    return pooled_chi_square(cells, law, len(pairs))


class TestSerialPairs:
    TRIALS = 20_000

    @pytest.fixture(scope="class")
    def first_two(self) -> list[tuple[float, float]]:
        stream = TrialStream(20_241_018, 2)
        return [
            (stream.seek(i).random(), stream.random()) for i in range(self.TRIALS)
        ]

    def test_consecutive_draws_within_a_trial(self, first_two):
        statistic, dof = serial_pair_chi_square(first_two)
        assert dof == 63
        assert statistic <= chi_square_critical(dof, 1 - 1e-6), statistic

    def test_first_draws_of_consecutive_trials(self, first_two):
        firsts = [a for a, _ in first_two]
        statistic, dof = serial_pair_chi_square(list(zip(firsts[::2], firsts[1::2])))
        assert dof == 63
        assert statistic <= chi_square_critical(dof, 1 - 1e-6), statistic
