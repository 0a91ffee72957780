import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoutnet.chronometry import ClockScenario, dilation_time, queue_clock_count
from scoutnet.errors import ConfigError


def count(d_s: int, d_l: int, m: int) -> int:
    return queue_clock_count(ClockScenario(d_s, d_l, m))


def count_by_ticks(d_s: int, d_l: int, m: int) -> int:
    """The count one laser emission at a time: emissions at ticks 0, m,
    2m, ... arrive d_l ticks later, and those in (0, d_s] count."""
    n = 0
    emission = 0
    while emission + d_l <= d_s:
        if emission + d_l > 0:
            n += 1
        emission += m
    return n


class TestQueueClock:
    @pytest.mark.parametrize(
        "d_s,d_l,m,expected",
        [
            (10, 1, 1, 10),
            (5, 1, 2, 3),
            (1, 2, 1, 0),
        ],
    )
    def test_counting_examples(self, d_s, d_l, m, expected):
        assert count(d_s, d_l, m) == expected

    @given(d_s=st.integers(min_value=1, max_value=500))
    @settings(max_examples=60, deadline=None)
    def test_linearity_at_unit_cadence(self, d_s):
        # adjacent laser, one emission per tick: the count IS the distance
        assert count(d_s, 1, 1) == d_s

    @given(
        d_s=st.integers(min_value=1, max_value=200),
        d_l=st.integers(min_value=1, max_value=50),
        m=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=80, deadline=None)
    def test_closed_form(self, d_s, d_l, m):
        expected = (d_s - d_l) // m + 1 if d_s >= d_l else 0
        assert count(d_s, d_l, m) == expected

    @given(
        d_s=st.integers(min_value=1, max_value=100),
        d_l=st.integers(min_value=1, max_value=20),
        m=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotonicity(self, d_s, d_l, m):
        assert count(d_s + 1, d_l, m) >= count(d_s, d_l, m)
        assert count(d_s, d_l, m + 1) <= count(d_s, d_l, m)

    def test_closed_form_matches_the_emission_loop(self):
        for d_s in range(1, 60):
            for d_l in range(1, 30):
                for m in range(1, 12):
                    assert count(d_s, d_l, m) == count_by_ticks(d_s, d_l, m)

    def test_far_source_counts_at_once(self):
        # one loop turn per emission would take days here
        assert count(10**12, 1, 1) == 10**12
        assert count(10**12, 7, 3) == (10**12 - 7) // 3 + 1

    def test_invalid_scenario_rejected(self):
        with pytest.raises(ConfigError):
            ClockScenario(0, 1, 1)
        with pytest.raises(ConfigError):
            ClockScenario(1, 1, 0)


class TestDilation:
    @pytest.mark.parametrize(
        "tau,v,expected",
        [
            (1.0, 0.0, 1.0),
            (1.0, 0.6, 1.25),
            (2.0, 0.8, 10.0 / 3.0),
        ],
    )
    def test_factor_examples(self, tau, v, expected):
        assert dilation_time(tau, v) == pytest.approx(expected, abs=1e-12)

    @given(
        tau=st.floats(min_value=1e-3, max_value=1e3),
        v=st.floats(min_value=0.0, max_value=0.99),
    )
    @settings(max_examples=100, deadline=None)
    def test_inverse_identity(self, tau, v):
        assert dilation_time(tau, v) * math.sqrt(1 - v * v) == pytest.approx(
            tau, rel=1e-12
        )

    @pytest.mark.parametrize("v", [1.0, 1.5, -0.1])
    def test_invalid_speed_rejected(self, v):
        with pytest.raises(ConfigError):
            dilation_time(1.0, v)

    def test_invalid_tau_rejected(self):
        with pytest.raises(ConfigError):
            dilation_time(0.0, 0.5)
