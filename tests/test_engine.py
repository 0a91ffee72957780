import math
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    chain_arm,
    diamond_arm,
    nested_tree_lattice,
    random_layered_lattice,
)
from reference_kernel import reference_trial
from scoutnet import oracle
from scoutnet.engine import (
    DetectorRecord,
    Mode,
    RibState,
    backpropagate,
    close_detector,
    lottery_select,
    next_phase,
    prepare,
    propagate_scouts,
    run_trial,
    trial_winner,
)
from scoutnet.errors import DarkTrialError, PathBudgetError, ProtocolOrderError
from scoutnet.lattice import (
    Lattice,
    Node,
    NodeKind,
    build_grid,
    build_intensity_star,
    build_star,
    build_two_path,
)
from scoutnet.rng import derive_trial_seed

TWO_PI = 2 * math.pi


class TestNextPhase:
    @pytest.mark.parametrize(
        "phi,length,lam,expected",
        [
            (0.0, 1.0, 1.0, 0.0),
            (0.0, 0.5, 1.0, math.pi),
            (3 * math.pi / 2, 0.75, 1.0, math.pi),
        ],
    )
    def test_rotation_examples(self, phi, length, lam, expected):
        assert next_phase(phi, length, lam) == pytest.approx(expected, abs=1e-12)

    @given(
        phi=st.floats(min_value=0, max_value=TWO_PI, exclude_max=True),
        length=st.floats(min_value=1e-3, max_value=100),
        lam=st.floats(min_value=1e-3, max_value=10),
    )
    @settings(max_examples=100, deadline=None)
    def test_result_in_range(self, phi, length, lam):
        out = next_phase(phi, length, lam)
        assert 0.0 <= out < TWO_PI


class TestPropagateScouts:
    def test_equal_two_path_phases(self):
        lat = build_two_path(2.0, 2.0, 2)
        report = propagate_scouts(lat)
        assert report.arrival_phases[lat.detectors[0]] == pytest.approx((0.0, 0.0))

    def test_half_wave_two_path_phases(self):
        lat = build_two_path(2.0, 2.5, 2)
        phases = sorted(propagate_scouts(lat).arrival_phases[lat.detectors[0]])
        assert phases == pytest.approx([0.0, math.pi], abs=1e-9)

    def test_grid_corner_six_arrivals(self):
        lat = build_grid(3, 3, "corner")
        report = propagate_scouts(lat)
        assert len(report.arrival_phases[lat.detectors[0]]) == 6

    def test_budget_exceeded(self):
        lat = build_grid(5, 5, "corner")
        with pytest.raises(PathBudgetError):
            propagate_scouts(lat, path_budget=5)

    def test_phase_closure_against_path_lengths(self):
        # arrival phase of every scout equals 2*pi*path_length/lambda mod 2*pi
        rng = random.Random(11)
        for _ in range(10):
            lat = random_layered_lattice(rng)
            report = propagate_scouts(lat)
            for det in lat.detectors:
                got = sorted(report.arrival_phases.get(det, ()))
                want = sorted(
                    p.phase for p in oracle.enumerate_paths(lat, det)
                )
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert abs(a - b) < 1e-9


class TestDetectorRecord:
    @pytest.mark.parametrize(
        "phases,intensity",
        [
            ((0.0, 0.0), 4.0),
            ((0.0, math.pi), 0.0),
            ((0.0, math.pi / 2), 2.0),
        ],
    )
    def test_close_fixes_intensity(self, phases, intensity):
        rec = DetectorRecord(detector=5)
        for ph in phases:
            rec.add_arrival(ph)
        close_detector(rec)
        assert rec.intensity == pytest.approx(intensity, abs=1e-12)

    def test_arrival_after_close_rejected(self):
        rec = DetectorRecord(detector=5)
        close_detector(rec)
        with pytest.raises(ProtocolOrderError, match="closed"):
            rec.add_arrival(0.0)

    def test_double_close_rejected(self):
        rec = DetectorRecord(detector=5)
        close_detector(rec)
        with pytest.raises(ProtocolOrderError, match="twice"):
            close_detector(rec)

    @given(st.lists(st.floats(min_value=0, max_value=TWO_PI), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_amplitude_bounded_by_arrivals(self, phases):
        rec = DetectorRecord(detector=0)
        for ph in phases:
            rec.add_arrival(ph)
        assert abs(rec.amplitude) <= rec.arrivals + 1e-9


class TestPrepare:
    def test_dark_detector_left_out_of_plan(self):
        nodes = [Node(0, (0.0, 0.0), NodeKind.SOURCE)]
        ribs = []
        dark = diamond_arm(nodes, ribs, 0, 0.0, y=1.0)
        live = chain_arm(nodes, ribs, 0, hops=3, y=-1.0)
        lat = Lattice(tuple(nodes), tuple(ribs), 1.0)
        plan = prepare(lat)
        assert plan.intensities[dark] == pytest.approx(0.0, abs=1e-12)
        assert plan.intensities[live] == pytest.approx(1.0)
        assert plan.live_detectors == (live,)
        assert plan.live_edges and all(dark not in edge for edge in plan.live_edges)
        for index in range(100):
            outcome = run_trial(lat, Mode.AGGREGATE, 4, index, plan=plan)
            assert outcome.winner == live

    def test_all_dark_is_an_error(self):
        with pytest.raises(DarkTrialError, match="dark trial"):
            prepare(build_two_path(2.0, 2.5, 2))


class TestLotterySelect:
    def test_zero_weight_never_wins(self):
        rng = random.Random(0)
        for _ in range(200):
            index, _, degenerate = lottery_select([2.0, 0.0], Mode.NAIVE, rng)
            assert index == 0
            assert not degenerate

    def test_equal_weights_split_evenly(self):
        rng = random.Random(1)
        wins = Counter(
            lottery_select([1.0, 1.0], Mode.NAIVE, rng)[0] for _ in range(100_000)
        )
        assert wins[0] / 100_000 == pytest.approx(0.5, abs=0.01)

    def test_aggregate_winner_inherits_total(self):
        rng = random.Random(2)
        _, carried, _ = lottery_select([1.0, 3.0], Mode.AGGREGATE, rng)
        assert carried == pytest.approx(4.0)

    def test_naive_winner_keeps_own_weight(self):
        rng = random.Random(2)
        _, carried, _ = lottery_select([1.0, 3.0], Mode.NAIVE, rng)
        assert carried in (1.0, 3.0)

    def test_all_zero_weights_degenerate_uniform(self):
        rng = random.Random(3)
        wins = Counter()
        for _ in range(20_000):
            index, _, degenerate = lottery_select([0.0, 0.0], Mode.NAIVE, rng)
            assert degenerate
            wins[index] += 1
        assert wins[0] / 20_000 == pytest.approx(0.5, abs=0.02)

    def test_empty_competitors_rejected(self):
        with pytest.raises(ValueError):
            lottery_select([], Mode.NAIVE, random.Random(0))


class TestReferenceKernel:
    """The array kernel against the frozen set-and-dict kernel, per seed."""

    @given(
        lattice_seed=st.integers(min_value=0, max_value=2**32),
        mode=st.sampled_from(list(Mode)),
        master_seed=st.integers(min_value=0, max_value=2**64 - 1),
        index=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_per_seed(self, lattice_seed, mode, master_seed, index):
        lat = random_layered_lattice(random.Random(lattice_seed))
        try:
            plan = prepare(lat)
        except DarkTrialError:
            assume(False)
        want_events: list[str] = []
        winner, path, degenerate, void = reference_trial(
            plan, mode, master_seed, index, trace=want_events.append
        )
        assert trial_winner(plan, mode, master_seed, index) == winner
        events: list[str] = []
        out = run_trial(lat, mode, master_seed, index, plan=plan, trace=events.append)
        assert (out.winner, out.surviving_path, out.degenerate_lotteries) == (
            winner,
            path,
            degenerate,
        )
        assert events[:-1] == want_events
        rng = random.Random(derive_trial_seed(master_seed, index))
        got = backpropagate(plan, mode, rng)
        assert (got[0], got[2], got[3]) == (winner, void, degenerate)


class TestRunTrial:
    def test_single_detector_always_wins(self):
        lat = build_star(1, 2, [1.0])
        out = run_trial(lat, Mode.AGGREGATE, 99, 0)
        assert out.winner == lat.detectors[0]

    def test_determinism_bit_for_bit(self):
        lat = build_intensity_star([1.0, 1.0, 2.0])
        a = run_trial(lat, Mode.AGGREGATE, 1234, 17)
        b = run_trial(lat, Mode.AGGREGATE, 1234, 17)
        assert a == b

    def test_plan_reuse_matches_fresh_run(self):
        lat, _ = nested_tree_lattice()
        plan = prepare(lat)
        for index in range(20):
            fresh = run_trial(lat, Mode.NAIVE, 5, index)
            cached = run_trial(lat, Mode.NAIVE, 5, index, plan=plan)
            assert fresh == cached

    def test_star_two_detector_born_frequencies(self):
        lat = build_intensity_star([1.0, 3.0])
        plan = prepare(lat)
        counts = Counter(
            run_trial(lat, Mode.AGGREGATE, 42, i, plan=plan).winner
            for i in range(20_000)
        )
        dets = sorted(counts)
        assert counts[dets[0]] / 20_000 == pytest.approx(0.25, abs=0.015)
        assert counts[dets[1]] / 20_000 == pytest.approx(0.75, abs=0.015)

    def test_losing_arms_are_fully_void(self):
        lat = build_star(3, 2, [1.0, 1.0, 1.0])
        out = run_trial(lat, Mode.AGGREGATE, 7, 0)
        confirmed = [r for r, s in out.rib_states.items() if s is RibState.CONFIRMED]
        void = [r for r, s in out.rib_states.items() if s is RibState.VOID]
        assert len(confirmed) == 2  # the two ribs of the winning arm
        assert len(void) == 4
        path_ribs = {
            tuple(sorted(p)) for p in zip(out.surviving_path, out.surviving_path[1:])
        }
        assert set(confirmed) == path_ribs

    def test_engine_amplitudes_match_oracle(self):
        rng = random.Random(23)
        for _ in range(10):
            lat = random_layered_lattice(rng)
            plan = prepare(lat)
            amps = oracle.lattice_amplitudes(lat)
            report = plan.scout_report
            for det in lat.detectors:
                re = sum(math.cos(p) for p in report.arrival_phases.get(det, ()))
                im = sum(math.sin(p) for p in report.arrival_phases.get(det, ()))
                assert re == pytest.approx(amps[det].real, abs=1e-9)
                assert im == pytest.approx(amps[det].imag, abs=1e-9)

    def test_winner_path_invariant_randomized(self):
        rng = random.Random(5)
        for _ in range(20):
            lat = random_layered_lattice(rng)
            plan = prepare(lat)
            for index in range(5):
                out = run_trial(lat, Mode.AGGREGATE, 100, index, plan=plan)
                assert out.surviving_path[0] == lat.source
                assert out.surviving_path[-1] == out.winner
                assert len(set(out.surviving_path)) == len(out.surviving_path)
                for u, v in zip(out.surviving_path, out.surviving_path[1:]):
                    lat.rib_between(u, v)  # raises if not adjacent

    def test_trace_log_records_protocol_events(self):
        lat = build_star(2, 1, [1.0, 1.0])
        events: list[str] = []
        run_trial(lat, Mode.AGGREGATE, 3, 0, trace=events.append)
        text = "\n".join(events)
        assert "scout" in text
        assert "lottery" in text
        assert "confirm" in text

    def test_hidden_ticks_positive_and_stable(self):
        lat = build_star(2, 3, [1.0, 1.0])
        a = run_trial(lat, Mode.AGGREGATE, 3, 0)
        b = run_trial(lat, Mode.AGGREGATE, 3, 1)
        assert a.hidden_ticks == b.hidden_ticks > 0
