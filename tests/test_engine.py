import math
import random
import re
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from conftest import (
    chain_arm,
    diamond_arm,
    diamond_chain,
    nested_tree_lattice,
    random_layered_lattice,
    shuffle_node_ids,
)
from reference_kernel import backpropagate as reference_backpropagate
from reference_kernel import reference_trial, trial_stream
from scoutnet import oracle
from scoutnet.engine import (
    Mode,
    RibState,
    _lottery,
    _merge,
    backpropagate,
    count_winners,
    lottery_select,
    prepare,
    propagate_scouts,
    run_trial,
)
from scoutnet.errors import DarkTrialError, PathBudgetError, ScoutnetError
from scoutnet.lattice import (
    Lattice,
    Node,
    NodeKind,
    build_grid,
    build_intensity_star,
    build_slit_grid,
    build_star,
    build_two_path,
)
from scoutnet.rng import BLOCK_DRAWS


class TestPropagateScouts:
    def test_equal_two_path_phases(self):
        lat = build_two_path(2.0, 2.0, 2)
        report = propagate_scouts(lat)
        assert report.amplitudes[lat.detectors[0]] == 2 + 0j

    def test_half_wave_two_path_phases(self):
        lat = build_two_path(2.0, 2.5, 2)
        a = propagate_scouts(lat).amplitudes[lat.detectors[0]]
        assert abs(a) ** 2 <= 1e-18

    def test_grid_corner_six_arrivals(self):
        lat = build_grid(3, 3, "corner")
        report = propagate_scouts(lat)
        assert report.amplitudes[lat.detectors[0]] == 6 + 0j

    def test_scout_counts_against_path_counts(self):
        # each rib's trace line counts the scouts that cross it, one per
        # admissible path to its tail: the counts into a detector sum to
        # its path count, and 1 (the source's scout) plus the counts into
        # void nodes is the number of fronts
        rng = random.Random(11)
        for _ in range(10):
            lat = random_layered_lattice(rng)
            events: list[str] = []
            report = propagate_scouts(lat, trace=events.append)
            arrivals: Counter = Counter()
            for line in events:
                m = re.fullmatch(
                    r"tick=\d+ scout rib=\(\d+,(\d+)\) scouts=(\d+)", line
                )
                arrivals[int(m[1])] += int(m[2])
            for det in lat.detectors:
                assert arrivals[det] == len(oracle.enumerate_paths(lat, det))
            void = [v for v in arrivals if lat.nodes[v].kind is NodeKind.VOID]
            assert 1 + sum(arrivals[v] for v in void) == report.fronts

    def test_node_ids_need_not_follow_hop_distance(self):
        # build_grid and its kin number nodes layer by layer; shuffled ids must give
        # the same sums and counts
        rng = random.Random(5)
        for _ in range(20):
            lat = random_layered_lattice(rng)
            shuffled, perm = shuffle_node_ids(lat, rng)
            want = propagate_scouts(lat)
            got = propagate_scouts(shuffled)
            assert (got.fronts, got.ticks) == (want.fronts, want.ticks)
            for det, amp in want.amplitudes.items():
                tolerance = 1e-9 * max(1.0, abs(amp))
                assert abs(got.amplitudes[perm[det]] - amp) <= tolerance


class TestPathBudgetBoundary:
    """The oracle's budget and the engine's front count, exactly.

    On a w x h corner grid every rib raises the hop distance, so node
    (i, j) is reached by C(i + j, i) admissible paths.  The oracle crosses
    one rib per path prefix, so it visits the sum of those counts over
    every node but the source: a budget equal to that sum passes, one
    less names the sum.  The engine's count starts at 1 for the source's
    front and adds one per path to a void node, so it is 1 plus the sum
    over every node but the source and the detector.
    """

    W, H = 4, 5

    @classmethod
    def prefix_counts(cls) -> list[int]:
        return [
            math.comb(i + j, i)
            for i in range(cls.W)
            for j in range(cls.H)
            if (i, j) != (0, 0)
        ]

    def test_oracle_rib_visits(self):
        lat = build_grid(self.W, self.H, "corner")
        (det,) = lat.detectors
        visits = sum(self.prefix_counts())
        assert len(oracle.enumerate_paths(lat, det, path_budget=visits)) == (
            math.comb(self.W + self.H - 2, self.W - 1)
        )
        with pytest.raises(PathBudgetError, match="path budget exceeded") as err:
            oracle.enumerate_paths(lat, det, path_budget=visits - 1)
        assert (err.value.budget, err.value.count) == (visits - 1, visits)
        assert "rib visits" in str(err.value)

    def test_engine_fronts(self):
        lat = build_grid(self.W, self.H, "corner")
        fronts = 1 + sum(self.prefix_counts()[:-1])
        assert propagate_scouts(lat).fronts == fronts


def triangular_amplitudes(lat: Lattice) -> dict[int, complex]:
    """Every detector's amplitude from ``(I - A) x = e_s``, solved by
    forward substitution.

    ``A[v, u]`` is the unit phasor of forward rib u -> v, for u the source
    or a void node.  With the nodes ordered by hop distance, A is strictly
    lower triangular.  A general sparse LU solve is not used: on a 60 x 60
    column grid, whose amplitudes span 34 orders of magnitude,
    ``scipy.sparse.linalg.spsolve`` misses the closed form by a relative
    error above 1e4.
    """
    sparse = pytest.importorskip("scipy.sparse")
    linalg = pytest.importorskip("scipy.sparse.linalg")
    dist = lat.hop_distances()
    order = sorted(dist, key=lambda u: (dist[u], u))
    index = {u: i for i, u in enumerate(order)}
    rows, cols, vals = [], [], []
    for u in order:
        if u != lat.source and lat.nodes[u].kind is not NodeKind.VOID:
            continue
        for v, idx in lat.adjacency[u]:
            if dist.get(v) == dist[u] + 1:
                phase = 2 * math.pi * lat.ribs[idx].length / lat.wavelength
                rows.append(index[v])
                cols.append(index[u])
                vals.append(-complex(math.cos(phase), math.sin(phase)))
    n = len(order)
    # the unit diagonal is implied, not stored
    matrix = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n), dtype=complex)
    rhs = [0j] * n
    rhs[index[lat.source]] = 1.0
    x = linalg.spsolve_triangular(matrix, rhs, lower=True, unit_diagonal=True)
    return {det: complex(x[index[det]]) for det in lat.detectors}


class TestRecurrenceBeyondOracle:
    """The rib-by-rib sums on lattices far past the oracle's path budget."""

    @pytest.mark.parametrize(
        "w,h", [(2, 1), (3, 5), (12, 12), (40, 40), (100, 100)]
    )
    def test_column_grid_closed_form(self, w, h):
        # unit ribs, so the path to detector (w-1, y) through void (w-2, y)
        # turns by theta on each of its w-1+y ribs; C(w-2+y, y) paths
        # reach (w-2, y)
        lat = build_grid(w, h, "column", wavelength=0.73)
        report = propagate_scouts(lat)
        theta = math.fmod(2 * math.pi / 0.73, 2 * math.pi)
        for y in range(h):
            count = math.comb(w - 2 + y, y)
            want = count * complex(
                math.cos((w - 1 + y) * theta), math.sin((w - 1 + y) * theta)
            )
            got = report.amplitudes[(w - 1) * h + y]
            assert abs(got - want) <= 1e-12 * count
        assert report.fronts == sum(
            math.comb(i + j, i) for i in range(w - 1) for j in range(h)
        )

    @pytest.mark.parametrize(
        "lat",
        [
            *(
                pytest.param(build_slit_grid(w, 9, [2, 6]), id=f"slit-{w}x9")
                for w in (3, 7, 12, 30)
            ),
            *(
                pytest.param(
                    build_grid(n, n, "column", wavelength=0.73), id=f"grid-{n}x{n}"
                )
                for n in (5, 12, 60, 100)
            ),
        ],
    )
    def test_triangular_solve(self, lat):
        want = triangular_amplitudes(lat)
        got = propagate_scouts(lat).amplitudes
        scale = max(abs(x) for x in want.values())
        for det in lat.detectors:
            assert abs(got[det] - want[det]) <= 1e-9 * scale


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
        assert plan.base_det[live] == live
        assert plan.base_det[dark] == -1
        assert plan.live_edges and all(dark not in edge for edge in plan.live_edges)
        for index in range(100):
            outcome = run_trial(lat, Mode.AGGREGATE, 4, index, plan=plan)
            assert outcome.winner == live

    def test_intensity_star_draws_only_at_the_source(self):
        lat = build_intensity_star([1.0, 1.0, 2.0])
        plan = prepare(lat)
        assert plan.draw_order == (lat.source,)
        assert len(plan.process_order) == 10
        # each arm node's query is fixed: its own arm's detector and intensity
        for u in plan.process_order:
            if u != lat.source:
                det = plan.base_det[u]
                assert det in lat.detectors
                assert plan.base_weight[u] == plan.intensities[det]
        assert plan.base_det[lat.source] == -1

    def test_intensity_star_source_competitors_are_stored(self):
        lat = build_intensity_star([1.0, 1.0, 2.0])
        plan = prepare(lat)
        kids = plan.out_live[lat.source]
        merged = _merge(kids, list(plan.base_det), list(plan.base_weight))
        dets = sorted(merged)
        (lottery,) = plan.lotteries
        assert lottery[:2] == (dets, [merged[d] for d in dets])
        assert lottery == _lottery(merged)
        assert tuple(dets) == lat.detectors
        assert lottery[1] == [plan.intensities[d] for d in dets]

    def test_slit_deep_plan_shares_lotteries(self):
        # perfbench's slit-deep screen: every node of a fully connected
        # column has the same live children, so its column shares a lottery
        lat = build_slit_grid(7, 9, (2, 6), wavelength=1.0)
        plan = prepare(lat)
        assert len(plan.draw_order) == 39
        assert len(plan.lotteries) == 6
        assert sum(lottery is not None for lottery in plan.lotteries) == 1
        assert [plan.draw_lottery.count(k) for k in range(6)] == [2, 9, 9, 9, 9, 1]
        for mode in Mode:
            want = [reference_trial(plan, mode, 77, i)[0] for i in range(500)]
            got = [count_winners(plan, mode, 77, i, i + 1) for i in range(500)]
            assert got == [{winner: 1} for winner in want]
            assert count_winners(plan, mode, 77, 0, 500) == Counter(want)

    def test_live_children_come_before_their_parents(self):
        # the plan walks the expansion order backward; on grids and on
        # shuffled ids that order is not the id order
        rng = random.Random(12)
        lattices = [build_grid(w, h, "column") for w, h in ((4, 4), (7, 5), (9, 9))]
        lattices += [
            shuffle_node_ids(random_layered_lattice(rng), rng)[0] for _ in range(30)
        ]
        off_id_order = 0
        for lat in lattices:
            try:
                plan = prepare(lat)
            except DarkTrialError:
                continue
            dist = lat.hop_distances()
            expanded = list(plan.scout_report.children)
            assert expanded == sorted(expanded, key=lambda u: (dist[u], u))
            off_id_order += expanded != sorted(expanded)
            rank = {u: i for i, u in enumerate(plan.process_order)}
            assert set(rank) == {u for u, _ in plan.live_edges}
            for u, v in plan.live_edges:
                assert rank.get(v, -1) < rank[u]
        assert off_id_order >= 20

    @pytest.mark.parametrize("diamonds", [600, 1030])
    def test_intensity_overflow_is_an_error(self, diamonds):
        # 2**600 squared overflows to inf; by 2**1030 the amplitude itself
        # overflows and turns nan, which once passed for a dark trial
        with pytest.raises(ScoutnetError, match="intensity overflow"):
            prepare(diamond_chain(diamonds))
        assert prepare(diamond_chain(3)).intensities == {10: 64.0}

    def test_all_dark_is_an_error(self):
        with pytest.raises(DarkTrialError, match="dark trial"):
            prepare(build_two_path(2.0, 2.5, 2))


class StubRandom:
    """Returns one fixed ``random()`` value."""

    def __init__(self, value: float):
        self.value = value

    def random(self) -> float:
        return self.value


def scan_index(weights, r: float) -> int:
    """The draw as a linear scan: the first i with r < acc_i, else the last."""
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    return len(weights) - 1


class TestLotterySelect:
    def test_zero_weight_never_wins(self):
        rng = random.Random(0)
        for _ in range(200):
            index, _ = lottery_select(_lottery({0: 2.0, 1: 0.0}), Mode.NAIVE, rng)
            assert index == 0

    def test_equal_weights_split_evenly(self):
        rng = random.Random(1)
        lottery = _lottery({0: 1.0, 1: 1.0})
        wins = Counter(
            lottery_select(lottery, Mode.NAIVE, rng)[0] for _ in range(100_000)
        )
        assert wins[0] / 100_000 == pytest.approx(0.5, abs=0.01)

    def test_aggregate_winner_inherits_total(self):
        rng = random.Random(2)
        _, carried = lottery_select(_lottery({0: 1.0, 1: 3.0}), Mode.AGGREGATE, rng)
        assert carried == pytest.approx(4.0)

    def test_naive_winner_keeps_own_weight(self):
        rng = random.Random(2)
        _, carried = lottery_select(_lottery({0: 1.0, 1: 3.0}), Mode.NAIVE, rng)
        assert carried in (1.0, 3.0)

    @given(
        weights=st.lists(
            st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
            min_size=1,
            max_size=8,
        ),
        data=st.data(),
    )
    def test_bisect_equals_scan(self, weights, data):
        lottery = _lottery(dict(enumerate(weights)))
        _, ranked, sums, total = lottery
        # a free draw, or one that lands r on a running sum when it can
        ratios = [s / total for s in sums if s / total < 1.0]
        value = data.draw(
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
            | st.sampled_from(ratios or [0.0])
        )
        index, _ = lottery_select(lottery, Mode.NAIVE, StubRandom(value))
        assert index == scan_index(ranked, value * total)

    def test_r_on_a_running_sum_takes_the_next_index(self):
        lottery = _lottery({0: 1.0, 1: 1.0, 2: 2.0})
        assert lottery[2:] == ([1.0, 2.0, 4.0], 4.0)
        for value, want in ((0.25, 1), (0.5, 2)):
            index, _ = lottery_select(lottery, Mode.NAIVE, StubRandom(value))
            assert index == want == scan_index(lottery[1], value * 4.0)

    def test_r_past_the_last_running_sum_takes_the_last_index(self):
        # CPython 3.12+ compensates sum(): 1.0 + 1e-16 + 1e-16 totals
        # 1.0000000000000002 while every running sum stays 1.0, so r can
        # reach the last running sum; the record is built by hand so the
        # case runs on every version
        weights = [1.0, 1e-16, 1e-16]
        lottery = ([0, 1, 2], weights, [1.0, 1.0, 1.0], 1.0000000000000002)
        assert list(accumulate(weights)) == lottery[2]
        assert math.fsum(weights) == lottery[3]
        value = 1.0 - 2.0**-53
        assert value * lottery[3] >= 1.0
        index, carried = lottery_select(lottery, Mode.NAIVE, StubRandom(value))
        assert index == 2 == scan_index(weights, value * lottery[3])
        assert carried == 1e-16


def lottery_kinds(plan) -> tuple[int, int]:
    """How many of a plan's lotteries have stored and merged competitors."""
    stored = sum(lottery is not None for lottery in plan.lotteries)
    return stored, len(plan.lotteries) - stored


def shares_a_lottery(plan) -> bool:
    """Whether two draw nodes of the plan hold the same lottery."""
    return len(plan.lotteries) < len(plan.draw_order)


class TestReferenceKernel:
    """The array kernel against the frozen set-and-dict kernel, per seed.

    Lattices whose plan holds no lottery are skipped.  Each example
    records, as Hypothesis events, whether its plan holds stored
    lotteries, merged ones, or both, and whether two of its draw nodes
    share a lottery (``--hypothesis-show-statistics`` prints the tally);
    ``test_lattice_family_holds_both_lottery_kinds`` checks that the
    lattice family covers each case.
    """

    def test_lattice_family_holds_both_lottery_kinds(self):
        both = shared = 0
        for seed in range(300):
            try:
                plan = prepare(random_layered_lattice(random.Random(seed)))
            except DarkTrialError:
                continue
            base = list(plan.base_det), list(plan.base_weight)
            children: dict[int, tuple[int, ...]] = {}
            for u, k in zip(plan.draw_order, plan.draw_lottery):
                assert children.setdefault(k, plan.out_live[u]) == plan.out_live[u]
            assert len(set(children.values())) == len(plan.lotteries)
            for k, lottery in enumerate(plan.lotteries):
                kids = children[k]
                seeded = all(plan.base_det[v] >= 0 for v in kids)
                assert (lottery is not None) == seeded
                if lottery is not None:
                    merged = sorted(_merge(kids, *base).items())
                    assert lottery[:2] == tuple(map(list, zip(*merged)))
                    # lottery_select has no branch for fewer competitors
                    # or a zero total
                    assert len(lottery[0]) >= 2 and lottery[3] > 0.0
            stored, merged = lottery_kinds(plan)
            both += stored > 0 and merged > 0
            shared += shares_a_lottery(plan)
        # 241 and 141 of these 300 seeds today
        assert both >= 150
        assert shared >= 100

    @given(
        lattice_seed=st.integers(min_value=0, max_value=2**32),
        shuffle_ids=st.booleans(),
        mode=st.sampled_from(list(Mode)),
        master_seed=st.integers(min_value=0, max_value=2**64 - 1),
        index=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_per_seed(
        self, lattice_seed, shuffle_ids, mode, master_seed, index
    ):
        rng = random.Random(lattice_seed)
        lat = random_layered_lattice(rng)
        if shuffle_ids:
            lat, _ = shuffle_node_ids(lat, rng)
        try:
            plan = prepare(lat)
        except DarkTrialError:
            assume(False)
        assume(plan.draw_order)
        stored, merged = lottery_kinds(plan)
        event(f"lotteries stored: {stored > 0}, merged: {merged > 0}")
        event(f"shares a lottery: {shares_a_lottery(plan)}")
        want_events: list[str] = []
        winner, path, degenerate, void = reference_trial(
            plan, mode, master_seed, index, trace=want_events.append
        )
        # one stream serves a span and seeks to each trial, and each trial
        # builds its own lotteries: no trial's draws or merges may leak into
        # the next
        span = range(index, index + 4)
        assert count_winners(plan, mode, master_seed, index, index + 1) == {winner: 1}
        assert count_winners(plan, mode, master_seed, span.start, span.stop) == Counter(
            reference_trial(plan, mode, master_seed, i)[0] for i in span
        )
        events: list[str] = []
        out = run_trial(lat, mode, master_seed, index, plan=plan, trace=events.append)
        assert (out.winner, out.surviving_path) == (winner, path)
        assert events[:-1] == want_events
        # the engine's kernel also draws from the reference's own stream
        want = reference_backpropagate(plan, mode, trial_stream(master_seed, index))
        assert (want[0], want[2], want[3]) == (winner, void, degenerate)
        # every competitor weight is a live intensity or carried from them
        assert degenerate == 0
        events = []
        got = backpropagate(
            plan, mode, trial_stream(master_seed, index), trace=events.append
        )
        # the reference interleaves the waves with the lotteries; the
        # engine replays them afterwards: same per-node winners, same lines
        assert got == want
        assert events == want_events


class TestRefusalInvariant:
    """A refusal wave never voids an out-edge of a node whose lottery is
    still to run, which is why the kernel can leave the waves out."""

    @given(
        lattice_seed=st.integers(min_value=0, max_value=2**32),
        shuffle_ids=st.booleans(),
        mode=st.sampled_from(list(Mode)),
        master_seed=st.integers(min_value=0, max_value=2**64 - 1),
        index=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=300, deadline=None)
    def test_waves_void_only_processed_out_edges(
        self, lattice_seed, shuffle_ids, mode, master_seed, index
    ):
        rng = random.Random(lattice_seed)
        lat = random_layered_lattice(rng)
        if shuffle_ids:
            lat, _ = shuffle_node_ids(lat, rng)
        try:
            plan = prepare(lat)
        except DarkTrialError:
            assume(False)
        assume(plan.draw_order)
        rank = {u: i for i, u in enumerate(plan.process_order)}
        events: list[str] = []
        run_trial(lat, mode, master_seed, index, plan=plan, trace=events.append)
        lottery = None
        for line in events:
            if m := re.fullmatch(r"lottery node=(\d+) .*", line):
                lottery = int(m[1])
            elif m := re.fullmatch(r"refuse rib=\((\d+),(\d+)\)", line):
                tail = int(m[1])
                assert lottery is not None
                assert rank[tail] <= rank[lottery], (line, lottery)


class TestSpanSplits:
    """Counting a span equals counting its two halves, wherever the split
    falls against the stream's blocks: the process pool counts an
    ensemble in spans and adds their counts."""

    LATTICES = {
        "star-1-1-2": lambda: build_intensity_star([1.0, 1.0, 2.0]),
        "slit-7x9": lambda: build_slit_grid(7, 9, (2, 6), wavelength=1.0),
        # one detector, no lottery: each trial holds no draws
        "two-path": lambda: build_two_path(2.0, 2.0, 2),
    }

    @pytest.mark.parametrize("where", ["inside-a-block", "on-a-block-edge"])
    @pytest.mark.parametrize("name", list(LATTICES))
    def test_count_winners_is_additive(self, name, where):
        plan = prepare(self.LATTICES[name]())
        n = len(plan.draw_order)
        if name == "two-path":
            assert n == 0
        block = max(1, BLOCK_DRAWS // max(n, 1))
        start = 7
        stop = start + 2 * block + 5
        k = start + (block if where == "on-a-block-edge" else block // 2 + 1)
        for mode in Mode:
            whole = count_winners(plan, mode, 2**64 - 1, start, stop)
            assert sum(whole.values()) == stop - start
            halves = count_winners(plan, mode, 2**64 - 1, start, k)
            halves += count_winners(plan, mode, 2**64 - 1, k, stop)
            assert whole == halves


class TestRunTrial:
    def test_single_detector_always_wins(self):
        lat = build_star(1, 2, [1.0])
        out = run_trial(lat, Mode.AGGREGATE, 99, 0)
        assert out.winner == lat.detectors[0]

    @pytest.mark.parametrize("master_seed", [-1, 2**64])
    def test_out_of_range_master_seed_rejected(self, master_seed):
        lat = build_intensity_star([1.0, 1.0, 2.0])
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            run_trial(lat, Mode.AGGREGATE, master_seed, 0)
        run_trial(lat, Mode.AGGREGATE, 2**64 - 1, 0)

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
            for det in lat.detectors:
                a = plan.scout_report.amplitudes[det]
                assert a.real == pytest.approx(amps[det].real, abs=1e-9)
                assert a.imag == pytest.approx(amps[det].imag, abs=1e-9)
                assert plan.intensities[det] == pytest.approx(
                    abs(amps[det]) ** 2, rel=1e-9, abs=1e-9
                )

    def test_winner_path_invariant_randomized(self):
        rng = random.Random(5)
        for _ in range(20):
            lat = random_layered_lattice(rng)
            plan = prepare(lat)
            ribs = {rib.endpoints for rib in lat.ribs}
            for index in range(5):
                out = run_trial(lat, Mode.AGGREGATE, 100, index, plan=plan)
                assert out.surviving_path[0] == lat.source
                assert out.surviving_path[-1] == out.winner
                assert len(set(out.surviving_path)) == len(out.surviving_path)
                for u, v in zip(out.surviving_path, out.surviving_path[1:]):
                    assert tuple(sorted((u, v))) in ribs

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
