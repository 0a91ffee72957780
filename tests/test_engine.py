import math
import random
import re
import tracemalloc
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate, repeat

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from conftest import (
    chain_arm,
    diamond_arm,
    diamond_chain,
    live_pairs,
    nested_tree_lattice,
    random_layered_lattice,
    shuffle_node_ids,
)
from reference_kernel import backpropagate as reference_backpropagate
from reference_kernel import CountingStream, reference_trial, trial_stream
from scoutnet import engine, oracle
from scoutnet.engine import (
    Mode,
    RibState,
    _columns,
    _cuts,
    _lottery,
    _merge,
    _span_memo,
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
from scoutnet.rng import (
    _UNIT,
    BLOCK_DRAWS,
    MAX_TRIALS,
    MIN_TRIALS,
    block_trials,
    count_first_words,
    trial_blocks,
)

# the largest 53-bit word, whose uniform is 1 - 2**-53
TOP = 2**53 - 1


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

    def test_oracle_rib_visits(self, monkeypatch):
        lat = build_grid(self.W, self.H, "corner")
        (det,) = lat.detectors
        visits = sum(self.prefix_counts())
        monkeypatch.setattr(oracle, "DEFAULT_PATH_BUDGET", visits)
        assert len(oracle.enumerate_paths(lat, det)) == (
            math.comb(self.W + self.H - 2, self.W - 1)
        )
        monkeypatch.setattr(oracle, "DEFAULT_PATH_BUDGET", visits - 1)
        with pytest.raises(PathBudgetError, match="path budget exceeded") as err:
            oracle.enumerate_paths(lat, det)
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
        assert plan.base[live][0] == live
        assert plan.base[dark][0] == -1
        edges = live_pairs(plan)
        assert edges and all(dark not in edge for edge in edges)
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
                det, weight = plan.base[u]
                assert det in lat.detectors
                assert weight == plan.intensities[det]
        assert plan.base[lat.source][0] == -1

    def test_intensity_star_source_competitors_are_stored(self):
        # the source is the one draw node, so its children are all seeded
        # and its competitors are fixed: count_winners counts the lanes
        # against this record's cuts
        lat = build_intensity_star([1.0, 1.0, 2.0])
        plan = prepare(lat)
        assert plan.draw_order == (lat.source,)
        kids = plan.out_live[lat.source]
        assert seeded_lotteries(plan) == {kids}
        merged = _merge([plan.base[v] for v in kids])
        dets = sorted(merged)
        lottery = _lottery(merged, Mode.NAIVE)
        cuts, queries = lottery
        assert queries == [(d, merged[d]) for d in dets]
        assert tuple(dets) == lat.detectors
        assert [w for _, w in queries] == [plan.intensities[d] for d in dets]
        # each cut is the first word whose float-form draw takes the next
        # competitor, and lottery_select takes it there too
        _, _, sums, total = spec_record(merged)
        assert len(cuts) == len(dets) - 1 and cuts == sorted(cuts)
        for i, cut in enumerate(cuts):
            assert float_draw(sums, total, cut - 1) == i
            assert float_draw(sums, total, cut) == i + 1
            ((below, _), (at, _)) = select([lottery] * 2, [cut - 1, cut])
            assert (below, at) == (dets[i], dets[i + 1])

    def test_slit_deep_plan_shares_lotteries(self):
        # perfbench's slit-deep screen: every node of a fully connected
        # column has the same live children, so its column shares a lottery
        lat = build_slit_grid(7, 9, (2, 6), wavelength=1.0)
        plan = prepare(lat)
        assert len(plan.draw_order) == 39
        # draw nodes per live-children tuple, in order of first use
        groups = Counter(plan.out_live[u] for u in plan.draw_order)
        assert len(groups) == 6
        assert len(seeded_lotteries(plan)) == 1
        assert [*groups.values()] == [2, 9, 9, 9, 9, 1]
        for mode in Mode:
            want = [reference_trial(plan, mode, 77, i)[0] for i in range(500)]
            got = [count_winners(plan, mode, 77, i, i + 1) for i in range(500)]
            assert got == [{winner: 1} for winner in want]
            assert count_winners(plan, mode, 77, 0, 500) == Counter(want)

    def test_live_children_come_before_their_parents(self):
        # the plan walks the forward DAG backward; on grids and on
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
            expanded = list(lat.forward)
            assert expanded == sorted(expanded, key=lambda u: (dist[u], u))
            off_id_order += expanded != sorted(expanded)
            rank = {u: i for i, u in enumerate(plan.process_order)}
            assert set(rank) == {u for u, _ in live_pairs(plan)}
            for u, v in live_pairs(plan):
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


def scan_index(weights, r: float) -> int:
    """The draw as a linear scan: the first i with r < acc_i, else the last."""
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    return len(weights) - 1


def spec_record(weights_by_det) -> tuple[list, list, list, float]:
    """A lottery as the float-form draw reads it: its competitors'
    detectors, sorted; their weights in that order; their running sums,
    ``acc += w``; and its total, the last running sum."""
    dets = sorted(weights_by_det)
    weights = [weights_by_det[d] for d in dets]
    sums = list(accumulate(weights))
    return dets, weights, sums, sums[-1]


def float_draw(sums, total: float, k: int) -> int:
    """The definition of a draw with word k: the first index whose
    running sum exceeds ``r = k * 2**-53 * total``, or the last index if
    none does, found by bisection."""
    return bisect_right(sums, k * _UNIT * total, 0, len(sums) - 1)


def float_select(spec, mode: Mode, k: int) -> tuple[int, float]:
    """The query that the float-form draw with word k carries on from the
    lottery ``spec`` (``spec_record``): the winner keeps its own weight in
    naive mode and inherits the total in aggregate mode."""
    dets, weights, sums, total = spec
    i = float_draw(sums, total, k)
    return dets[i], total if mode is Mode.AGGREGATE else weights[i]


def select(records, words) -> list[tuple[int, float]]:
    """``lottery_select`` over a block where every trial draws: trial t
    draws ``words[t]`` from ``records[t]``."""
    n = len(records)
    group = ([*range(n)], list(records), [(-1, 0.0)] * n)
    return lottery_select(group, words, [*range(n)], n)


class TestLotterySelect:
    """A lottery draws with 53-bit words, k standing for the uniform
    ``k * 2**-53``, by bisecting its record's word cuts, in the kernel
    and in the lane counter; ``float_draw``, the bisection of the running
    sums at ``k * 2**-53 * total``, is the definition the cuts keep."""

    def test_zero_weight_never_wins(self):
        rng = random.Random(0)
        for _ in range(200):
            ((det, _),) = select(
                [_lottery({0: 2.0, 1: 0.0}, Mode.NAIVE)], [rng.getrandbits(53)]
            )
            assert det == 0

    def test_equal_weights_split_evenly(self):
        rng = random.Random(1)
        lottery = _lottery({0: 1.0, 1: 1.0}, Mode.NAIVE)
        words = [rng.getrandbits(53) for _ in range(100_000)]
        wins = Counter(det for det, _ in select([lottery] * 100_000, words))
        assert wins[0] / 100_000 == pytest.approx(0.5, abs=0.01)

    def test_aggregate_winner_inherits_total(self):
        rng = random.Random(2)
        ((_, carried),) = select(
            [_lottery({0: 1.0, 1: 3.0}, Mode.AGGREGATE)], [rng.getrandbits(53)]
        )
        assert carried == pytest.approx(4.0)

    def test_naive_winner_keeps_own_weight(self):
        rng = random.Random(2)
        ((_, carried),) = select(
            [_lottery({0: 1.0, 1: 3.0}, Mode.NAIVE)], [rng.getrandbits(53)]
        )
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
        lottery = _lottery(dict(enumerate(weights)), Mode.NAIVE)
        _, ranked, sums, total = spec_record(dict(enumerate(weights)))
        # a free draw, or one that lands r on a running sum when it can
        ratios = [int(s / total * 2**53) for s in sums if s / total < 1.0]
        value = data.draw(st.integers(0, TOP) | st.sampled_from(ratios or [0]))
        ((det, _),) = select([lottery], [value])
        assert det == scan_index(ranked, value * 2.0**-53 * total)

    def test_a_column_draws_each_record_with_its_own_uniform(self):
        rng = random.Random(3)
        specs = [spec_record({0: 1.0, 1: 3.0}), spec_record({2: 2.0, 5: 1.0, 7: 1.0})]
        specs *= 50
        words = [rng.getrandbits(53) for _ in specs]
        for mode in Mode:
            lotteries = [_lottery(dict(zip(x[0], x[1])), mode) for x in specs]
            queries = select(lotteries, words)
            alone = [select([x], [k]) for x, k in zip(lotteries, words)]
            assert queries == [query for (query,) in alone]
            assert queries == [float_select(x, mode, k) for x, k in zip(specs, words)]
            assert [det for det, _ in queries] == [
                x[0][scan_index(x[1], k * 2.0**-53 * x[3])]
                for x, k in zip(specs, words)
            ]

    def test_r_on_a_running_sum_takes_the_next_index(self):
        weights = {0: 1.0, 1: 1.0, 2: 2.0}
        _, ranked, sums, total = spec_record(weights)
        assert (sums, total) == ([1.0, 2.0, 4.0], 4.0)
        lottery = _lottery(weights, Mode.NAIVE)
        # the words of the uniforms 0.25 and 0.5, which are the cuts
        assert lottery[0] == _cuts(sums, total) == [2**51, 2**52]
        for value, want in ((2**51, 1), (2**52, 2)):
            ((det, _),) = select([lottery], [value])
            assert det == want == scan_index(ranked, value * 2.0**-53 * 4.0)
            assert float_draw(sums, total, value) == want

    def test_r_past_the_last_running_sum_takes_the_last_index(self):
        # CPython 3.12+'s compensated sum() totals 1.0 + 1e-16 + 1e-16 as
        # 1.0000000000000002 while every running sum stays 1.0, so r can
        # reach the last running sum; _lottery takes the last running sum
        # as its total, so the record is built by hand
        weights = [1.0, 1e-16, 1e-16]
        sums, total = [1.0, 1.0, 1.0], 1.0000000000000002
        assert list(accumulate(weights)) == sums
        assert math.fsum(weights) == total
        # the largest word, whose uniform is 1 - 2**-53
        value = TOP
        assert value * 2.0**-53 * total >= 1.0
        assert float_draw(sums, total, value) == 2
        lottery = (_cuts(sums, total), [*enumerate(weights)])
        ((det, carried),) = select([lottery], [value])
        assert det == 2 == scan_index(weights, value * 2.0**-53 * total)
        assert carried == 1e-16

    @given(
        weights=st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
                min_size=2,
                max_size=6,
            ),
            min_size=1,
            max_size=3,
        ),
        mode=st.sampled_from(list(Mode)),
        trials=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    def test_draws_each_drawing_trial_at_its_cursor(self, weights, mode, trials, data):
        # random records, columns and cursors: each drawing trial takes the
        # float-form draw of the word at its cursor and moves that cursor
        # on by one row of the block; no other cursor or query moves, and
        # the group's own column is left as it was
        specs = [spec_record(dict(enumerate(w))) for w in weights]
        records = [_lottery(dict(enumerate(w)), mode) for w in weights]
        drawing = sorted(data.draw(st.sets(st.integers(0, trials - 1), min_size=1)))
        picks = [data.draw(st.integers(0, len(specs) - 1)) for _ in drawing]
        rows = data.draw(st.integers(min_value=1, max_value=4))
        pos = [t + trials * data.draw(st.integers(0, rows - 1)) for t in range(trials)]
        # words on either side of every cut, as well as free ones
        near = [k + d for cuts, _ in records for k in cuts for d in (-1, 0)]
        near = [k for k in near if k <= TOP]
        word = st.integers(0, TOP) | st.sampled_from([0, TOP, *near])
        size = trials * rows
        words = data.draw(st.lists(word, min_size=size, max_size=size))
        column = [(data.draw(st.integers(-1, 9)), float(t)) for t in range(trials)]
        group = (drawing, [records[i] for i in picks], column)
        was_column, was_pos = column.copy(), pos.copy()

        got = lottery_select(group, words, pos, trials)
        want = was_column.copy()
        for t, i in zip(drawing, picks):
            want[t] = float_select(specs[i], mode, words[was_pos[t]])
        assert got == want
        assert pos == [p + trials * (t in drawing) for t, p in enumerate(was_pos)]
        assert column == was_column

    @given(
        weights=st.lists(
            st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
            min_size=2,
            max_size=8,
        ),
        compensated=st.booleans(),
        data=st.data(),
    )
    def test_cuts_bisect_as_lottery_select_does(self, weights, compensated, data):
        # a word's place among the cuts is the index the float-form draw
        # bisects from its r: at both ends of the words, on either side of
        # every cut, and at random words
        _, _, sums, total = spec_record(dict(enumerate(weights)))
        assert _lottery(dict(enumerate(weights)), Mode.NAIVE)[0] == _cuts(sums, total)
        if compensated:
            # the sums of test_r_past_the_last_running_sum_takes_the_last_index
            sums, total = [1.0, 1.0, 1.0], 1.0000000000000002
        cuts = _cuts(sums, total)
        assert len(cuts) == len(sums) - 1
        near = {k + d for k in cuts for d in (-1, 0, 1) if 0 <= k + d <= TOP}
        words = {0, TOP, *near, *data.draw(st.lists(st.integers(0, TOP), max_size=20))}
        for k in sorted(words):
            assert bisect_right(cuts, k) == float_draw(sums, total, k), k

    def test_cuts_equal_their_bisected_definition(self):
        # each cut, the least word whose r reaches its running sum, found
        # by bisecting all 2**53 words: records of 2 to 12 competitors with
        # weights from 1e-12 to 1e6, one of 100k, and records whose r is
        # rounded to the subnormal grid
        def bisected(sums, total):
            words = range(1 << 53)
            return [
                bisect_left(words, s, key=lambda k: k * _UNIT * total)
                for s in sums[:-1]
            ]

        rng = random.Random(33)
        records = [
            [10 ** rng.uniform(-12, 6) for _ in range(rng.randint(2, 12))]
            for _ in range(300)
        ]
        records += [[5e-324, 5e-324], [1e-310, 2e-310, 3e-310], [5e-324, 1e-300]]
        records.append([10 ** rng.uniform(-12, 6) for _ in range(100_000)])
        for weights in records:
            _, _, sums, total = spec_record(dict(enumerate(weights)))
            assert _cuts(sums, total) == bisected(sums, total), weights[:12]


def lottery_children(plan) -> set[tuple[int, ...]]:
    """A plan's lotteries, each named by its draw nodes' live children."""
    return {plan.out_live[u] for u in plan.draw_order}


def seeded_lotteries(plan) -> set[tuple[int, ...]]:
    """A plan's lotteries whose live children are all seeded: their
    competitors are the same in every trial."""
    return {
        kids
        for kids in lottery_children(plan)
        if all(plan.base[v][0] >= 0 for v in kids)
    }


def lottery_kinds(plan) -> tuple[int, int]:
    """How many of a plan's lotteries have all children seeded, and how
    many have a child that draws."""
    seeded = len(seeded_lotteries(plan))
    return seeded, len(lottery_children(plan)) - seeded


def shares_a_lottery(plan) -> bool:
    """Whether two draw nodes of the plan hold the same lottery."""
    return len(lottery_children(plan)) < len(plan.draw_order)


class TestReferenceKernel:
    """The array kernel against the frozen set-and-dict kernel, per seed.

    Lattices whose plan holds no lottery are skipped.  Each example
    records, as Hypothesis events, whether its plan holds lotteries whose
    children are all seeded, lotteries with a child that draws, or both,
    and whether two of its draw nodes
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
            # a lottery whose children are all seeded merges their seeded
            # queries, the same in every trial
            for kids in seeded_lotteries(plan):
                merged = _merge(map(plan.base.__getitem__, kids))
                dets, weights, sums, total = spec_record(merged)
                for mode in Mode:
                    cuts, queries = _lottery(merged, mode)
                    aggregate = mode is Mode.AGGREGATE
                    carried = [total] * len(dets) if aggregate else weights
                    assert queries == [*zip(dets, carried)]
                    assert cuts == _cuts(sums, total)
                # _cuts divides by the total, and a draw needs two or more
                # competitors
                assert len(dets) >= 2 and total > 0.0
            seeded, drawn = lottery_kinds(plan)
            both += seeded > 0 and drawn > 0
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
        seeded, drawn = lottery_kinds(plan)
        event(f"lotteries seeded: {seeded > 0}, drawn: {drawn > 0}")
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
        # the reference kernel on the trial's sequential stream; the
        # engine's draws from the trial's block, as run_trial does
        want = reference_backpropagate(plan, mode, trial_stream(master_seed, index))
        assert (want[0], want[2], want[3]) == (winner, void, degenerate)
        # every competitor weight is a live intensity or carried from them
        assert degenerate == 0
        events = []
        got = backpropagate(plan, mode, master_seed, index, trace=events.append)
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


def slit_screen(columns: int) -> Lattice:
    """perfbench's slit-deep screen, with ``columns`` columns."""
    return build_slit_grid(columns, 9, (2, 6), wavelength=1.0)


class TestSpanSplits:
    """Counting a span equals counting its two halves, wherever the split
    falls against the stream's blocks: the process pool counts an
    ensemble in spans and adds their counts."""

    LATTICES = {
        "star-1-1-2": lambda: build_intensity_star([1.0, 1.0, 2.0]),
        "slit-7x9": lambda: build_slit_grid(7, 9, (2, 6), wavelength=1.0),
        # 100 draw nodes: a block of 50 trials, neither the floor nor the
        # lane limit
        "grid-11x11": lambda: build_grid(11, 11, "column"),
        # 169 draw nodes: the floor sets its block of MIN_TRIALS trials
        "grid-14x14": lambda: build_grid(14, 14, "column"),
        # one detector, no lottery: each trial holds no draws
        "two-path": lambda: build_two_path(2.0, 2.0, 2),
    }

    def test_block_sizes_are_pinned(self):
        # written out, not read back from rng's rule: the star's one-draw
        # trials fill a row's lanes, slit 7x9 (39 draw nodes) and grid
        # 11x11 (100) take about BLOCK_DRAWS draws, and grid 30x30 (841)
        # stays at the floor, which holds its peak memory
        for lat, size in [
            (build_intensity_star([1.0, 1.0, 2.0]), 1024),
            (slit_screen(7), 128),
            (build_grid(11, 11, "column"), 50),
            (build_grid(30, 30, "column"), 32),
        ]:
            n = len(prepare(lat).draw_order)
            ((_, trials), *_) = trial_blocks(1, n, 0, 3000)
            assert trials == size == block_trials(n), n

    @pytest.mark.parametrize("where", ["inside-a-block", "on-a-block-edge"])
    @pytest.mark.parametrize("name", list(LATTICES))
    def test_count_winners_is_additive(self, name, where):
        plan = prepare(self.LATTICES[name]())
        n = len(plan.draw_order)
        if name == "two-path":
            assert n == 0
        block = block_trials(n)
        if name == "grid-11x11":
            assert MIN_TRIALS < block < MAX_TRIALS
        if name == "grid-14x14":
            assert BLOCK_DRAWS // n < MIN_TRIALS == block
        start = 7
        stop = start + 2 * block + 5
        k = start + (block if where == "on-a-block-edge" else block // 2 + 1)
        for mode in Mode:
            whole = count_winners(plan, mode, 2**64 - 1, start, stop)
            assert sum(whole.values()) == stop - start
            halves = count_winners(plan, mode, 2**64 - 1, start, k)
            halves += count_winners(plan, mode, 2**64 - 1, k, stop)
            assert whole == halves

    @pytest.mark.parametrize("size", [7, 12])
    def test_slit_counts_add_over_arbitrary_splits(self, size):
        # the span memo carries entries from block to block; no count may
        # depend on what it holds, so pieces cut anywhere, inside blocks
        # or on their edges, add up to the whole span
        plan = prepare(slit_screen(size))
        block = block_trials(len(plan.draw_order))
        start, stop = 11, 11 + 12 * block + 5
        rng = random.Random(size)
        for mode in Mode:
            whole = count_winners(plan, mode, 9, start, stop)
            assert sum(whole.values()) == stop - start
            for _ in range(3):
                cuts = rng.sample(range(start + 1, stop), rng.randint(1, 6))
                edges = [start, *sorted(cuts), stop]
                pieces: Counter = Counter()
                for a, b in zip(edges, edges[1:]):
                    pieces += count_winners(plan, mode, 9, a, b)
                assert pieces == whole, (mode, edges)

    @pytest.mark.parametrize("name", list(LATTICES))
    def test_empty_span_counts_nothing(self, name):
        plan = prepare(self.LATTICES[name]())
        for mode in Mode:
            # not even a 0 entry, which Counter equality would forgive
            assert dict(count_winners(plan, mode, 1, 5, 5)) == {}

    def test_draw_free_plan_counts_every_trial(self, monkeypatch):
        lat = build_two_path(2.0, 2.0, 2)
        plan = prepare(lat)
        assert plan.draw_order == ()

        def no_draws(*args):
            raise AssertionError("a draw-free plan computed draws")

        # the span is counted without computing a draw
        monkeypatch.setattr(engine, "trial_blocks", no_draws)
        for mode in Mode:
            assert dict(count_winners(plan, mode, 3, 10, 2500)) == {
                lat.detectors[0]: 2490
            }
            for master_seed in (-1, 2**64):
                with pytest.raises(ValueError, match="master seed"):
                    count_winners(plan, mode, master_seed, 10, 2500)


class TestLaneCount:
    """A star's winners counted in the draw lanes: each trial's first word
    placed among the source lottery's word cuts, as the sequential stream
    draws it."""

    @given(
        targets=st.lists(
            st.floats(min_value=0.05, max_value=4.0),
            min_size=2,
            max_size=18,
        ),
        master_seed=st.integers(min_value=0, max_value=2**64 - 1),
        start=st.integers(min_value=0, max_value=2**64)
        | st.integers(min_value=2**64 - 3 * MAX_TRIALS, max_value=2**64),
        # empty, shorter than a block, and two blocks and a tail: a block
        # of one-draw trials holds MAX_TRIALS
        length=st.sampled_from([0, 1, 7, MAX_TRIALS - 1])
        | st.integers(min_value=2 * MAX_TRIALS + 1, max_value=2 * MAX_TRIALS + 40),
    )
    @settings(max_examples=40, deadline=None)
    def test_counts_equal_bisected_sequential_words(
        self, targets, master_seed, start, length
    ):
        plan = prepare(build_intensity_star(targets))
        source = plan.lattice.source
        assert plan.draw_order == (source,)
        merged = _merge(map(plan.base.__getitem__, plan.out_live[source]))
        cuts, queries = _lottery(merged, Mode.NAIVE)
        dets = [det for det, _ in queries]
        assert len(dets) == len(targets)
        stop = start + length
        streams = map(trial_stream, repeat(master_seed), range(start, stop))
        words = [stream.next_word() >> 11 for stream in streams]
        want = Counter(bisect_right(cuts, w) for w in words)
        counts = count_first_words(master_seed, cuts, start, stop)
        assert counts == [want[i] for i in range(len(dets))]
        for mode in Mode:
            winners = count_winners(plan, mode, master_seed, start, stop)
            assert dict(winners) == {dets[i]: n for i, n in want.items()}


class TestColumnKernel:
    """The kernel runs a block of trials at once; each trial keeps its own
    cursor into the block's draws, which moves only when the trial draws,
    and nothing outlives the block."""

    @pytest.mark.parametrize(
        "build, draws",
        [
            # the star draws at its source, its one draw node
            (lambda: build_intensity_star([1.0, 1.0, 2.0]), 1),
            # the nested tree draws at its inner node and junction, not at
            # its source, whose one live child hands it the junction's
            # survivor
            (lambda: nested_tree_lattice()[0], 2),
        ],
        ids=["star-1-1-2", "nested-tree"],
    )
    def test_trials_that_draw_alike_advance_together(self, build, draws):
        plan = prepare(build())
        n = len(plan.draw_order)
        for mode in Mode:
            for trials in (1, MIN_TRIALS, 37):
                ((words, size),) = trial_blocks(8, n, 3, 3 + trials)
                assert size == trials
                _, cursors = _columns(plan, mode, words, trials)
                assert cursors == [draws * trials + t for t in range(trials)]

    def test_trials_of_one_block_drift_apart(self):
        # a lottery that merges to one competitor draws nothing, so the
        # trials of one block take different numbers of draws
        lat = build_slit_grid(7, 9, (2, 6), wavelength=1.0)
        plan = prepare(lat)
        n = len(plan.draw_order)
        # the first draw node's children are all seeded, so every trial
        # draws there: a block's trials drift apart only at a later node
        assert plan.out_live[plan.draw_order[0]] in seeded_lotteries(plan)
        trials = block_trials(n)
        for mode in Mode:
            drifted = False
            for first in range(0, 40 * trials, trials):
                span = range(first, first + trials)
                taken = []
                for index in span:
                    stream = CountingStream(trial_stream(31, index))
                    reference_backpropagate(plan, mode, stream)
                    taken.append(stream.draws)
                if len(set(taken)) == 1:
                    continue
                drifted = True
                ((words, size),) = trial_blocks(31, n, first, first + trials)
                assert size == trials
                queries, cursors = _columns(plan, mode, words, trials)
                assert [p // trials for p in cursors] == taken
                winners = [reference_trial(plan, mode, 31, i)[0] for i in span]
                assert [det for det, _ in queries[lat.source]] == winners
                assert count_winners(plan, mode, 31, first, first + trials) == Counter(
                    winners
                )
                break
            assert drifted, mode

    @pytest.mark.parametrize("size", [6, 11])
    def test_reconvergent_grid_blocks_match_reference(self, size):
        # a column grid's paths reconverge, so lotteries with a drawn child
        # meet trials that all draw there, both before a block's trials
        # drift apart and after
        plan = prepare(build_grid(size, size, "column", wavelength=0.73))
        n = len(plan.draw_order)
        source = plan.lattice.source
        span = range(5, 77)
        for mode in Mode:
            winners = [reference_trial(plan, mode, 3, i)[0] for i in span]
            got = []
            for words, trials in trial_blocks(3, n, span.start, span.stop):
                queries, _ = _columns(plan, mode, words, trials)
                got += [det for det, _ in queries[source]]
            assert got == winners, mode
            assert count_winners(plan, mode, 3, span.start, span.stop) == Counter(
                winners
            )

    def test_node_of_one_live_child_takes_its_column(self, monkeypatch):
        # the nested tree's source has one live child, the junction: it
        # never holds a lottery, so it takes the junction's column with no
        # merge, and every trial still matches the reference kernel
        lat, ids = nested_tree_lattice()
        plan = prepare(lat)
        junction = (ids["junction"],)
        assert plan.out_live[lat.source] == junction
        assert lat.source in plan.draw_order
        grouped = []
        group = engine._group

        def spy(kids, *args):
            grouped.append(kids)
            return group(kids, *args)

        monkeypatch.setattr(engine, "_group", spy)
        span = range(3, 3 + 2 * block_trials(len(plan.draw_order)) + 9)
        for mode in Mode:
            grouped.clear()
            got = []
            blocks = trial_blocks(6, len(plan.draw_order), span.start, span.stop)
            for words, trials in blocks:
                queries, _ = _columns(plan, mode, words, trials)
                assert queries[lat.source] == queries[ids["junction"]]
                got += [det for det, _ in queries[lat.source]]
            assert got == [reference_trial(plan, mode, 6, i)[0] for i in span]
            for index in span.start, span.stop - 1:
                want = reference_backpropagate(plan, mode, trial_stream(6, index))
                assert backpropagate(plan, mode, 6, index) == want
            assert grouped and junction not in grouped

    @staticmethod
    def peak_bytes(plan, mode: Mode, trials: int) -> int:
        tracemalloc.start()
        try:
            count_winners(plan, mode, 5, 0, trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_does_not_grow_with_the_span(self):
        # in aggregate mode slit 7x9's merged lotteries meet new rows of
        # queries in almost every trial: a row memo or column kept past its
        # block would grow with the span, and the span memo, keyed by the
        # set of a row's queries, must stay as small as the few sets it
        # meets; grid 8x8's lotteries are all keyed by their rows
        for lat in (
            slit_screen(7),
            slit_screen(12),
            build_grid(8, 8, "column", wavelength=0.73),
        ):
            plan = prepare(lat)
            block = block_trials(len(plan.draw_order))
            for mode in Mode:
                short = self.peak_bytes(plan, mode, 2 * block)
                long = self.peak_bytes(plan, mode, 40 * block)
                assert long < 1.5 * short, (len(lat.nodes), mode, short, long)

    def test_deep_grid_block_stays_small(self):
        # grid 30x30 has 841 draw nodes: the floor sets its block, of
        # MIN_TRIALS trials
        plan = prepare(build_grid(30, 30, "column"))
        assert block_trials(len(plan.draw_order)) == MIN_TRIALS
        for mode in Mode:
            assert self.peak_bytes(plan, mode, MIN_TRIALS) < 8e6


class TestSpanMemo:
    """A lottery whose live children are all nodes of one lottery group
    reads, in any one trial, only queries that one record handed out, so
    its merge depends on the set of queries in its row alone.  Its memo
    entries are keyed by that set and kept for a whole span of blocks,
    until the memo outgrows ``len(draw_order)`` entries per trial of the
    next block."""

    def test_set_keyed_lotteries(self):
        # slit 7x9's columns are completely connected: each lottery but
        # the one among the detectors has children of one group
        plan = prepare(slit_screen(7))
        by_set, memo = _span_memo(plan)
        columns = [tuple(range(a, a + 9)) for a in (1, 10, 19, 28)]
        assert by_set == {*columns, (37, 38)}
        assert memo == {}
        # a column grid's lotteries have children of different groups or
        # detectors; the star's lottery is among its detectors
        for lat in (build_grid(6, 6, "column"), build_intensity_star([1.0, 2.0])):
            assert _span_memo(prepare(lat))[0] == frozenset()
        rng = random.Random(4)
        kinds = Counter()
        for _ in range(60):
            try:
                plan = prepare(random_layered_lattice(rng))
            except DarkTrialError:
                continue
            groups = {
                kids: {plan.out_live.get(v, ()) for v in kids}
                for kids in lottery_children(plan)
            }
            want = {kids for kids, of in groups.items() if of != {()} and len(of) == 1}
            assert _span_memo(plan)[0] == want
            kinds.update(kids in want for kids in groups)
        assert kinds[True] and kinds[False], kinds

    def test_slit_builds_few_lottery_records(self, monkeypatch):
        # keyed by their rows for one block, slit 7x9's lotteries built
        # 4,173 records over 1,000 trials in aggregate mode and 3,885 in
        # naive mode
        plan = prepare(slit_screen(7))
        built = []
        lottery = engine._lottery

        def counted(weights_by_det, mode):
            built.append(weights_by_det)
            return lottery(weights_by_det, mode)

        monkeypatch.setattr(engine, "_lottery", counted)
        for mode in Mode:
            built.clear()
            count_winners(plan, mode, 1, 0, 1000)
            assert 0 < len(built) <= 300, (mode, len(built))

    def test_seeded_lottery_is_built_once_per_span(self, monkeypatch):
        # slit 7x9's lottery among its detectors, held by the two draw
        # nodes over its last column, is the same in every trial: each
        # count builds its record once, in its own mode, not once per block
        plan = prepare(slit_screen(7))
        (kids,) = seeded_lotteries(plan)
        assert len(kids) == 9
        merged = _merge(map(plan.base.__getitem__, kids))
        built = []
        lottery = engine._lottery

        def counted(weights_by_det, mode):
            built.append((weights_by_det, mode))
            return lottery(weights_by_det, mode)

        monkeypatch.setattr(engine, "_lottery", counted)
        block = block_trials(len(plan.draw_order))
        for mode in [*Mode, *Mode]:
            for start, stop in [(0, 1000), (7, 7 + 3 * block + 5)]:
                built.clear()
                count_winners(plan, mode, 2, start, stop)
                assert [m for w, m in built if w == merged] == [mode], (mode, start)

    @pytest.mark.parametrize("columns", [7, 12])
    def test_blocks_sharing_a_span_memo_match_reference(self, columns):
        # consecutive blocks over one span memo: every draw node's query in
        # every trial is the reference kernel's, so an entry carried from
        # an earlier block serves only the set of queries it was made for
        plan = prepare(slit_screen(columns))
        n = len(plan.draw_order)
        span = range(3, 3 + 7 * block_trials(n))
        for mode in Mode:
            span_memo = _span_memo(plan)
            got: dict[int, list] = {u: [] for u in plan.draw_order}
            for words, trials in trial_blocks(13, n, span.start, span.stop):
                queries, _ = _columns(plan, mode, words, trials, span_memo)
                for u in plan.draw_order:
                    got[u] += queries[u]
            assert span_memo[1]
            for t, index in enumerate(span):
                _, want, _, _ = reference_backpropagate(
                    plan, mode, trial_stream(13, index)
                )
                assert {u: got[u][t] for u in plan.draw_order} == {
                    u: want[u] for u in plan.draw_order
                }, (mode, index)

    def test_memo_is_emptied_past_its_bound(self, monkeypatch):
        # blocks of one trial put the bound at len(draw_order) entries,
        # which slit 7x9's span memo outgrows; at its default blocks of
        # 128 trials it never reaches its bound of 4,992
        plan = prepare(slit_screen(7))
        n = len(plan.draw_order)
        want = {mode: count_winners(plan, mode, 4, 0, 600) for mode in Mode}
        monkeypatch.setattr("scoutnet.rng.MIN_TRIALS", 1)
        monkeypatch.setattr("scoutnet.rng.BLOCK_DRAWS", 1)
        calls = []
        columns = engine._columns

        def spy(plan, mode, words, trials, span):
            before = len(span[1])
            result = columns(plan, mode, words, trials, span)
            calls.append((before, len(span[1]), trials))
            return result

        monkeypatch.setattr(engine, "_columns", spy)
        for mode in Mode:
            calls.clear()
            assert count_winners(plan, mode, 4, 0, 600) == want[mode]
            assert len(calls) == 600
            assert calls[0][0] == 0
            emptied = 0
            for (_, held, _), (before, _, trials) in zip(calls, calls[1:]):
                assert trials == 1
                if held > n * trials:
                    assert before == 0
                    emptied += 1
                else:
                    assert before == held
            assert emptied >= 2, (mode, emptied)


class TestModeByValue:
    """``Mode`` is a ``str`` enum: each entry point runs the member that a
    value names, and raises on any other value."""

    def test_value_runs_its_member(self):
        lat = build_slit_grid(7, 9, [2, 6])
        plan = prepare(lat)
        counts = {}
        for mode in Mode:
            counts[mode] = count_winners(plan, mode, 1, 0, 2000)
            assert count_winners(plan, mode.value, 1, 0, 2000) == counts[mode]
            for index in range(10):
                assert run_trial(lat, mode.value, 1, index, plan=plan) == run_trial(
                    lat, mode, 1, index, plan=plan
                )
                assert backpropagate(plan, mode.value, 1, index) == backpropagate(
                    plan, mode, 1, index
                )
        assert counts[Mode.NAIVE] != counts[Mode.AGGREGATE]

    @pytest.mark.parametrize(
        "lat", [build_star(1, 2, [1.0]), build_slit_grid(3, 5, [1, 3])]
    )
    def test_other_value_raises(self, lat):
        plan = prepare(lat)
        with pytest.raises(ValueError, match="bogus"):
            count_winners(plan, "bogus", 1, 0, 10)
        with pytest.raises(ValueError, match="bogus"):
            run_trial(lat, "bogus", 1, 0, plan=plan)
        with pytest.raises(ValueError, match="bogus"):
            backpropagate(plan, "bogus", 1, 0)


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
