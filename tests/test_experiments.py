import builtins
import concurrent.futures
import math
import os
import random
from collections import Counter

import pytest

from conftest import (
    compensated_sum,
    nested_tree_lattice,
    path_amplitudes,
    pooled_chi_square,
    random_layered_lattice,
    shuffle_node_ids,
    tree_merge_instances,
)
from scoutnet import experiments, oracle
from scoutnet.engine import DEFAULT_EPS_INTENSITY, Mode, count_winners, prepare
from scoutnet.experiments import (
    chi_square,
    chi_square_critical,
    ensemble_csv,
    exact_selection_distribution,
    gate,
    profile_csv,
    run_ensemble,
    summary_json,
    tv_distance,
)
from scoutnet.lattice import (
    Lattice,
    Node,
    NodeKind,
    Rib,
    build_grid,
    build_intensity_star,
    build_slit_grid,
    build_star,
    build_two_path,
)


class TestTvDistance:
    def test_identical_distributions(self):
        p = {1: 0.25, 2: 0.75}
        assert tv_distance(p, dict(p)) == 0.0

    def test_disjoint_mass(self):
        assert tv_distance({1: 1.0, 2: 0.0}, {1: 0.0, 2: 1.0}) == 1.0

    def test_quarter_shift(self):
        assert tv_distance({1: 0.25, 2: 0.75}, {1: 0.5, 2: 0.5}) == pytest.approx(
            0.25
        )

    def test_support_mismatch_rejected(self):
        with pytest.raises(ValueError, match="support mismatch"):
            tv_distance({1: 1.0}, {2: 1.0})

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            tv_distance({1: 0.5, 2: 0.4}, {1: 0.5, 2: 0.5})


class TestChiSquare:
    def test_exactly_proportional_counts(self):
        result = chi_square({1: 25, 2: 75}, {1: 0.25, 2: 0.75}, 100)
        assert result.statistic == 0.0
        assert result.dof == 1

    def test_sixty_forty_split(self):
        result = chi_square({1: 60, 2: 40}, {1: 0.5, 2: 0.5}, 100)
        assert result.statistic == pytest.approx(4.0)
        assert result.dof == 1

    def test_zero_probability_cells_excluded(self):
        # pooled into the other cell: no degree of freedom, and one positive
        # cell is nothing to lack power for
        result = chi_square({1: 0, 2: 100}, {1: 0.0, 2: 1.0}, 100)
        assert result.dof == 0
        assert result.statistic == 0.0
        assert not result.underpowered

    def test_underpowered_flag(self):
        # 1 expected draw is pooled with 9: one cell is left
        result = chi_square({1: 1, 2: 9}, {1: 0.1, 2: 0.9}, 10)
        assert result.underpowered
        assert (result.dof, result.statistic) == (0, 0.0)

    def test_small_cells_are_pooled(self):
        # cell 1 expects 1 draw and is merged with cell 2; unpooled, its 3
        # draws alone would add (3 - 1)^2 / 1 = 4
        result = chi_square({1: 3, 2: 497, 3: 500}, {1: 0.001, 2: 0.499, 3: 0.5}, 1000)
        assert (result.statistic, result.dof, result.underpowered) == (0.0, 1, False)

    @pytest.mark.parametrize("seed", range(20))
    def test_pooling_matches_test_suite_rule(self, seed):
        rng = random.Random(seed)
        weights = [rng.random() ** 4 for _ in range(rng.randint(1, 12))]
        law = {det: w / sum(weights) for det, w in enumerate(weights)}
        trials = rng.randint(1, 300)
        counts = Counter(rng.choices(list(law), list(law.values()), k=trials))
        result = chi_square(dict(counts), law, trials)
        assert (result.statistic, result.dof) == pooled_chi_square(counts, law, trials)

    def test_critical_value_for_two_dof(self):
        assert chi_square_critical(2, 0.99) == pytest.approx(9.21034, abs=1e-4)


PERCENTILES = (0.5, 0.9, 0.95, 0.99, 0.999, 0.999999)


class TestChiSquareCritical:
    def test_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for dof in range(1, 201):
            for percentile in PERCENTILES:
                expected = float(stats.chi2.ppf(percentile, dof))
                assert chi_square_critical(dof, percentile) == pytest.approx(
                    expected, rel=1e-9
                ), (dof, percentile)

    def test_monotone_in_percentile(self):
        for dof in (1, 2, 3, 8, 50, 200):
            values = [chi_square_critical(dof, p) for p in PERCENTILES]
            assert values == sorted(values)
            assert len(set(values)) == len(values)

    @pytest.mark.parametrize(
        "dof,percentile",
        [(0, 0.99), (-1, 0.99), (2, 0.0), (2, 1.0), (2, 1.5), (2, -1.0),
         (2, float("nan"))],
    )
    def test_out_of_range_rejected(self, dof, percentile):
        with pytest.raises(ValueError):
            chi_square_critical(dof, percentile)


def inline_pool(monkeypatch, cores):
    """Swap in a fake executor that runs each span inline and starts no
    process, on a machine of ``cores`` cores.  Returns the pool sizes asked
    for and the ``(start, stop)`` span of each submit."""
    sizes, spans = [], []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            spans.append(args[-2:])
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    return sizes, spans


class TestRunEnsemble:
    def test_single_detector_is_certain(self):
        lat = build_star(1, 2, [1.0])
        result = run_ensemble(lat, Mode.AGGREGATE, 500, 42)
        assert result.empirical == {lat.detectors[0]: 1.0}
        assert result.tv_distance == 0.0

    def test_symmetric_star_close_to_uniform(self):
        lat = build_star(2, 1, [1.0, 1.0])
        result = run_ensemble(lat, Mode.AGGREGATE, 10_000, 42)
        assert result.tv_distance < 0.02

    def test_counts_sum_to_trials_and_frequencies_to_one(self):
        lat = build_intensity_star([1.0, 1.0, 2.0])
        result = run_ensemble(lat, Mode.NAIVE, 2_000, 9)
        assert sum(result.counts.values()) == 2_000
        assert sum(result.empirical.values()) == pytest.approx(1.0, abs=1e-12)

    def test_reproducibility(self):
        lat = build_intensity_star([1.0, 3.0])
        a = run_ensemble(lat, Mode.AGGREGATE, 3_000, 123)
        b = run_ensemble(lat, Mode.AGGREGATE, 3_000, 123)
        assert a == b

    def test_parallel_invariance(self):
        lat = build_intensity_star([1.0, 1.0, 2.0])
        seq = run_ensemble(lat, Mode.AGGREGATE, 4_000, 77, jobs=1)
        par = run_ensemble(lat, Mode.AGGREGATE, 4_000, 77, jobs=4)
        assert seq == par

    @pytest.mark.parametrize("cores,workers", [(2, 2), (64, 10), (None, 1)])
    def test_pool_never_outgrows_spans_or_cores(self, monkeypatch, cores, workers):
        sizes, _ = inline_pool(monkeypatch, cores)
        lat = build_intensity_star([1.0, 1.0, 2.0])
        par = run_ensemble(lat, Mode.AGGREGATE, 10, 77, jobs=4000)
        # one worker counts inline, with no pool
        assert sizes == ([workers] if workers > 1 else [])
        assert par == run_ensemble(lat, Mode.AGGREGATE, 10, 77, jobs=1)

    def test_each_worker_counts_one_span(self, monkeypatch):
        # --jobs past the cores asks for no more spans than workers
        sizes, spans = inline_pool(monkeypatch, 2)
        lat = build_intensity_star([1.0, 1.0, 2.0])
        par = run_ensemble(lat, Mode.AGGREGATE, 1_001, 77, jobs=8)
        assert sizes == [2]
        assert spans == [(0, 500), (500, 1_001)]
        assert par == run_ensemble(lat, Mode.AGGREGATE, 1_001, 77, jobs=1)

    @pytest.mark.parametrize("master_seed", [-1, 2**64])
    def test_out_of_range_master_seed_rejected(self, master_seed):
        # the trial seeds reduce mod 2**64: 2**64 would count seed 0's stream
        lat = build_intensity_star([1.0, 1.0, 2.0])
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            run_ensemble(lat, Mode.AGGREGATE, 500, master_seed)

    def test_invalid_trials_rejected(self):
        lat = build_star(1, 1, [1.0])
        with pytest.raises(ValueError):
            run_ensemble(lat, Mode.AGGREGATE, 0, 1)


def walked_live_graph(lat: Lattice) -> tuple[set[int], set[tuple[int, int]]]:
    """The live detectors, by their path-by-path intensities, and the union
    of the ribs of their ``enumerate_paths`` paths."""
    live = {
        det
        for det, amp in path_amplitudes(lat).items()
        if abs(amp) ** 2 > DEFAULT_EPS_INTENSITY
    }
    edges = {
        edge
        for det in live
        for path in oracle.enumerate_paths(lat, det)
        for edge in zip(path.nodes, path.nodes[1:])
    }
    return live, edges


def dark_beside_live() -> Lattice:
    """Detector 3's two paths are half a wavelength apart, so it is dark;
    detector 4 beside it is lit by one path, and void node 2 leads only to
    the dark detector."""
    nodes = [
        Node(0, (0.0, 0.0), NodeKind.SOURCE),
        Node(1, (1.0, 0.5), NodeKind.VOID),
        Node(2, (1.0, -0.5), NodeKind.VOID),
        Node(3, (2.0, 0.0), NodeKind.DETECTOR),
        Node(4, (2.0, 1.0), NodeKind.DETECTOR),
    ]
    ribs = [Rib(0, 1, 1.0), Rib(0, 2, 1.0), Rib(1, 3, 1.0), Rib(2, 3, 1.5)]
    return Lattice(tuple(nodes), tuple([*ribs, Rib(1, 4, 1.0)]), 1.0)


class TestLiveGraph:
    """``_live_graph``'s one backward pass over the forward DAG keeps what
    the path walk reaches: the same live detectors and live ribs, each
    node after all of its live children."""

    @staticmethod
    def assert_matches_path_walk(lat):
        live, children = experiments._live_graph(lat)
        heads = {v for kids in children.values() for v in kids}
        edges = {(u, v) for u, kids in children.items() for v in kids}
        assert (set(live), edges) == walked_live_graph(lat)
        assert set(live) == heads - set(children)
        assert all(kids == sorted(kids) for kids in children.values())
        dist = lat.hop_distances()
        assert list(children) == sorted(
            children, key=lambda u: (dist[u], u), reverse=True
        )

    def test_random_layered_lattices_with_shuffled_ids(self):
        rng = random.Random(11)
        for i in range(60):
            lat = random_layered_lattice(rng)
            if i % 2:
                lat, _ = shuffle_node_ids(lat, rng)
            self.assert_matches_path_walk(lat)

    @pytest.mark.parametrize(
        "lat",
        [
            pytest.param(build_grid(4, 4, "column"), id="grid-4x4"),
            pytest.param(build_grid(6, 6, "column", 0.73), id="grid-6x6-0.73"),
            pytest.param(build_slit_grid(7, 9, [2, 6]), id="slit-7x9"),
            pytest.param(build_star(3, 2, [1.0, 1.0, 1.0]), id="star-3"),
            pytest.param(build_two_path(2.0, 2.0, 2), id="two-path"),
            pytest.param(build_two_path(2.0, 2.25, 3), id="two-path-quarter"),
        ],
    )
    def test_builder_lattices(self, lat):
        self.assert_matches_path_walk(lat)

    def test_dark_detector_beside_live_ones(self):
        lat = dark_beside_live()
        self.assert_matches_path_walk(lat)
        live, children = experiments._live_graph(lat)
        assert list(live) == [4]
        assert children == {1: [4], 0: [1]}
        law = exact_selection_distribution(lat, Mode.AGGREGATE)
        assert law == {3: 0.0, 4: 1.0}


class TestExactSelection:
    def test_nested_tree_aggregate_matches_known_probabilities(self):
        lat, ids = nested_tree_lattice()
        dist = exact_selection_distribution(lat, Mode.AGGREGATE)
        assert dist[ids["d1"]] == pytest.approx(0.25, abs=1e-12)
        assert dist[ids["d2"]] == pytest.approx(0.25, abs=1e-12)
        assert dist[ids["d3"]] == pytest.approx(0.5, abs=1e-12)

    def test_nested_tree_naive_composes_multiplicatively(self):
        lat, ids = nested_tree_lattice()
        dist = exact_selection_distribution(lat, Mode.NAIVE)
        assert dist[ids["d1"]] == pytest.approx(1 / 6, abs=1e-12)
        assert dist[ids["d2"]] == pytest.approx(1 / 6, abs=1e-12)
        assert dist[ids["d3"]] == pytest.approx(2 / 3, abs=1e-12)

    def test_aggregate_equals_born_on_every_tree_instance(self):
        for name, lat in tree_merge_instances():
            born = oracle.born_distribution(oracle.lattice_amplitudes(lat))
            dist = exact_selection_distribution(lat, Mode.AGGREGATE)
            for det, p in born.entries.items():
                assert dist[det] == pytest.approx(p, abs=1e-12), name

    def test_single_lottery_modes_agree(self):
        lat = build_intensity_star([1.0, 1.0, 2.0])
        agg = exact_selection_distribution(lat, Mode.AGGREGATE)
        naive = exact_selection_distribution(lat, Mode.NAIVE)
        for det in lat.detectors:
            assert agg[det] == pytest.approx(naive[det], abs=1e-12)

    def test_distribution_sums_to_one(self):
        for _, lat in tree_merge_instances():
            for mode in Mode:
                dist = exact_selection_distribution(lat, mode)
                assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_law_is_the_same_under_compensated_sum(self, monkeypatch):
        # CPython 3.12+ adds a sum() of floats with compensation; a lottery
        # total added that way moved 30 of these 160 laws in the last bits
        rng = random.Random(1)
        laws = []
        for i in range(80):
            lat = random_layered_lattice(rng)
            if i % 2:
                lat, _ = shuffle_node_ids(lat, rng)
            for mode in Mode:
                laws.append((lat, mode, exact_selection_distribution(lat, mode)))
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        for lat, mode, native in laws:
            assert exact_selection_distribution(lat, mode) == native


# The exact law on two reconvergent lattices, ``build_grid(n, n, "column")``,
# at full precision, written by an enumerator that still ran the refusal
# waves.  On grids the waves reach past the lottery node's own edges,
# unlike on the trees and stars above, so these values pin that leaving
# the waves out does not change the law.
GRID_EXACT = {
    (3, Mode.NAIVE): {
        6: 0.014970414201183434, 7: 0.14332271279016845, 8: 0.8417068730086481,
    },
    (3, Mode.AGGREGATE): {
        6: 0.03418803418803419, 7: 0.22222222222222227, 8: 0.7435897435897436,
    },
    (4, Mode.NAIVE): {
        12: 5.647433900209981e-06,
        13: 0.002722273383965111,
        14: 0.06724804170390607,
        15: 0.9300240374782287,
    },
    (4, Mode.AGGREGATE): {
        12: 0.0019481426361655201,
        13: 0.02953288912438395,
        14: 0.17145006256036557,
        15: 0.7970689056790851,
    },
}


class TestExactSelectionOffTrees:
    @pytest.mark.parametrize("size,mode", list(GRID_EXACT))
    def test_grid_law_pinned(self, size, mode):
        dist = exact_selection_distribution(build_grid(size, size, "column"), mode)
        assert dist == pytest.approx(GRID_EXACT[size, mode], rel=0, abs=1e-12)

    @pytest.mark.parametrize("size,mode", list(GRID_EXACT))
    def test_engine_draws_follow_grid_law(self, size, mode):
        lat = build_grid(size, size, "column")
        law = exact_selection_distribution(lat, mode)
        plan = prepare(lat)
        trials = 20_000
        counts = count_winners(plan, mode, 1, 0, trials)
        statistic, dof = pooled_chi_square(counts, law, trials)
        assert dof >= 1
        assert statistic <= chi_square_critical(dof, 1 - 1e-6), (statistic, dof)

    def test_reach_nested_yet_not_born(self):
        # K(1,3,2): the source feeds three void nodes, each feeding both
        # detectors, so every lottery sees the reach set {4, 5}.  Each void
        # node draws 4 with probability x = I4 / (I4 + I5) and carries the
        # total on; the source then draws uniformly among the distinct
        # winners: P(4) = x^3 + 3x^2y * 2/3 + 3xy^2 * 1/3 = x^3 + 1.5xy.
        nodes = [Node(0, (0.0, 0.0), NodeKind.SOURCE)]
        nodes += [Node(m, (1.0, m - 2.0), NodeKind.VOID) for m in (1, 2, 3)]
        nodes += [
            Node(4, (2.0, -0.5), NodeKind.DETECTOR),
            Node(5, (2.0, 0.5), NodeKind.DETECTOR),
        ]
        ribs = [Rib(0, 1, 1.0), Rib(0, 2, 1.1), Rib(0, 3, 1.25)]
        ribs += [Rib(m, 4, 1.0) for m in (1, 2, 3)]
        ribs += [Rib(m, 5, length) for m, length in ((1, 1.0), (2, 1.3), (3, 1.05))]
        lat = Lattice(tuple(nodes), tuple(ribs), 1.0)
        born = oracle.born_distribution(oracle.lattice_amplitudes(lat))
        x = born.entries[4]
        y = 1.0 - x
        law = exact_selection_distribution(lat, Mode.AGGREGATE)
        assert law[4] == pytest.approx(x**3 + 1.5 * x * y, rel=0, abs=1e-12)
        assert law[5] == pytest.approx(1.0 - law[4], rel=0, abs=1e-12)
        assert tv_distance(law, born.entries) > 0.01


class TestInterferenceProfile:
    def test_profile_aligns_with_oracle(self):
        lat = build_slit_grid(3, 9, [2, 6])
        profile = experiments.interference_profile(lat, Mode.AGGREGATE, 5_000, 42)
        assert len(profile.positions) == len(lat.detectors)
        assert list(profile.positions) == sorted(profile.positions)
        amps = oracle.lattice_amplitudes(lat)
        for det, intensity in zip(profile.detector_ids, profile.oracle_intensity):
            assert intensity == pytest.approx(abs(amps[det]) ** 2, abs=1e-12)

    def test_frequencies_sum_to_one(self):
        lat = build_slit_grid(3, 5, [1, 3])
        profile = experiments.interference_profile(lat, Mode.AGGREGATE, 2_000, 1)
        assert sum(profile.empirical_frequency) == pytest.approx(1.0, abs=1e-12)


class TestModeByValue:
    """A mode's value runs its member: the same law, counts and artifacts."""

    def test_value_runs_its_member(self):
        grid, slit = build_grid(4, 4, "column"), build_slit_grid(3, 9, [2, 6])
        laws = {}
        for mode in Mode:
            laws[mode] = exact_selection_distribution(grid, mode)
            assert exact_selection_distribution(grid, mode.value) == laws[mode]
            by_value, by_member = (
                run_ensemble(grid, m, 500, 1) for m in (mode.value, mode)
            )
            assert by_value == by_member and by_value.mode is mode
            assert summary_json(by_value) == summary_json(by_member)
            profiles = [
                experiments.interference_profile(slit, m, 500, 1)
                for m in (mode.value, mode)
            ]
            assert profile_csv(profiles[0]) == profile_csv(profiles[1])
            assert ensemble_csv(profiles[0].ensemble) == ensemble_csv(
                profiles[1].ensemble
            )
        assert laws[Mode.NAIVE] != laws[Mode.AGGREGATE]

    def test_other_value_raises(self):
        lat = build_intensity_star([1.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="bogus"):
            run_ensemble(lat, "bogus", 10, 1)
        with pytest.raises(ValueError, match="bogus"):
            exact_selection_distribution(lat, "bogus")


@pytest.fixture(scope="module")
def grid_300():
    """Grid 4x4 at 300 trials: four positive Born cells, so 3 unpooled
    degrees of freedom, and the corner cell, expecting 2.1 draws, pooled
    to dof 2.  The gate tests set its statistics with ``_replace``."""
    result = run_ensemble(build_grid(4, 4, "column"), Mode.AGGREGATE, 300, 42)
    assert (result.dof, result.underpowered) == (2, False)
    return result._replace(tv_distance=0.0, chi_square=0.0)


def default_bound(dof: int, trials: int) -> float:
    return 0.5 * math.sqrt(chi_square_critical(dof, 0.99) / trials)


class TestGate:
    def test_tv_at_the_threshold_passes_and_just_above_fails(self, grid_300):
        for threshold in (0.05, None):
            bound = 0.05 if threshold else default_bound(3, 300)
            at = grid_300._replace(tv_distance=bound)
            assert gate(at, 0.99, threshold, 0.01) == (None, None)
            above = at._replace(tv_distance=math.nextafter(bound, 1.0))
            assert gate(above, 0.99, threshold, 0.01) == (
                None,
                f"threshold failure: tv {above.tv_distance:.5f} > {bound:.5g}",
            )

    def test_one_positive_cell_takes_the_default(self):
        result = run_ensemble(build_star(1, 1, [1.0]), Mode.AGGREGATE, 10, 42)
        for default in (0.01, 0.3):
            at = result._replace(tv_distance=default)
            assert gate(at, 0.99, None, default) == (None, None)
            above = result._replace(tv_distance=math.nextafter(default, 1.0))
            assert gate(above, 0.99, None, default)[1] == (
                f"threshold failure: tv {above.tv_distance:.5f} > {default:.5g}"
            )

    def test_default_bound_takes_the_unpooled_dof(self, grid_300):
        # pooled, the bound at dof 2 would fail this run
        bound = default_bound(3, 300)
        assert default_bound(2, 300) < bound
        at = grid_300._replace(tv_distance=bound)
        assert gate(at, 0.99, None, 0.01) == (None, None)

    def test_default_bound_is_floored_at_the_default(self, grid_300):
        # a million trials bound TV by 0.0017, under the floor 0.01
        many = grid_300._replace(trials=10**6, tv_distance=0.01)
        assert default_bound(3, 10**6) < 0.01
        assert gate(many, 0.99, None, 0.01) == (None, None)

    def test_explicit_threshold_wins_over_the_default(self, grid_300):
        # the default bound at 300 trials is 0.097
        result = grid_300._replace(tv_distance=0.05)
        assert gate(result, 0.99, None, 0.01) == (None, None)
        assert gate(result, 0.99, 0.02, 0.01)[1] == (
            "threshold failure: tv 0.05000 > 0.02"
        )
        loose = grid_300._replace(tv_distance=0.2)
        assert gate(loose, 0.99, 0.5, 0.01) == (None, None)

    def test_underpowered_run_warns_and_skips_the_chi_square_gate(self, grid_300):
        result = grid_300._replace(dof=0, underpowered=True, chi_square=1e9)
        assert gate(result, 0.99, None, 0.01) == (
            "warning: underpowered run: pooling the detectors that expect fewer "
            "than 5 of 300 trials leaves one cell, so no chi-square gate runs",
            None,
        )

    def test_chi_square_failure_names_its_dof(self, grid_300):
        critical = chi_square_critical(2, 0.99)
        at = grid_300._replace(chi_square=critical)
        assert gate(at, 0.99, None, 0.01) == (None, None)
        above = at._replace(chi_square=critical + 0.01)
        assert gate(above, 0.99, None, 0.01) == (
            None,
            f"threshold failure: chi2 {critical + 0.01:.3f} > critical 9.210 (dof 2)",
        )


class TestSerialization:
    def test_ensemble_csv_shape(self):
        lat = build_intensity_star([1.0, 3.0])
        result = run_ensemble(lat, Mode.AGGREGATE, 1_000, 5)
        text = ensemble_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == "detector_id,count,empirical,born,abs_error"
        assert len(lines) == 1 + len(lat.detectors)

    def test_profile_csv_shape(self):
        lat = build_slit_grid(3, 5, [1, 3])
        profile = experiments.interference_profile(lat, Mode.AGGREGATE, 500, 2)
        lines = profile_csv(profile).strip().split("\n")
        assert lines[0] == "screen_index,position,oracle_intensity,empirical_frequency"
        assert len(lines) == 1 + len(lat.detectors)

    def test_summary_json_byte_stable(self):
        lat = build_intensity_star([1.0, 3.0])
        a = summary_json(run_ensemble(lat, Mode.AGGREGATE, 1_000, 5))
        b = summary_json(run_ensemble(lat, Mode.AGGREGATE, 1_000, 5))
        assert a == b
        assert a.endswith("\n")
