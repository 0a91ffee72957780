import cmath
import json
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import diamond_chain, path_amplitudes, path_sum, random_layered_lattice
from scoutnet import oracle
from scoutnet.engine import prepare, propagate_scouts
from scoutnet.errors import DarkTrialError, PathBudgetError, ScoutnetError
from scoutnet.lattice import (
    build_grid,
    build_intensity_star,
    build_slit_grid,
    build_star,
    build_two_path,
)

PINNED = json.loads((Path(__file__).parent / "oracle_amplitudes.json").read_text())


class TestEnumeratePaths:
    def test_two_path_lattice_has_two_paths(self):
        lat = build_two_path(2.0, 2.5, 2)
        paths = oracle.enumerate_paths(lat, lat.detectors[0])
        assert len(paths) == 2

    def test_star_arm_has_one_path_per_detector(self):
        lat = build_star(3, 2, [1.0, 1.0, 1.0])
        for det in lat.detectors:
            assert len(oracle.enumerate_paths(lat, det)) == 1

    def test_grid_corner_to_corner_has_six_paths(self):
        lat = build_grid(3, 3, "corner")
        assert len(oracle.enumerate_paths(lat, lat.detectors[0])) == 6

    def test_paths_are_lexicographic_and_simple(self):
        lat = build_grid(3, 3, "corner")
        paths = oracle.enumerate_paths(lat, lat.detectors[0])
        node_lists = [p.nodes for p in paths]
        assert node_lists == sorted(node_lists)
        for p in paths:
            assert len(set(p.nodes)) == len(p.nodes)

    def test_phase_matches_total_length(self):
        lat = build_two_path(2.0, 2.5, 2)
        for p in oracle.enumerate_paths(lat, lat.detectors[0]):
            expected = math.fmod(
                2 * math.pi * p.total_length / lat.wavelength, 2 * math.pi
            )
            assert p.phase == pytest.approx(expected, abs=1e-12)

    def test_budget_exceeded(self, monkeypatch):
        lat = build_grid(4, 4, "corner")
        monkeypatch.setattr(oracle, "DEFAULT_PATH_BUDGET", 3)
        with pytest.raises(PathBudgetError, match="path budget exceeded"):
            oracle.enumerate_paths(lat, lat.detectors[0])


class TestPinnedAmplitudes:
    """Both sums over paths, pinned by ``repr``.

    ``oracle_amplitudes.json`` holds the ``repr`` of the path-by-path sum
    (under ``paths``) as written by the per-rib-lookup walk that preceded
    the prebuilt forward children, and of the class sum
    ``lattice_amplitudes`` (under ``classes``).  ``path_amplitudes`` adds
    each detector's unit phasors in the walk's order, so a change to the
    walk's order, lengths or phases moves its last bits.
    """

    @staticmethod
    def assert_pinned(lat, key):
        assert repr(path_amplitudes(lat)) == PINNED["paths"][key]
        # a class key's fields are read little-endian whatever the host's
        # order; patching sys.byteorder catches a decode that reads it
        # again, which would take slit 7x9's two rib lengths' counts
        # last-first, though it leaves struct and memoryview little-endian
        for order in ("little", "big"):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sys, "byteorder", order)
                got = repr(oracle.lattice_amplitudes(lat))
            assert got == PINNED["classes"][key], order

    def test_slit_screen_7x9(self):
        self.assert_pinned(build_slit_grid(7, 9, [2, 6]), "slit-7x9")

    @pytest.mark.parametrize("n", range(3, 9))
    def test_column_grid(self, n):
        self.assert_pinned(build_grid(n, n, "column"), f"grid-{n}x{n}-column")

    def test_random_layered_lattices(self):
        for seed in range(50):
            lat = random_layered_lattice(random.Random(seed))
            self.assert_pinned(lat, f"random-{seed}")



def intensities(amplitudes: dict[int, complex]) -> dict[int, float]:
    return {det: a.real * a.real + a.imag * a.imag for det, a in amplitudes.items()}


def assert_close(got: dict[int, float], want: dict[int, float], rel: float) -> None:
    """Equal within ``rel`` of the largest value; amplitudes are sums of
    unit phasors, so the scale is at least 1."""
    assert list(got) == list(want)
    scale = max(1.0, *map(abs, want.values()))
    for det, value in want.items():
        assert abs(got[det] - value) <= rel * scale, (det, got[det], value)


# the lattices the CLI scenarios and the benchmark build (the CLI's λ is 1), and
# the slit and a grid at other wavelengths
CANONICAL = {
    "star": build_star(3, 2, [1.0, 1.0, 1.0]),
    "star-1-1-2": build_intensity_star([1.0, 1.0, 2.0]),
    "two-path": build_two_path(2.0, 2.0, 2),
    "two-path-quarter": build_two_path(2.0, 2.25, 3),
    "double-slit": build_slit_grid(3, 9, [2, 6], wavelength=1.0),
    "slit-7x9": build_slit_grid(7, 9, [2, 6], wavelength=1.0),
    "slit-7x9-0.7": build_slit_grid(7, 9, [2, 6]),
    "grid-4x4": build_grid(4, 4, "column"),
    "grid-8x8-0.73": build_grid(8, 8, "column", wavelength=0.73),
}


class TestClassAmplitudes:
    """The class sum against the walk and the engine, and its budget."""

    @staticmethod
    def assert_three_way(lat):
        classes = intensities(oracle.lattice_amplitudes(lat))
        assert_close(classes, intensities(path_amplitudes(lat)), 1e-12)
        assert_close(prepare(lat).intensities, classes, 1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_three_way_on_random_layered_lattices(self, seed):
        self.assert_three_way(random_layered_lattice(random.Random(seed)))

    @pytest.mark.parametrize("name", sorted(CANONICAL))
    def test_three_way_on_canonical_scenarios(self, name):
        self.assert_three_way(CANONICAL[name])

    @pytest.mark.parametrize(
        "lat",
        [
            pytest.param(build_grid(12, 12, "column", 0.73), id="grid-12x12"),
            pytest.param(build_grid(100, 100, "column", 0.73), id="grid-100x100"),
            pytest.param(build_slit_grid(10, 9, [2, 6]), id="slit-10x9"),
        ],
    )
    def test_engine_beyond_the_walk(self, lat):
        # each has over a million path prefixes, past the walk's budget;
        # test_engine's TestRecurrenceBeyondOracle has the column grids'
        # closed form
        want = oracle.lattice_amplitudes(lat)
        got = propagate_scouts(lat).amplitudes
        scale = max(map(abs, want.values()))
        for det, amp in want.items():
            assert abs(got[det] - amp) <= 1e-12 * scale

    def test_budget_counts_class_updates(self, monkeypatch):
        # unit ribs: each node of a corner grid holds one class, and every
        # rib leaves a passing node, so there is one update per rib
        lat = build_grid(4, 5, "corner")
        updates = len(lat.ribs)
        monkeypatch.setattr(oracle, "DEFAULT_CLASS_BUDGET", updates)
        assert oracle.lattice_amplitudes(lat) == path_amplitudes(lat)
        monkeypatch.setattr(oracle, "DEFAULT_CLASS_BUDGET", updates - 1)
        with pytest.raises(PathBudgetError, match="path budget exceeded") as err:
            oracle.lattice_amplitudes(lat)
        assert (err.value.budget, err.value.count) == (updates - 1, updates)
        assert "class updates" in str(err.value)

    def test_classes_merge_paths_of_equal_length(self):
        # two arms of two unit ribs each: one class of two paths
        lat = build_two_path(2.0, 2.0, 2)
        assert oracle.lattice_amplitudes(lat) == {lat.detectors[0]: 2 + 0j}


class TestDetectorAmplitude:
    """The per-path sum that ``path_amplitudes`` adds for each detector."""

    @pytest.mark.parametrize(
        "phases,expected",
        [
            ((0.0, 0.0), 2 + 0j),
            ((0.0, math.pi), 0j),
            ((0.0, math.pi / 2), 1 + 1j),
        ],
    )
    def test_unit_vector_sums(self, phases, expected):
        paths = [
            oracle.PathRecord(nodes=(0, i + 1, 9), total_length=1.0, phase=ph)
            for i, ph in enumerate(phases)
        ]
        amp = path_sum(paths)
        assert cmath.isclose(amp, expected, abs_tol=1e-12)

    def test_empty_paths_give_zero(self):
        assert path_sum([]) == 0j

    @given(st.lists(st.floats(min_value=0, max_value=2 * math.pi), max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, phases):
        paths = [oracle.PathRecord((0, 9), 1.0, ph) for ph in phases]
        shuffled = list(paths)
        random.Random(0).shuffle(shuffled)
        assert cmath.isclose(
            path_sum(paths),
            path_sum(shuffled),
            abs_tol=1e-9,
        )


class TestBornDistribution:
    def test_one_three_intensities(self):
        dist = oracle.born_distribution({1: 1 + 0j, 2: complex(math.sqrt(3), 0)})
        assert dist.entries == pytest.approx({1: 0.25, 2: 0.75})

    def test_zero_five_intensities(self):
        dist = oracle.born_distribution({1: 0j, 2: complex(math.sqrt(5), 0)})
        assert dist.entries == pytest.approx({1: 0.0, 2: 1.0})

    def test_single_detector(self):
        dist = oracle.born_distribution({7: 0.3 + 0.1j})
        assert dist.entries == {7: 1.0}

    def test_dark_configuration_rejected(self):
        with pytest.raises(DarkTrialError, match="dark configuration"):
            oracle.born_distribution({1: 0j, 2: 0j})

    def test_overflow_is_an_error(self):
        # each intensity is finite, their sum is not
        with pytest.raises(ScoutnetError, match="intensity overflow"):
            oracle.born_distribution({1: 1e154 + 0j, 2: 1e154 + 0j})
        # the amplitude 2**600 is finite, its square is not
        amplitudes = oracle.lattice_amplitudes(diamond_chain(600))
        assert amplitudes == {1801: 2.0**600 + 0j}
        with pytest.raises(ScoutnetError, match="intensity overflow"):
            oracle.born_distribution(amplitudes)
        # 2**1030 paths are past the largest float
        with pytest.raises(ScoutnetError, match="intensity overflow"):
            oracle.lattice_amplitudes(diamond_chain(1030))

    def test_many_equal_arms_sum_to_one(self):
        # the built-in sum of 100k entries of 1e-5 is 1 - 1.9e-12, which
        # once failed the check: a 100k-detector star ended in a traceback
        dist = oracle.born_distribution(dict.fromkeys(range(100_000), 1 + 0j))
        assert set(dist.entries.values()) == {1.0 / 100_000}
        assert math.fsum(dist.entries.values()) == 1.0

    def test_entries_off_one_are_rejected(self):
        with pytest.raises(ValueError, match="sum to"):
            oracle.BornDistribution({1: 0.5, 2: 0.5 + 1e-9}, {1: 1.0, 2: 1.0})

    def test_probabilities_sum_to_one(self):
        rng = random.Random(3)
        for _ in range(10):
            lat = random_layered_lattice(rng)
            dist = oracle.born_distribution(oracle.lattice_amplitudes(lat))
            assert sum(dist.entries.values()) == pytest.approx(1.0, abs=1e-12)


class TestSlitProfiles:
    def test_symmetric_geometry_gives_symmetric_profile(self):
        lat = build_slit_grid(3, 9, [2, 6])
        amps = oracle.lattice_amplitudes(lat)
        dets = sorted(lat.detectors, key=lambda d: lat.nodes[d].position[1])
        profile = [abs(amps[d]) ** 2 for d in dets]
        for left, right in zip(profile, reversed(profile)):
            assert left == pytest.approx(right, abs=1e-9)

    def test_two_slits_have_interior_minimum(self):
        lat = build_slit_grid(3, 9, [2, 6])
        amps = oracle.lattice_amplitudes(lat)
        dets = sorted(lat.detectors, key=lambda d: lat.nodes[d].position[1])
        profile = [abs(amps[d]) ** 2 for d in dets]
        assert any(
            profile[i] < profile[i - 1] and profile[i] < profile[i + 1]
            for i in range(1, len(profile) - 1)
        )

    def test_single_slit_is_structureless(self):
        lat = build_slit_grid(3, 9, [2])
        amps = oracle.lattice_amplitudes(lat)
        profile = [abs(a) ** 2 for a in amps.values()]
        peak = max(profile)
        for i in range(1, len(profile) - 1):
            if profile[i] < profile[i - 1] and profile[i] < profile[i + 1]:
                assert profile[i] >= 0.1 * peak
