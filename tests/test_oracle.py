import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_layered_lattice
from scoutnet import oracle
from scoutnet.errors import DarkTrialError, PathBudgetError
from scoutnet.lattice import build_grid, build_slit_grid, build_star, build_two_path


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

    def test_budget_exceeded(self):
        lat = build_grid(4, 4, "corner")
        with pytest.raises(PathBudgetError, match="path budget exceeded"):
            oracle.enumerate_paths(lat, lat.detectors[0], path_budget=3)


class TestLatticeAmplitudes:
    """The one-walk sums equal the per-detector path sums bit for bit."""

    @staticmethod
    def assert_equal_to_path_sums(lat):
        amps = oracle.lattice_amplitudes(lat)
        assert list(amps) == list(lat.detectors)
        for det in lat.detectors:
            paths = oracle.enumerate_paths(lat, det)
            assert amps[det] == oracle.detector_amplitude(paths)

    def test_random_layered_lattices(self):
        rng = random.Random(29)
        for _ in range(100):
            self.assert_equal_to_path_sums(random_layered_lattice(rng))

    def test_slit_screen_7x9(self):
        self.assert_equal_to_path_sums(build_slit_grid(7, 9, [2, 6]))


class TestDetectorAmplitude:
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
        amp = oracle.detector_amplitude(paths)
        assert cmath.isclose(amp, expected, abs_tol=1e-12)

    def test_empty_paths_give_zero(self):
        assert oracle.detector_amplitude([]) == 0j

    def test_mixed_detectors_rejected(self):
        paths = [
            oracle.PathRecord((0, 1), 1.0, 0.0),
            oracle.PathRecord((0, 2), 1.0, 0.0),
        ]
        with pytest.raises(ValueError, match="multiple detectors"):
            oracle.detector_amplitude(paths)

    @given(st.lists(st.floats(min_value=0, max_value=2 * math.pi), max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, phases):
        paths = [oracle.PathRecord((0, 9), 1.0, ph) for ph in phases]
        shuffled = list(paths)
        random.Random(0).shuffle(shuffled)
        assert cmath.isclose(
            oracle.detector_amplitude(paths),
            oracle.detector_amplitude(shuffled),
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
