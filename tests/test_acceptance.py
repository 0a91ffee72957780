"""Acceptance suite: one test per release criterion, fixed seeds, fixed
tolerances.  Each test prints a PASS line once its assertions hold
(visible with ``pytest -s tests/test_acceptance.py``)."""

import math
import random
import time

import pytest

from conftest import random_layered_lattice, tree_merge_instances
from scoutnet import experiments, oracle
from scoutnet.chronometry import dilation_time, queue_clock_count
from scoutnet.cli import EXIT_OK, main as cli_main
from scoutnet.engine import Mode, RibState, prepare, propagate_scouts, run_trial
from scoutnet.lattice import build_intensity_star, build_slit_grid, build_two_path


def test_c1_two_path_interference():
    start = time.perf_counter()
    lat = build_two_path(2.0, 2.0, 2, wavelength=1.0)
    plan = prepare(lat)
    det = lat.detectors[0]
    assert plan.intensities[det] == pytest.approx(4.0, abs=1e-9)

    lat_half = build_two_path(2.0, 2.5, 2, wavelength=1.0)
    amp = propagate_scouts(lat_half).amplitudes[lat_half.detectors[0]]
    assert abs(amp) ** 2 <= 1e-18
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 two-path interference: PASS ({elapsed:.3f}s)")


def test_c2_engine_oracle_amplitude_equivalence():
    start = time.perf_counter()
    rng = random.Random(20240817)
    for _ in range(20):
        lat = random_layered_lattice(rng, max_layers=8, max_width=6)
        assert len(lat.nodes) <= 200
        plan = prepare(lat)
        amps = oracle.lattice_amplitudes(lat)
        for det in lat.detectors:
            a = plan.scout_report.amplitudes[det]
            assert a.real == pytest.approx(amps[det].real, abs=1e-9)
            assert a.imag == pytest.approx(amps[det].imag, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 2 engine-oracle amplitude equivalence: PASS ({elapsed:.3f}s)")


def test_c3_star_born_exactness():
    start = time.perf_counter()
    lat = build_intensity_star([1.0, 1.0, 2.0])
    result = experiments.run_ensemble(
        lat, Mode.AGGREGATE, 200_000, master_seed=42, lattice_id="star-1-1-2"
    )
    expected = dict(zip(sorted(lat.detectors), (0.25, 0.25, 0.5)))
    for det, probability in expected.items():
        assert result.empirical[det] == pytest.approx(probability, abs=0.005)
    critical = experiments.chi_square_critical(2, 0.99)
    assert result.dof == 2
    assert result.chi_square < critical
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 3 star Born exactness: PASS "
        f"(tv={result.tv_distance:.5f}, chi2={result.chi_square:.3f}<{critical:.3f}, "
        f"{elapsed:.1f}s)"
    )


def test_c4_aggregate_tree_exactness_and_naive_deviation():
    reports = []
    for name, lat in tree_merge_instances():
        assert len(lat.detectors) <= 4
        born = oracle.born_distribution(oracle.lattice_amplitudes(lat))

        exact_agg = experiments.exact_selection_distribution(lat, Mode.AGGREGATE)
        for det, probability in born.entries.items():
            assert exact_agg[det] == pytest.approx(probability, abs=1e-12), name

        mc = experiments.run_ensemble(
            lat, Mode.AGGREGATE, 100_000, master_seed=7, lattice_id=name
        )
        assert mc.tv_distance <= 0.01, name

        exact_naive = experiments.exact_selection_distribution(lat, Mode.NAIVE)
        deviation = 0.5 * sum(
            abs(exact_naive[det] - born.entries[det]) for det in born.entries
        )
        reports.append(f"{name}: naive tv vs Born = {deviation:.4f}")
    print("\nACCEPTANCE 4 aggregate tree exactness: PASS")
    for line in reports:
        print(f"  {line}")


def test_c5_double_slit_fringes():
    start = time.perf_counter()
    two_slits = build_slit_grid(3, 9, [2, 6])
    amps = oracle.lattice_amplitudes(two_slits)
    ordered = sorted(
        two_slits.detectors, key=lambda d: two_slits.nodes[d].position[1]
    )
    profile = [abs(amps[d]) ** 2 for d in ordered]
    assert any(
        profile[i] < profile[i - 1] and profile[i] < profile[i + 1]
        for i in range(1, len(profile) - 1)
    )

    one_slit = build_slit_grid(3, 9, [2])
    amps1 = oracle.lattice_amplitudes(one_slit)
    profile1 = [abs(a) ** 2 for a in amps1.values()]
    peak = max(profile1)
    for i in range(1, len(profile1) - 1):
        if profile1[i] < profile1[i - 1] and profile1[i] < profile1[i + 1]:
            assert profile1[i] >= 0.1 * peak

    mc = experiments.interference_profile(
        two_slits, Mode.AGGREGATE, 100_000, master_seed=42
    )
    assert mc.ensemble.tv_distance <= 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 5 double-slit fringes: PASS "
        f"(tv={mc.ensemble.tv_distance:.5f}, {elapsed:.1f}s)"
    )


def test_c6_winner_path_invariant():
    rng = random.Random(5150)
    trials_done = 0
    while trials_done < 1000:
        lat = random_layered_lattice(rng)
        plan = prepare(lat)
        ribs = {rib.endpoints for rib in lat.ribs}
        for index in range(20):
            out = run_trial(lat, Mode.AGGREGATE, 314159, index, plan=plan)
            path = out.surviving_path
            assert path[0] == lat.source
            assert path[-1] == out.winner
            assert len(set(path)) == len(path)  # simple
            path_ribs = {tuple(sorted(p)) for p in zip(path, path[1:])}
            assert path_ribs <= ribs
            confirmed = {
                rib for rib, s in out.rib_states.items() if s is RibState.CONFIRMED
            }
            assert confirmed == path_ribs
            assert all(
                s in (RibState.CONFIRMED, RibState.VOID)
                for s in out.rib_states.values()
            )
            trials_done += 1
    print(f"\nACCEPTANCE 6 winner-path invariant: PASS ({trials_done} trials)")


def test_c7_queue_clock_linearity():
    for d_s in (5, 10, 20):
        assert queue_clock_count(d_s, 1, 1) == d_s
    counts_m2 = [queue_clock_count(d_s, 1, 2) for d_s in (5, 10, 20)]
    assert counts_m2 == [3, 5, 10]
    print("\nACCEPTANCE 7 queue-clock linearity: PASS")


def test_c8_dilation_relation():
    assert dilation_time(1.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert dilation_time(1.0, 0.6) == pytest.approx(1.25, abs=1e-12)
    assert dilation_time(2.0, 0.8) == pytest.approx(10.0 / 3.0, abs=1e-12)
    for i in range(100):
        v = 0.99 * i / 99
        t = dilation_time(1.0, v)
        assert t * math.sqrt(1.0 - v * v) == pytest.approx(1.0, rel=1e-12)
    print("\nACCEPTANCE 8 dilation relation: PASS")


def test_c9_determinism_and_parallel_invariance(tmp_path):
    args = [
        "--scenario", "star", "--detectors", "3", "--intensities", "1,1,2",
        "--trials", "20000", "--seed", "42", "--tv-threshold", "0.05",
    ]
    out1 = tmp_path / "jobs1"
    out8 = tmp_path / "jobs8"
    assert cli_main(args + ["--jobs", "1", "--out", str(out1)]) == EXIT_OK
    assert cli_main(args + ["--jobs", "8", "--out", str(out8)]) == EXIT_OK
    for name in ("ensemble.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out8 / name).read_bytes()
    # and a repeated single-job run is byte-identical too
    out1b = tmp_path / "jobs1b"
    assert cli_main(args + ["--jobs", "1", "--out", str(out1b)]) == EXIT_OK
    for name in ("ensemble.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out1b / name).read_bytes()
    print("\nACCEPTANCE 9 determinism and parallel invariance: PASS")
