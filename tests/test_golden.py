"""Byte-level contract: CLI artifacts for fixed configs and seeds never change.

``tests/golden/<case>/`` holds the files one CLI run wrote; every rerun,
at any job count, must exit the same way and write exactly those bytes.
Each case's counts must also follow the protocol's exact law, so that
regenerated goldens cannot pin a biased stream.  The cases are rerun
under ``compensated_sum``, CPython 3.12's ``sum``, so that any interpreter
catches a float sum whose order depends on the version.
"""

import builtins
import csv
import math
from pathlib import Path

import pytest

from conftest import compensated_sum, pooled_chi_square
from scoutnet import cli
from scoutnet.cli import EXIT_OK, EXIT_THRESHOLD, main
from scoutnet.engine import Mode
from scoutnet.experiments import chi_square_critical, exact_selection_distribution

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "star": (
        ["--scenario", "star", "--intensities", "1,1,2", "--trials", "2000",
         "--seed", "42", "--trace"],
        EXIT_OK,
    ),
    "double-slit": (
        ["--scenario", "double-slit", "--trials", "2000", "--seed", "42"],
        EXIT_OK,
    ),
    # naive mode is not Born on the slit screen: the parent exited 2 here
    "double-slit-naive": (
        ["--scenario", "double-slit", "--mode", "naive", "--trials", "2000",
         "--seed", "42"],
        EXIT_THRESHOLD,
    ),
    # the traced cases below pin multi-lottery merges, refusal replays and
    # confirmation walks: 3 lotteries on the slit screen, 7 on the grid
    "double-slit-trace": (
        ["--scenario", "double-slit", "--trials", "2000", "--seed", "42",
         "--trace"],
        EXIT_OK,
    ),
    # naive mode on a reconvergent grid is not Born: exits 2
    "grid-naive-trace": (
        ["--scenario", "grid", "--grid-w", "4", "--grid-h", "4", "--mode",
         "naive", "--trials", "2000", "--seed", "42", "--trace"],
        EXIT_THRESHOLD,
    ),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden_bytes(tmp_path, case, jobs):
    argv, exit_code = CASES[case]
    assert main([*argv, "--jobs", jobs, "--out", str(tmp_path)]) == exit_code
    expected = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        want = (GOLDEN / case / name).read_bytes()
        assert (tmp_path / name).read_bytes() == want, name


def test_compensated_sum_differs_from_left_to_right():
    weights = [1.0, 1e-16, 1e-16]
    left_to_right = 0.0
    for w in weights:
        left_to_right += w
    assert left_to_right == 1.0
    assert compensated_sum(weights) == math.fsum(weights) == 1.0000000000000002
    assert compensated_sum([1, True, 2]) == 4
    assert compensated_sum([1, 0.5, 2]) == 3.5
    assert compensated_sum([0.5j, 1.0]) == 1 + 0.5j


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_bytes_under_compensated_sum(monkeypatch, tmp_path, case):
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    test_artifacts_match_golden_bytes(tmp_path, case, "1")


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_counts_follow_exact_law(case):
    # the lattice and mode the CLI builds for the case; the law is the
    # protocol's own, not Born, so the naive cases must pass it too
    config = cli._merge_config(cli._build_parser().parse_args(CASES[case][0]))
    lattice = cli._scenario_lattice(config)
    law = exact_selection_distribution(lattice, Mode(config.mode))
    with open(GOLDEN / case / "ensemble.csv", newline="") as f:
        counts = {int(r["detector_id"]): int(r["count"]) for r in csv.DictReader(f)}
    assert sum(counts.values()) == config.trials
    statistic, dof = pooled_chi_square(counts, law, config.trials)
    assert dof >= 1
    assert statistic <= chi_square_critical(dof, 1 - 1e-6), (statistic, dof)
