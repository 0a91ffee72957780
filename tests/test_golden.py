"""Byte-level contract: CLI artifacts for fixed configs and seeds never change.

``tests/golden/<case>/`` holds the files one CLI run wrote; every rerun,
at any job count, must exit the same way and write exactly those bytes.
"""

from pathlib import Path

import pytest

from scoutnet.cli import EXIT_OK, EXIT_THRESHOLD, main

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
