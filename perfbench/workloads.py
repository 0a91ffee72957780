"""The benchmark's workloads: which scenario each one runs, and with what flags.

Every workload is one CLI scenario.  The benchmark seed becomes the CLI's
``--seed``; nothing else depends on it, so the same seed gives the same
inputs and the same artifacts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Upper-tail probability of every chi-square gate, the CLI's and the
# benchmark's own.  Each run checks one artifact set, so this is the chance
# that a correct program fails one run.
CHI_ALPHA = 1e-6
# A run repeats its scenario at least this many times, even when that
# outlasts --seconds, so that every metric is a median of several.
MIN_REPS = 3
# The timed process runs every workload at --jobs 1, so all of a
# repetition's work runs in the thread the speed probe measures; the
# cross-check process runs it at --jobs 2, through the process pool.
TIMED_JOBS = 1
CROSS_JOBS = 2

STAR_TARGETS = (1.0, 1.0, 2.0)
SLIT_ROWS = 9
SLIT_OPEN = (2, 6)


@dataclass(frozen=True)
class Workload:
    name: str
    trials: int
    # 0 for the intensity star, else the slit screen's column count
    slit_columns: int = 0

    @property
    def scenario(self) -> str:
        return "double-slit" if self.slit_columns else "star"

    @property
    def detectors(self) -> int:
        return SLIT_ROWS if self.slit_columns else len(STAR_TARGETS)

    def argv(self, seed: int, jobs: int, out: Path, tv_threshold: float) -> list[str]:
        if self.slit_columns:
            shape = [
                "--grid-w", str(self.slit_columns),
                "--grid-h", str(SLIT_ROWS),
                "--slits", ",".join(map(str, SLIT_OPEN)),
            ]  # fmt: skip
        else:
            shape = ["--intensities", ",".join(f"{t:g}" for t in STAR_TARGETS)]
        return [
            "--scenario", self.scenario, *shape,
            "--trials", str(self.trials),
            "--jobs", str(jobs),
            "--seed", str(seed),
            "--tv-threshold", repr(tv_threshold),
            "--chi-percentile", repr(1.0 - CHI_ALPHA),
            "--out", str(out),
        ]  # fmt: skip

    def build(self):
        """The lattice the CLI builds for ``argv``, from the public builders."""
        from scoutnet.lattice import build_intensity_star, build_slit_grid

        if self.slit_columns:
            return build_slit_grid(
                self.slit_columns, SLIT_ROWS, SLIT_OPEN, wavelength=1.0
            )
        return build_intensity_star(STAR_TARGETS, wavelength=1.0)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("star-born", trials=20_000),
        Workload("slit-deep", trials=1_000, slit_columns=7),
    )
}


def tv_threshold(trials: int, chi_critical: float) -> float:
    """The TV bound implied by the chi-square gate.

    By Cauchy-Schwarz, TV = 1/2 sum|p^ - p| <= 1/2 sqrt(chi2 / n), so a run
    that passes the chi-square gate at ``chi_critical`` also passes this TV
    gate; the TV gate adds no false alarms of its own.
    """
    return 0.5 * math.sqrt(chi_critical / trials)


def use_source_tree() -> None:
    """Import scoutnet from the checkout's ``src``, or exit if it is missing."""
    if not (SRC / "scoutnet" / "cli.py").is_file():
        sys.exit(f"perfbench: no scoutnet sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
