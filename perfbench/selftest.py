"""Self-tests of the benchmark's own references.

    python3 perfbench/selftest.py

The transfer-matrix amplitudes must match the program's sum-over-paths
oracle on small slit, star, two-path and grid lattices, and the stdlib
chi-square quantile must match scipy's.  scipy is imported here only, never
in a benchmark run.
"""

from __future__ import annotations

import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference  # noqa: E402
from run import _importtime_totals  # noqa: E402
from workloads import WORKLOADS, tv_threshold, use_source_tree  # noqa: E402

use_source_tree()
from scoutnet import oracle  # noqa: E402
from scoutnet.lattice import (  # noqa: E402
    build_grid,
    build_intensity_star,
    build_slit_grid,
    build_star,
    build_two_path,
)


class TransferMatrixMatchesOracle(unittest.TestCase):
    def assert_matches(self, lattice) -> None:
        expected = oracle.lattice_amplitudes(lattice)
        got = reference.transfer_amplitudes(lattice)
        self.assertEqual(sorted(got), sorted(expected))
        # amplitudes are sums of unit phasors, so 1 is their natural unit;
        # a destructive two-path detector sums to ~1e-16
        scale = max(1.0, *(abs(a) for a in expected.values()))
        for det, amp in expected.items():
            self.assertLessEqual(abs(got[det] - amp), 1e-9 * scale, det)

    def test_slit_screens(self):
        for columns, rows, slits in ((3, 9, [2, 6]), (4, 5, [1, 3]), (5, 7, [3])):
            with self.subTest(columns=columns, rows=rows, slits=slits):
                self.assert_matches(build_slit_grid(columns, rows, slits))

    def test_stars(self):
        self.assert_matches(build_intensity_star([1.0, 1.0, 2.0]))
        self.assert_matches(build_intensity_star([0.3, 3.9]))
        self.assert_matches(build_star(3, 2, [1.0, 1.3, 0.7]))

    def test_two_path(self):
        for len_b in (2.0, 2.5, 2.25):
            self.assert_matches(build_two_path(2.0, len_b, 3))

    def test_reconvergent_grid(self):
        self.assert_matches(build_grid(4, 3, detector_mode="column", wavelength=0.9))

    def test_workload_lattices(self):
        for workload in WORKLOADS.values():
            with self.subTest(workload=workload.name):
                self.assert_matches(workload.build())


class ChiSquareQuantile(unittest.TestCase):
    def test_matches_scipy(self):
        from scipy.stats import chi2

        for dof in (1, 2, 3, 8, 30):
            for alpha in (0.05, 0.01, 1e-6, 1e-9):
                with self.subTest(dof=dof, alpha=alpha):
                    got = reference.chi2_upper_quantile(dof, alpha)
                    self.assertAlmostEqual(got, chi2.isf(alpha, dof), delta=1e-7 * got)

    def test_tv_threshold_is_implied_by_chi_square(self):
        rng = random.Random(3)
        for _ in range(200):
            weights = [rng.random() + 0.01 for _ in range(rng.randint(2, 9))]
            probs = {i: w / sum(weights) for i, w in enumerate(weights)}
            n = rng.randint(10, 5000)
            counts = dict.fromkeys(probs, 0)
            for k in rng.choices(list(probs), weights=list(probs.values()), k=n):
                counts[k] += 1
            stat, _ = reference.chi_square(counts, probs)
            tv = 0.5 * sum(abs(counts[k] / n - p) for k, p in probs.items())
            self.assertLessEqual(tv, tv_threshold(n, stat) + 1e-12)


class ImportTimeReport(unittest.TestCase):
    def test_totals(self):
        report = "\n".join(
            [
                "import time: self [us] | cumulative | imported package",
                "import time:       100 |        100 |       numpy.core",
                "import time:       200 |        300 |     numpy",
                "import time:        50 |        350 |   scipy.stats",
                "import time:        10 |        360 | scipy",
                "import time:        30 |         30 |   yaml.reader",
                "import time:        20 |         50 | yaml",
                "import time:        70 |        480 | scoutnet.cli",
            ]
        )
        totals = _importtime_totals(report)
        self.assertAlmostEqual(totals["scipy"], 360e-6)
        self.assertAlmostEqual(totals["yaml"], 50e-6)
        self.assertAlmostEqual(totals["scoutnet"], 70e-6)


if __name__ == "__main__":
    unittest.main()
