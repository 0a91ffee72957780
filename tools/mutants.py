"""Standing mutation check: every listed mutant must be killed by its tests.

Each entry is ``(name, file, old, new, tests)``.  For each one the script
copies the tree into a temporary directory, replaces the single
occurrence of ``old`` in ``file`` with ``new``, and runs the named tests
there with pytest.  A mutant *survives* when those tests pass; an entry is
*stale* when ``old`` does not occur exactly once in ``file`` (the code has
moved: rebuild the entry) or when pytest cannot run its tests.  Before
any mutant, the named tests must pass on an unmutated copy.

Run from the repository root:

    python tools/mutants.py            # every mutant
    python tools/mutants.py NAME ...   # only these
    python tools/mutants.py --list

Exits 0 when every mutant is killed, 1 otherwise.  Standard library only,
apart from the test suite's own dependencies.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "README.md", "pyproject.toml")

ENGINE = "src/scoutnet/engine.py"
RNG = "src/scoutnet/rng.py"
ORACLE = "src/scoutnet/oracle.py"
SCOUTS = "tests/test_engine.py::TestPropagateScouts"
BEYOND = "tests/test_engine.py::TestRecurrenceBeyondOracle"
BOUNDARY = "tests/test_engine.py::TestPathBudgetBoundary"
REFERENCE = "tests/test_engine.py::TestReferenceKernel"
PREPARE = "tests/test_engine.py::TestPrepare"
GOLDEN = "tests/test_golden.py"
STREAM = "tests/test_rng.py"
STREAM_PROPERTY = "tests/test_rng.py::test_lane_batch_equals_sequential_generator"
CLASSES = "tests/test_oracle.py::TestClassAmplitudes"

MUTANTS: list[tuple[str, str, str, str, tuple[str, ...]]] = [
    # the rib-by-rib forward half
    (
        "turn-without-fmod",
        ENGINE,
        "turn = math.fmod(TWO_PI * ribs[idx].length / wavelength, TWO_PI)",
        "turn = TWO_PI * ribs[idx].length / wavelength",
        (SCOUTS,),
    ),
    (
        "one-scout-per-rib",
        ENGINE,
        "paths[v] += n",
        "paths[v] += 1",
        (SCOUTS, BOUNDARY, BEYOND),
    ),
    (
        "visit-by-id-only",
        ENGINE,
        "key=lambda u: (dist[u], u),",
        "key=lambda u: u,",
        (SCOUTS,),
    ),
    # the plan's backward sweep
    (
        "sweep-walks-forward",
        ENGINE,
        "for u in reversed(report.children):",
        "for u in report.children:",
        (PREPARE, REFERENCE),
    ),
    (
        "seed-without-all-seeded-guard",
        ENGINE,
        "seeded = all(base_det[v] >= 0 for v in kids)",
        "seeded = True",
        (PREPARE, REFERENCE),
    ),
    # the reverse half
    (
        "refusal-wave-on-first-dead-edge",
        ENGINE,
        "if dead_in[v] == in_degree[v]:",
        "if dead_in[v] >= 1:",
        ("tests/test_engine.py::TestRefusalInvariant", GOLDEN),
    ),
    (
        "competitors-in-reverse-order",
        ENGINE,
        "dets = sorted(weights_by_det)",
        "dets = sorted(weights_by_det, reverse=True)",
        (REFERENCE,),
    ),
    (
        "merge-keeps-smaller-weight",
        ENGINE,
        "if det not in weights or w > weights[det]:",
        "if det not in weights or w < weights[det]:",
        (REFERENCE,),
    ),
    (
        "biased-lottery-select",
        ENGINE,
        "index = bisect_right(sums, rng.random() * total)",
        "index = bisect_right(sums, rng.random() * total * 0.9)",
        ("tests/test_engine.py::TestLotterySelect",),
    ),
    (
        "aggregate-carries-own-weight",
        ENGINE,
        "total if mode is _AGGREGATE else weights[index]",
        "weights[index]",
        ("tests/test_engine.py::TestLotterySelect", GOLDEN),
    ),
    (
        "lotteries-kept-across-trials",
        ENGINE,
        "held = list(plan.lotteries)",
        'held = plan.__dict__.setdefault("_held", list(plan.lotteries))',
        (REFERENCE,),
    ),
    (
        "overflow-passes-as-intensity",
        ENGINE,
        "if not math.isfinite(intensity):",
        "if False:",
        (PREPARE,),
    ),
    (
        "intensity-from-abs",
        ENGINE,
        "det: a.real * a.real + a.imag * a.imag",
        "det: abs(a) ** 2",
        (GOLDEN,),
    ),
    # the per-trial splitmix64 streams
    (
        "draw-drops-twelve-bits",
        RNG,
        "(z >> 11).to_bytes",
        "(z >> 12).to_bytes",
        (STREAM,),
    ),
    (
        "weyl-offset-from-zero",
        RNG,
        "(j + 1) * _GOLDEN & _MASK for j in range(n)",
        "j * _GOLDEN & _MASK for j in range(n)",
        (STREAM,),
    ),
    (
        "lane-unmasked-before-multiply",
        RNG,
        "z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask",
        "z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask",
        (STREAM,),
    ),
    # the blocks of trials
    (
        "block-seeds-from-first-trial",
        RNG,
        "c = (master_seed + (first + 1) * _GOLDEN) & _MASK",
        "c = (master_seed + first * _GOLDEN) & _MASK",
        (STREAM_PROPERTY, GOLDEN),
    ),
    (
        "trial-takes-next-trials-draws",
        RNG,
        "iter(floats[t::trials])",
        "iter(floats[t + 1 :: trials])",
        (STREAM_PROPERTY, GOLDEN),
    ),
    # the cross-checks and the statistics
    (
        "enumerator-merge-min",
        "src/scoutnet/experiments.py",
        "weights[det] = max(weights[det], w) if det in weights else w",
        "weights[det] = min(weights[det], w) if det in weights else w",
        ("tests/test_experiments.py::TestExactSelectionOffTrees",),
    ),
    (
        "enumerator-lotteries-forward",
        "src/scoutnet/experiments.py",
        "order = sorted(out_live, key=lambda u: (dist[u], u), reverse=True)",
        "order = sorted(out_live, key=lambda u: (dist[u], u))",
        ("tests/test_experiments.py", GOLDEN),
    ),
    (
        "class-merge-overwrites",
        ORACLE,
        "there[key] = get(key, 0) + paths",
        "there[key] = paths",
        (CLASSES,),
    ),
    (
        "class-key-drops-a-length",
        ORACLE,
        "unit = {length: 1 << (8 * width * i) for i, length in enumerate(lengths)}",
        "unit = {length: (1 << (8 * width * i)) * (i > 0) "
        "for i, length in enumerate(lengths)}",
        (CLASSES,),
    ),
    (
        "oracle-walk-child-order",
        ORACLE,
        "for v, idx in lattice.adjacency[u]",
        "for v, idx in reversed(lattice.adjacency[u])",
        ("tests/test_oracle.py::TestPinnedAmplitudes",),
    ),
    (
        "continued-fraction-coefficient",
        "src/scoutnet/experiments.py",
        "an = -i * (i - a)",
        "an = -i * (i + a)",
        ("tests/test_experiments.py::TestChiSquareCritical",),
    ),
    (
        "top-level-yaml-import",
        "src/scoutnet/cli.py",
        "from . import experiments\n",
        "import yaml\nfrom . import experiments\n",
        ("tests/test_cli.py::test_cli_import_loads_no_optional_dependency",),
    ),
]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        path = ROOT / name
        if path.is_dir():
            shutil.copytree(path, dest / name, ignore=ignore)
        else:
            shutil.copy2(path, dest / name)


def run_tests(tree: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit status for ``tests`` run inside ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    done = subprocess.run(
        [*command, *tests], cwd=tree, env=env, capture_output=True, text=True
    )
    return done.returncode


def check(name: str, file: str, old: str, new: str, tests: tuple[str, ...]) -> str:
    """``killed``, ``survived`` or ``stale: <why>`` for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        target = tree / file
        text = target.read_text()
        if text.count(old) != 1:
            return f"stale: old text occurs {text.count(old)} times in {file}"
        target.write_text(text.replace(old, new))
        status = run_tests(tree, tests)
    if status == 0:
        return "survived"
    if status in (1, 2):  # tests failed, or the mutant broke collection
        return "killed"
    return f"stale: pytest exited {status}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants")
    args = parser.parse_args(argv)
    known = {entry[0]: entry for entry in MUTANTS}
    if args.list:
        print("\n".join(known))
        return 0
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or MUTANTS

    tests = tuple(dict.fromkeys(t for entry in chosen for t in entry[4]))
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        if run_tests(Path(tmp), tests) != 0:
            print("baseline: the named tests fail on the unmutated tree")
            return 1

    failed = 0
    for entry in chosen:
        verdict = check(*entry)
        failed += verdict != "killed"
        print(f"{entry[0]}: {verdict}", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
