"""Standing mutation check: every listed mutant must be killed by its tests.

Each entry is ``(name, file, old, new, tests)``.  For each one the script
copies the tree into a temporary directory, replaces the single
occurrence of ``old`` in ``file`` with ``new``, and runs the named tests
there with pytest.  A mutant *survives* when those tests pass; an entry is
*stale* when ``old`` does not occur exactly once in ``file`` (the code has
moved: rebuild the entry) or when pytest cannot run its tests; it *timed
out* when the run outlasts ``TIMEOUT_S`` (a mutant that never ends, such
as a bracket doubled forever).  Only a killed mutant passes.  Before any
mutant, the named tests must pass on an unmutated copy, within the same
limit.

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
# seconds one pytest run may take, the baseline's or a mutant's: about five
# times the slowest run measured on a 2-core box, where the slowest mutant
# (lotteries-kept-across-trials) took 23.4 s and the baseline, every named
# test at once, 16.2 s
TIMEOUT_S = 120

ENGINE = "src/scoutnet/engine.py"
RNG = "src/scoutnet/rng.py"
ORACLE = "src/scoutnet/oracle.py"
LATTICE = "src/scoutnet/lattice.py"
CLI = "src/scoutnet/cli.py"
SCOUTS = "tests/test_engine.py::TestPropagateScouts"
FORWARD = "tests/test_lattice.py::TestForwardDag"
BEYOND = "tests/test_engine.py::TestRecurrenceBeyondOracle"
BOUNDARY = "tests/test_engine.py::TestPathBudgetBoundary"
REFERENCE = "tests/test_engine.py::TestReferenceKernel"
PREPARE = "tests/test_engine.py::TestPrepare"
COLUMNS = "tests/test_engine.py::TestColumnKernel"
SPAN_MEMO = "tests/test_engine.py::TestSpanMemo"
SPANS = "tests/test_engine.py::TestSpanSplits"
SELECT = "tests/test_engine.py::TestLotterySelect"
DRAW_PROPERTY = (
    "tests/test_engine.py::TestLotterySelect::"
    "test_draws_each_drawing_trial_at_its_cursor"
)
GOLDEN = "tests/test_golden.py"
STREAM = "tests/test_rng.py"
STREAM_PROPERTY = "tests/test_rng.py::test_lane_batch_equals_sequential_generator"
FIRST_WORDS = "tests/test_rng.py::TestFirstWordCounts"
LANE_COUNT = "tests/test_engine.py::TestLaneCount"
CLASSES = "tests/test_oracle.py::TestClassAmplitudes"
PRECEDENCE = "tests/test_cli.py::TestConfigPrecedence"
GATE = "tests/test_experiments.py::TestGate"
TWICE = (
    "tests/test_cli.py::TestExitCodes::"
    "test_option_set_twice_in_config_file_is_config_error"
)

# _group's memo probe, and the same probe under another key
MEMO_PROBE = (
    "entry = memo.get(row)\n"
    "        if entry is None:\n"
    "            merged = _merge(row)\n"
    "            if len(merged) == 1:\n"
    "                entry = None, next(iter(merged.items()))\n"
    "            else:\n"
    "                entry = _lottery(merged, mode), None\n"
    "            memo[row] = entry"
)


def keyed_probe(key: str) -> str:
    probe = MEMO_PROBE.replace("memo.get(row)", "memo.get(key)")
    return f"key = {key}\n        " + probe.replace("memo[row]", "memo[key]")


MUTANTS: list[tuple[str, str, str, str, tuple[str, ...]]] = [
    # the admissibility rule: the lattice's forward DAG
    (
        "visit-by-id-only",
        LATTICE,
        "passing.sort(key=lambda u: (dist[u], u))",
        "passing.sort(key=lambda u: u)",
        (FORWARD, SCOUTS),
    ),
    (
        "forward-keeps-any-reached-rib",
        LATTICE,
        "if dist.get(v) == dist[u] + 1",
        "if v in dist",
        (FORWARD, SCOUTS),
    ),
    (
        "forward-child-order",
        LATTICE,
        "for v, idx in self.adjacency[u]",
        "for v, idx in reversed(self.adjacency[u])",
        (FORWARD, "tests/test_oracle.py::TestPinnedAmplitudes"),
    ),
    # the rib-by-rib forward half
    (
        "turn-without-fmod",
        ENGINE,
        "turn = math.fmod(TWO_PI * length / wavelength, TWO_PI)",
        "turn = TWO_PI * length / wavelength",
        (SCOUTS,),
    ),
    (
        "one-scout-per-rib",
        ENGINE,
        "paths[v] += scouts",
        "paths[v] += 1",
        (SCOUTS, BOUNDARY, BEYOND),
    ),
    # the plan's backward sweep
    (
        "sweep-walks-forward",
        ENGINE,
        "for u in reversed(forward):",
        "for u in forward:",
        (PREPARE, REFERENCE),
    ),
    (
        "seed-without-all-seeded-guard",
        ENGINE,
        "seeded = all(base[v][0] >= 0 for v in kids)",
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
    # the one draw rule: a word's place among its lottery's cuts
    (
        "biased-cuts",
        ENGINE,
        "cuts.append(k)",
        "cuts.append(k * 9 // 10)",
        (SELECT,),
    ),
    (
        "subnormal-cut-skips-unit",
        ENGINE,
        "key=lambda k: k * _UNIT * total)",
        "key=lambda k: k * total)",
        (
            "tests/test_engine.py::TestLotterySelect::"
            "test_cuts_equal_their_bisected_definition",
        ),
    ),
    (
        "cut-strict",
        ENGINE,
        "while (k - 1) * _UNIT * total >= s:\n"
        "            k -= 1\n"
        "        while k * _UNIT * total < s:",
        "while (k - 1) * _UNIT * total > s:\n"
        "            k -= 1\n"
        "        while k * _UNIT * total <= s:",
        (
            "tests/test_engine.py::TestLotterySelect::"
            "test_r_on_a_running_sum_takes_the_next_index",
            "tests/test_engine.py::TestLotterySelect::"
            "test_cuts_bisect_as_lottery_select_does",
        ),
    ),
    (
        "aggregate-record-carries-own-weight",
        ENGINE,
        "carried = repeat(total) if mode is _AGGREGATE else weights",
        "carried = weights",
        (DRAW_PROPERTY, SELECT, GOLDEN),
    ),
    (
        "draw-bisects-left",
        ENGINE,
        "queries[bisect_right(cuts, words[p])]",
        "queries[bisect_left(cuts, words[p])]",
        (DRAW_PROPERTY,),
    ),
    (
        "cursor-not-advanced",
        ENGINE,
        "pos[t] = p + trials",
        "pos[t] = p",
        (DRAW_PROPERTY,),
    ),
    (
        "lotteries-kept-across-trials",
        ENGINE,
        "held: dict[tuple[int, ...], Group] = {}",
        'held = _columns.__dict__.setdefault(("held", id(plan)), {})',
        (REFERENCE,),
    ),
    (
        "cursor-advanced-for-every-trial",
        ENGINE,
        "        pos[t] = p + trials\n    return column\n",
        "        pos[t] = p + trials\n"
        "    for t in {*range(trials)} - {*drawing}:\n"
        "        pos[t] += trials\n"
        "    return column\n",
        (DRAW_PROPERTY, COLUMNS, REFERENCE),
    ),
    (
        "rows-one-trial-short",
        ENGINE,
        "repeat(plan.base[v], trials)",
        "repeat(plan.base[v], trials - 1)",
        (COLUMNS, REFERENCE),
    ),
    (
        "group-column-shared",
        ENGINE,
        "\n    column = column.copy()\n",
        "\n",
        (DRAW_PROPERTY, REFERENCE, COLUMNS),
    ),
    (
        "memo-kept-across-blocks",
        ENGINE,
        "memo: Memo = {}\n    for u in plan.draw_order:",
        'memo = _columns.__dict__.setdefault(("memo", id(plan)), {})\n'
        "    for u in plan.draw_order:",
        (COLUMNS,),
    ),
    (
        "memo-keyed-without-weights",
        ENGINE,
        MEMO_PROBE,
        keyed_probe("row if isinstance(row, frozenset) else tuple(map(_DET, row))"),
        (REFERENCE, GOLDEN),
    ),
    # the span memo: set keys for lotteries over one group, kept per span
    (
        "set-key-without-weights",
        ENGINE,
        MEMO_PROBE,
        keyed_probe("frozenset(map(_DET, row)) if isinstance(row, frozenset) else row"),
        (SPAN_MEMO,),
    ),
    (
        "set-key-rule-inverted",
        ENGINE,
        "if get(kids[0]) == get(kids[-1]) and len({*map(get, kids)}) == 1:",
        "if not (get(kids[0]) == get(kids[-1]) and len({*map(get, kids)}) == 1):",
        (SPAN_MEMO,),
    ),
    (
        "every-lottery-set-keyed",
        ENGINE,
        "if get(kids[0]) == get(kids[-1]) and len({*map(get, kids)}) == 1:",
        "if True:",
        (SPAN_MEMO,),
    ),
    # the lottery whose children are all seeded: its records, built by prepare
    (
        "fixed-record-built-in-one-mode",
        ENGINE,
        "fixed[kids] = {m: _lottery(weights, m) for m in Mode}",
        "fixed[kids] = {m: _lottery(weights, Mode.NAIVE) for m in Mode}",
        (REFERENCE, SPAN_MEMO),
    ),
    (
        "fixed-lottery-left-out-below-the-source",
        ENGINE,
        "if weights and kids not in fixed:",
        "if weights and kids not in fixed and u == lattice.source:",
        (SPAN_MEMO,),
    ),
    (
        "one-child-node-merged",
        ENGINE,
        "        if len(kids) == 1:\n",
        "        if False:\n",
        (COLUMNS,),
    ),
    (
        "span-memo-unbounded",
        ENGINE,
        "if len(memo) > len(plan.draw_order) * trials:",
        "if False:",
        (SPAN_MEMO,),
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
        "mask, mask) >> 11 for w in weyl]",
        "mask, mask) >> 12 for w in weyl]",
        (STREAM,),
    ),
    (
        "row-takes-next-rows-weyl-offset",
        RNG,
        "((j + 1) * _GOLDEN & _MASK) * ones for j in range(n)",
        "((j + 2) * _GOLDEN & _MASK) * ones for j in range(n)",
        (STREAM_PROPERTY,),
    ),
    (
        "row-unmasked-after-weyl-add",
        RNG,
        "_mix((mixed + w) & mask, mask)",
        "_mix(mixed + w, mask)",
        (STREAM,),
    ),
    (
        "weyl-offset-from-zero",
        RNG,
        "((j + 1) * _GOLDEN & _MASK) * ones",
        "(j * _GOLDEN & _MASK) * ones",
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
        "c = (master_seed + (start + 1) * _GOLDEN) & _MASK",
        "c = (master_seed + start * _GOLDEN) & _MASK",
        (STREAM_PROPERTY, GOLDEN),
    ),
    (
        "tail-block-dropped",
        RNG,
        "    if tail:\n        yield from _draw_lanes(master_seed, n, stop - tail, stop)\n",
        "",
        (STREAM_PROPERTY, SPANS, LANE_COUNT),
    ),
    (
        "state-advance-one-trial-short",
        RNG,
        "advance = (trials * _GOLDEN & _MASK) * ones",
        "advance = ((trials - 1) * _GOLDEN & _MASK) * ones",
        (STREAM_PROPERTY, SPANS),
    ),
    # the star's winners counted in the draw lanes
    (
        "lane-count-ties-left",
        RNG,
        "offsets = [((1 << 53) - cut) * ones for cut in cuts]",
        "offsets = [((1 << 53) - cut + 1) * ones for cut in cuts]",
        (FIRST_WORDS,),
    ),
    (
        "lane-count-reads-bit-52",
        RNG,
        "carry = ones << 53",
        "carry = ones << 52",
        (FIRST_WORDS,),
    ),
    (
        "lanes-count-every-plan",
        ENGINE,
        "plan.draw_order == (source,)",
        "plan.draw_order[-1] == source",
        (PREPARE, COLUMNS),
    ),
    (
        "trial-takes-next-trials-draws",
        ENGINE,
        "bisect_right(cuts, words[p])",
        "bisect_right(cuts, words[p + 1])",
        (REFERENCE, GOLDEN),
    ),
    # one trial's block, shared by run_trial and backpropagate
    (
        "walk-starts-at-first-draw",
        ENGINE,
        "return won, iter(words[cursor:])",
        "return won, iter(words)",
        (GOLDEN,),
    ),
    (
        "walk-reads-raw-words",
        ENGINE,
        "candidates[int(next(words) * _UNIT * k)]",
        "candidates[int(next(words) * k)]",
        (GOLDEN,),
    ),
    (
        "one-trial-span-memo-shared",
        ENGINE,
        "_columns(plan, Mode(mode), words, 1, {})",
        "_columns(plan, Mode(mode), words, 1, "
        '_one_trial.__dict__.setdefault("span", {}))',
        (SPAN_MEMO,),
    ),
    (
        "backprop-reads-next-trial",
        ENGINE,
        "won, _ = _one_trial(plan, mode, master_seed, trial_index)",
        "won, _ = _one_trial(plan, mode, master_seed, trial_index + 1)",
        (REFERENCE,),
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
        "order = [*children.items()]",
        "order = [*children.items()][::-1]",
        ("tests/test_experiments.py", GOLDEN),
    ),
    (
        "live-pass-walks-forward",
        "src/scoutnet/experiments.py",
        "for u in reversed(forward):",
        "for u in forward:",
        ("tests/test_experiments.py::TestLiveGraph",),
    ),
    (
        "chi-square-builtin-sum",
        "src/scoutnet/experiments.py",
        "    statistic = 0.0\n"
        "    for exp, obs in sorted(cells):\n"
        "        statistic += (obs - exp) ** 2 / exp\n",
        "    statistic = sum((obs - exp) ** 2 / exp for exp, obs in sorted(cells))\n",
        ("tests/test_golden.py::test_golden_bytes_under_compensated_sum",),
    ),
    (
        "enumerator-builtin-sum",
        "src/scoutnet/experiments.py",
        "        total = 0.0\n"
        "        for w in weights.values():\n"
        "            total += w\n",
        "        total = sum(weights.values())\n",
        (
            "tests/test_experiments.py::TestExactSelection::"
            "test_law_is_the_same_under_compensated_sum",
        ),
    ),
    (
        "pool-ignores-cores",
        "src/scoutnet/experiments.py",
        "workers = min(jobs, trials, os.cpu_count() or 1)",
        "workers = min(jobs, trials)",
        (
            "tests/test_experiments.py::TestRunEnsemble::"
            "test_pool_never_outgrows_spans_or_cores",
            "tests/test_experiments.py::TestRunEnsemble::"
            "test_each_worker_counts_one_span",
        ),
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
        "continued-fraction-coefficient",
        "src/scoutnet/experiments.py",
        "an = -i * (i - a)",
        "an = -i * (i + a)",
        ("tests/test_experiments.py::TestChiSquareCritical",),
    ),
    # the run's verdict
    (
        "tv-bound-at-pooled-dof",
        "src/scoutnet/experiments.py",
        "unpooled = chi_square_critical(cells - 1, chi_percentile)",
        "unpooled = chi_square_critical(result.dof, chi_percentile)",
        (GATE,),
    ),
    (
        "tv-bound-without-floor",
        "src/scoutnet/experiments.py",
        "tv_threshold = max(default_tv, 0.5 * math.sqrt(unpooled / result.trials))",
        "tv_threshold = 0.5 * math.sqrt(unpooled / result.trials)",
        (GATE,),
    ),
    (
        "tv-gate-fails-at-threshold",
        "src/scoutnet/experiments.py",
        "if result.tv_distance > tv_threshold:",
        "if result.tv_distance >= tv_threshold:",
        (GATE,),
    ),
    (
        "chi-square-gate-fails-at-critical",
        "src/scoutnet/experiments.py",
        "if result.chi_square > critical:",
        "if result.chi_square >= critical:",
        (GATE,),
    ),
    (
        "explicit-tv-threshold-ignored",
        "src/scoutnet/experiments.py",
        "    if tv_threshold is None:\n        # TV = 1/2",
        "    if True:\n        # TV = 1/2",
        (GATE,),
    ),
    (
        "top-level-yaml-import",
        CLI,
        "from . import experiments\n",
        "import yaml\nfrom . import experiments\n",
        ("tests/test_cli.py::test_cli_import_loads_no_optional_dependency",),
    ),
    (
        "top-level-json-import",
        "src/scoutnet/experiments.py",
        "from . import oracle\n",
        "import json\nfrom . import oracle\n",
        ("tests/test_cli.py::test_cli_import_loads_only_what_start_up_needs",),
    ),
    # a mode's value runs its member
    (
        "count-takes-mode-value-as-given",
        ENGINE,
        "    mode = Mode(mode)\n    source = plan.lattice.source\n",
        "    source = plan.lattice.source\n",
        ("tests/test_engine.py::TestModeByValue",),
    ),
    (
        "trial-takes-mode-value-as-given",
        ENGINE,
        "_columns(plan, Mode(mode), words, 1, {})",
        "_columns(plan, mode, words, 1, {})",
        ("tests/test_engine.py::TestModeByValue",),
    ),
    (
        "exact-law-takes-mode-value-as-given",
        "src/scoutnet/experiments.py",
        "aggregate = Mode(mode) is Mode.AGGREGATE",
        "aggregate = mode is Mode.AGGREGATE",
        ("tests/test_experiments.py::TestModeByValue",),
    ),
    # the option table
    (
        "env-out-only-when-out-is-cwd",
        CLI,
        "    vars(config).update(given)\n",
        "    vars(config).update(given)\n"
        "    if args.out is None and config.out == '.':\n"
        "        config.out = os.environ.get(OUT_ENV_VAR) or '.'\n",
        (PRECEDENCE,),
    ),
    (
        "config-file-lists-left-as-text",
        CLI,
        "        text = getattr(config, name)\n",
        "        text = getattr(args, name, None)\n",
        (
            "tests/test_cli.py::test_flag_and_config_key_set_the_same_value",
            "tests/test_cli.py::TestExitCodes::"
            "test_malformed_list_in_config_file_is_config_error",
        ),
    ),
    (
        "config-repeats-allowed",
        CLI,
        "            if name in given:\n",
        "            if False:\n",
        (TWICE,),
    ),
    (
        "config-choice-unchecked",
        CLI,
        "        if value in kind:\n",
        "        if True:\n",
        (
            "tests/test_cli.py::TestExitCodes::"
            "test_malformed_config_value_is_config_error[mode: bogus-mode]",
        ),
    ),
    (
        "out-dir-nul-byte-uncaught",
        CLI,
        "    except (OSError, ValueError) as exc:",
        "    except OSError as exc:",
        (
            "tests/test_cli.py::TestExitCodes::"
            "test_nul_byte_in_config_out_is_config_error",
        ),
    ),
    (
        "yaml-repeats-allowed",
        LATTICE,
        "if len(mapping) < len(node.value):",
        "if False:",
        (
            TWICE,
            "tests/test_lattice.py::TestTopologyDocuments::test_repeated_key_rejected",
        ),
    ),
    (
        "empty-list-item-dropped",
        CLI,
        'for x in str(text).split(",")]',
        'for x in str(text).split(",") if x]',
        (
            "tests/test_cli.py::TestExitCodes::"
            "test_malformed_list_flag_is_config_error_in_every_scenario",
        ),
    ),
    # the value classes
    (
        "rib-endpoints-unsorted",
        LATTICE,
        "        if a > b:\n            a, b = b, a\n",
        "",
        ("tests/test_lattice.py::TestRib::test_endpoints_are_normalized",),
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


def run_tests(tree: Path, tests: tuple[str, ...]) -> int | None:
    """pytest's exit status for ``tests`` run inside ``tree``, or None when
    the run outlasts ``TIMEOUT_S`` and is killed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    # a fixed seed: each run draws the same Hypothesis examples
    command.append("--hypothesis-seed=0")
    try:
        done = subprocess.run(
            [*command, *tests],
            cwd=tree,
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def check(name: str, file: str, old: str, new: str, tests: tuple[str, ...]) -> str:
    """``killed``, ``survived``, ``timed out`` or ``stale: <why>`` for one
    mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        target = tree / file
        text = target.read_text()
        if text.count(old) != 1:
            return f"stale: old text occurs {text.count(old)} times in {file}"
        target.write_text(text.replace(old, new))
        status = run_tests(tree, tests)
    if status is None:
        return "timed out"
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
        status = run_tests(Path(tmp), tests)
        if status != 0:
            why = "time out" if status is None else "fail"
            print(f"baseline: the named tests {why} on the unmutated tree")
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
