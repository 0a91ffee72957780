"""scoutnet benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload star-born --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s``,
``setup_s``, ``peak_rss_mb`` and ``trials_per_s``.  With ``--trace 1`` it
reports the per-layer metrics of a traced run instead (see README.md).
Either way it checks the program's artifacts against references computed
here, apart from the program, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The timed repetitions run in a child process (``worker.py``) that loads
nothing but the program and the benchmark's stdlib-only ``probe`` and
``tracing``, so the checks here cannot inflate its memory figures.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import probe  # noqa: E402
import reference  # noqa: E402
from workloads import (  # noqa: E402
    CHI_ALPHA,
    CROSS_JOBS,
    MIN_REPS,
    OUT,
    SRC,
    STAR_TARGETS,
    TIMED_JOBS,
    WORKLOADS,
    Workload,
    tv_threshold,
    use_source_tree,
)

SETUP_SAMPLES = 6
IMPORTTIME_SAMPLES = 3
INVARIANT_TRIALS = 64
REL_TOL = 1e-9
# worst case for one worker process, well inside the 180 s a run may take
WORKER_TIMEOUT_S = 150

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _fresh_import(extra: list[str]) -> tuple[float, str]:
    """Wall time and stderr of a fresh interpreter importing ``scoutnet.cli``.

    Called only after the timed process has imported the CLI, so
    byte-compiling and a cold file cache are not counted.
    """
    command = [sys.executable, *extra, "-c", "import scoutnet.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return perf_counter() - start, done.stderr


def _start_ups() -> tuple[list[float], list[float]]:
    """Wall times of ``SETUP_SAMPLES`` fresh starts of the CLI, and of the
    control starts before, between and after them."""
    controls = [probe.control_start()]
    starts = []
    for _ in range(SETUP_SAMPLES):
        starts.append(_fresh_import([])[0])
        controls.append(probe.control_start())
    print(f"start-ups: {starts}", file=sys.stderr)
    print(f"control starts: {controls}", file=sys.stderr)
    return starts, controls


def _importtime_totals(report: str) -> dict[str, float]:
    """Seconds per package from one ``-X importtime`` report.

    scipy and yaml count the cumulative time of each outermost import of
    the package (their own dependencies, such as numpy, included); scoutnet
    counts the self time of its own modules only.
    """
    roots: list[tuple] = []
    pending: dict[int, list[tuple]] = {}
    for line in report.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, cumulative, name = line[len("import time:") :].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        node = (name.strip(), int(own) * 1e-6, int(cumulative) * 1e-6)
        node += (pending.pop(depth + 1, []),)
        pending.setdefault(depth, []).append(node)
    for depth in sorted(pending):
        roots.extend(pending[depth])

    totals = {"scipy": 0.0, "yaml": 0.0, "scoutnet": 0.0}

    def visit(node: tuple, outer: str) -> None:
        name, own, cumulative, children = node
        package = name.split(".")[0]
        if package == "scoutnet":
            totals["scoutnet"] += own
        elif package in totals and package != outer:
            totals[package] += cumulative
        for child in children:
            visit(child, package)

    for root in roots:
        visit(root, "")
    return totals


def _run_worker(
    workload: Workload,
    seed: int,
    jobs: int,
    seconds: float,
    min_reps: int,
    trace: bool,
    out: Path,
    trace_file: Path,
    tv: float,
) -> dict:
    out.mkdir(parents=True)
    config = {
        "workload": workload.name,
        "seed": seed,
        "jobs": jobs,
        "seconds": seconds,
        "min_reps": min_reps,
        "trace": trace,
        "out": str(out),
        "trace_file": str(trace_file),
        "tv_threshold": tv,
    }
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config))
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(config_path)],
        stdout=sys.stderr,
        check=True,
        timeout=WORKER_TIMEOUT_S,
    )
    return json.loads((out / "result.json").read_text())


# ---------------------------------------------------------------------------
# Checks against the references
# ---------------------------------------------------------------------------


def _read_csv(path: Path) -> list[dict[str, str]]:
    header, *rows = path.read_text().splitlines()
    keys = header.split(",")
    return [dict(zip(keys, row.split(","))) for row in rows]


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * scale


def _has_interior_minimum(values: list[float]) -> bool:
    return any(
        values[i] < values[i - 1] and values[i] < values[i + 1]
        for i in range(1, len(values) - 1)
    )


def check_outputs(
    workload: Workload, seed: int, artifacts: Path, cross: Path, critical: float
) -> list[str]:
    """Every way the artifacts in ``artifacts`` disagree with the references."""
    from scoutnet import engine
    from scoutnet.engine import Mode, RibState

    problems = []
    for name in ("ensemble.csv", "summary.json"):
        if (artifacts / name).read_bytes() != (cross / name).read_bytes():
            problems.append(f"{name} differs between --jobs values")

    lattice = workload.build()
    ref_intensity = {
        d: abs(a) ** 2 for d, a in reference.transfer_amplitudes(lattice).items()
    }
    scale = max(ref_intensity.values())
    plan = engine.prepare(lattice)
    for det, value in ref_intensity.items():
        if not _close(plan.intensities[det], value, scale):
            problems.append(
                f"engine intensity of {det}: {plan.intensities[det]!r} != {value!r}"
            )
    ref_born = reference.born(ref_intensity)

    rows = _read_csv(artifacts / "ensemble.csv")
    counts = {int(r["detector_id"]): int(r["count"]) for r in rows}
    if sum(counts.values()) != workload.trials:
        problems.append(f"ensemble.csv counts {sum(counts.values())} trials")
    for r in rows:
        det = int(r["detector_id"])
        if not _close(float(r["born"]), ref_born[det], 1.0):
            problems.append(f"born column of {det}: {r['born']} != {ref_born[det]!r}")

    if workload.scenario == "star":
        expected = reference.born(dict(zip(lattice.detectors, STAR_TARGETS)))
        for det, target in zip(lattice.detectors, STAR_TARGETS):
            if not _close(ref_intensity[det], target, max(STAR_TARGETS)):
                problems.append(f"star arm {det}: intensity {ref_intensity[det]!r}")
    else:
        expected = ref_born
        profile = _read_csv(artifacts / "profile.csv")
        ordered = sorted(lattice.detectors, key=lambda d: (lattice.nodes[d].position[1], d))
        oracle_column = [float(r["oracle_intensity"]) for r in profile]
        if len(oracle_column) != len(ordered):
            problems.append(f"profile.csv has {len(oracle_column)} screen rows")
        for det, value in zip(ordered, oracle_column):
            if not _close(value, ref_intensity[det], scale):
                problems.append(f"profile oracle column at {det}: {value!r}")
        if not _has_interior_minimum(oracle_column):
            problems.append("profile.csv has no interior fringe minimum")

    statistic, smallest = reference.chi_square(counts, expected)
    if smallest < 5.0:
        problems.append(f"{workload.trials} trials leave a cell expecting {smallest:.2f}")
    if statistic > critical:
        problems.append(f"chi2 {statistic:.3f} > {critical:.3f} (alpha {CHI_ALPHA})")

    ribs = {(rib.a, rib.b) for rib in lattice.ribs}
    detectors = set(lattice.detectors)
    for index in random.Random(seed).sample(range(workload.trials), INVARIANT_TRIALS):
        outcome = engine.run_trial(lattice, Mode.AGGREGATE, seed, index, plan=plan)
        path = outcome.surviving_path
        steps = {tuple(sorted(step)) for step in zip(path, path[1:])}
        # the path's ribs CONFIRMED, every other rib of the lattice VOID
        expected_states = {
            e: RibState.CONFIRMED if e in steps else RibState.VOID for e in ribs
        }
        if (
            path[0] != lattice.source
            or path[-1] != outcome.winner
            or outcome.winner not in detectors
            or len(set(path)) != len(path)
            or not steps <= ribs
            or outcome.rib_states != expected_states
        ):
            problems.append(f"trial {index}: path {path} breaks the invariant")
    return problems


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _seconds(rep: dict, key: str, scaled: bool) -> float:
    """``rep[key]``, on the probe's reference scale if ``scaled``."""
    return rep[key] * probe.REFERENCE_S / rep["probe_s"] if scaled else rep[key]


def _trial_rate(workload: Workload, reps: list[dict], scaled: bool) -> float:
    return _median(
        [
            workload.trials / _seconds(r, "ensemble_s", scaled)
            for r in reps
            if r["code"] == 0
        ]
    )


def measure(workload: Workload, seed: int, seconds: float, trace: bool, run_dir: Path):
    critical = reference.chi2_upper_quantile(workload.detectors - 1, CHI_ALPHA)
    tv = tv_threshold(workload.trials, critical)
    trace_file = OUT / f"trace-{workload.name}-seed{seed}.jsonl"
    metrics: dict[str, float] = {}

    timed = _run_worker(
        workload, seed, TIMED_JOBS, seconds, MIN_REPS, trace,
        run_dir / "timed", trace_file, tv,
    )  # fmt: skip
    if trace:
        totals = [
            _importtime_totals(_fresh_import(["-X", "importtime"])[1])
            for _ in range(IMPORTTIME_SAMPLES)
        ]
        for package in ("scipy", "yaml", "scoutnet"):
            metrics[f"cli.import_{package}_s"] = _median([t[package] for t in totals])
    else:
        starts, controls = _start_ups()
    cross = _run_worker(
        workload, seed, CROSS_JOBS, 0.0, 1, False,
        run_dir / "cross", trace_file, tv,
    )  # fmt: skip

    ops = timed["reps"] + cross["reps"]
    failed = sum(1 for r in ops if r["code"] != 0 or not r["matches"])

    if timed["kept"] is None or cross["kept"] is None:
        problems = ["no repetition exited 0, so there are no artifacts to check"]
    else:
        problems = check_outputs(
            workload,
            seed,
            run_dir / "timed" / f"rep-{timed['kept']}",
            run_dir / "cross" / f"rep-{cross['kept']}",
            critical,
        )

    untraced = [r for r in timed["reps"] if not r["traced"]]
    if trace:
        traced = timed["traced_reps"]
        for name in traced[0]:
            metrics[name] = _median([rep[name] for rep in traced])
        timed_rate = _trial_rate(workload, untraced, False)
        cross_rate = _trial_rate(workload, cross["reps"], False)
        metrics["experiments.pool_speedup"] = (
            cross_rate / timed_rate if timed_rate else 0.0
        )
        traced_wall = _median([r["wall_s"] for r in timed["reps"] if r["traced"]])
        metrics["trace.overhead_s"] = traced_wall - _median(
            [r["wall_s"] for r in untraced]
        )
        layers = {
            layer: _median([rep.get(layer, 0.0) for rep in timed["layers"]])
            for layer in sorted({k for rep in timed["layers"] for k in rep})
        }
        with open(trace_file, "a") as sink:
            summary = {"layer_self_s": layers, "metrics": metrics}
            sink.write(json.dumps({"summary": summary}) + "\n")
        print(f"trace: spans in {trace_file}", file=sys.stderr)
        for layer, own in layers.items():
            print(f"trace: {layer:<12} self {own:10.4f} s/rep", file=sys.stderr)
    else:
        walls = [r["wall_s"] for r in untraced]
        probes = [r["probe_s"] for r in untraced]
        print(f"wall_s of each repetition: {walls}", file=sys.stderr)
        print(f"probe seconds around each repetition: {probes}", file=sys.stderr)
        # each start-up is scaled by the mean of the two control starts
        # around it, each repetition by the speed probe around it
        metrics["setup_s"] = statistics.median(
            start * probe.CONTROL_REFERENCE_S / (0.5 * (before + after))
            for start, before, after in zip(starts, controls, controls[1:])
        )
        metrics["wall_s"] = _median([_seconds(r, "wall_s", True) for r in untraced])
        metrics["peak_rss_mb"] = timed["peak_rss_mb"]
        metrics["trials_per_s"] = _trial_rate(workload, untraced, True)
    return problems, len(ops), failed, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    use_source_tree()

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        problems, attempted, failed, metrics = measure(
            workload, args.seed, args.seconds, bool(args.trace), run_dir
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    expected = {m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != expected:
        sys.exit(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
