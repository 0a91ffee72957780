"""Span tracing for the traced run, wrapped around the program's public calls.

The wrappers live here, not in the program: ``install`` swaps each public
function in a list of targets for a timed copy, and ``uninstall`` puts the
originals back.  The two ensemble calls stay wrapped in every repetition,
since ``trials_per_s`` is taken from them; the other targets are wrapped
only in traced repetitions, so untraced ones run the program's own code.

Each call records a span (id, parent, name, start, end, pid) and adds its
duration and self time (duration minus the in-process child spans) to a
per-name total.  Totals count every call; span records are kept for the
first ``SAMPLE_LIMIT`` calls of each name per process and repetition, which
bounds memory on runs of 100k trials.  Pool workers forked during a traced
call inherit the wrappers; each one writes its totals and spans to
``worker_dir`` when it exits, and ``collect_workers`` merges them.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import pathlib
from collections import Counter
from time import perf_counter

SAMPLE_LIMIT = 1000


class Tracer:
    def __init__(self, worker_dir: pathlib.Path):
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self._next = 0
        self._stack: list[list] = []  # open spans: [span id, child seconds]
        self.reset()

    def reset(self) -> None:
        self.spans: list[dict] = []
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()

    def _adopt_fork(self) -> None:
        # Spans still open at the fork stay on the stack, so a worker's spans
        # name the parent's ensemble span as their parent.
        self.pid = os.getpid()
        self.reset()
        multiprocessing.util.Finalize(None, self._dump_worker, exitpriority=10)

    def _dump_worker(self) -> None:
        payload = {"stats": self.stats, "counts": self.counts, "spans": self.spans}
        path = self.worker_dir / f"worker-{self.pid}.json"
        path.write_bytes(json.dumps(payload).encode())

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._adopt_fork()
            tracer._next += 1
            span_id = f"{tracer.pid}-{tracer._next}"
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                stat = tracer.stats.setdefault(name, [0, 0.0, 0.0])
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if stat[0] <= SAMPLE_LIMIT:
                    tracer.spans.append(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "pid": tracer.pid,
                        }
                    )
            if count is not None:
                count(tracer.counts, result)
            return result

        return traced

    def collect_workers(self) -> None:
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            payload = json.loads(path.read_bytes())
            for name, (calls, total, own) in payload["stats"].items():
                stat = self.stats.setdefault(name, [0, 0.0, 0.0])
                stat[0] += calls
                stat[1] += total
                stat[2] += own
            self.counts.update(payload["counts"])
            self.spans.extend(payload["spans"])
            path.unlink()


# ---------------------------------------------------------------------------
# What is wrapped, and what each call counts
# ---------------------------------------------------------------------------


def _count_lattice(counts: Counter, lattice) -> None:
    counts["lattice.nodes"] += len(lattice.nodes)
    counts["lattice.ribs"] += len(lattice.ribs)


def _count_plan(counts: Counter, plan) -> None:
    counts["engine.fronts"] += plan.scout_report.fronts
    counts["engine.ticks"] += plan.scout_report.ticks
    counts["engine.live_edges"] += len(plan.live_edges)
    counts["engine.lottery_nodes"] += sum(
        1 for u in plan.process_order if len(plan.out_live[u]) > 1
    )


def _count_outcome(counts: Counter, outcome) -> None:
    counts["engine.path_hops"] += len(outcome.surviving_path) - 1


def _count_backprop(counts: Counter, result) -> None:
    _winner, _winner_at, void, degenerate = result
    counts["engine.refused_edges"] += len(void)
    counts["engine.degenerate_lotteries"] += degenerate


def _count_paths(counts: Counter, paths) -> None:
    counts["oracle.paths"] += len(paths)


def ensemble_targets() -> list[tuple]:
    from scoutnet import experiments

    return [
        (experiments, "run_ensemble", "experiments.ensemble", None),
        (experiments, "interference_profile", "experiments.profile", None),
    ]


def layer_targets() -> list[tuple]:
    from scoutnet import cli, engine, experiments, oracle

    builders = [
        (cli, name, "lattice.build", _count_lattice)
        for name in dir(cli)
        if name.startswith("build_")
    ]
    return builders + [
        (experiments, "prepare", "engine.prepare", _count_plan),
        (engine, "propagate_scouts", "engine.propagate", None),
        (experiments, "run_trial", "engine.trial", _count_outcome),
        (engine, "backpropagate", "engine.backprop", _count_backprop),
        (engine, "lottery_select", "engine.lottery", None),
        (oracle, "lattice_amplitudes", "oracle.amplitudes", None),
        (oracle, "enumerate_paths", "oracle.enumerate", _count_paths),
        (experiments, "ensemble_csv", "cli.write", None),
        (experiments, "profile_csv", "cli.write", None),
        (experiments, "summary_json", "cli.write", None),
        (pathlib.Path, "write_text", "cli.write", None),
        (experiments, "chi_square_critical", "cli.gate", None),
    ]


def install(tracer: Tracer, targets: list[tuple]) -> list[tuple]:
    """Wrap every target; returns what ``uninstall`` needs to undo it."""
    saved = []
    for owner, attr, name, count in targets:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, count))
    return saved


def uninstall(saved: list[tuple]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer figures of one traced repetition
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def ensemble_seconds(tracer: Tracer) -> float:
    """Time in the outermost ensemble call; ``interference_profile`` makes
    its ``run_ensemble`` call from inside."""
    for name in ("experiments.profile", "experiments.ensemble"):
        if name in tracer.stats:
            return tracer.stats[name][1]
    return 0.0


def rep_metrics(tracer: Tracer) -> dict[str, float]:
    stats = tracer.stats
    counts = tracer.counts

    def calls(name: str) -> int:
        return int(stats.get(name, (0, 0.0, 0.0))[0])

    def total(name: str) -> float:
        return stats.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return stats.get(name, (0, 0.0, 0.0))[2]

    builds = calls("lattice.build")
    prepares = calls("engine.prepare")
    trials = calls("engine.trial")
    trial_us = 1e6 * _ratio(total("engine.trial"), trials)
    backprop_us = 1e6 * _ratio(total("engine.backprop"), calls("engine.backprop"))
    return {
        "cli.write_s": total("cli.write"),
        "cli.gate_s": total("cli.gate"),
        "lattice.build_s": total("lattice.build"),
        "lattice.nodes": _ratio(counts["lattice.nodes"], builds),
        "lattice.ribs": _ratio(counts["lattice.ribs"], builds),
        "engine.prepare_s": own("engine.prepare"),
        "engine.propagate_s": total("engine.propagate"),
        "engine.prepare_calls": prepares,
        "engine.fronts": _ratio(counts["engine.fronts"], prepares),
        "engine.ticks": _ratio(counts["engine.ticks"], prepares),
        "engine.live_edges": _ratio(counts["engine.live_edges"], prepares),
        "engine.lottery_nodes": _ratio(counts["engine.lottery_nodes"], prepares),
        "oracle.amplitudes_s": total("oracle.amplitudes"),
        "oracle.calls": calls("oracle.amplitudes"),
        "oracle.paths": _ratio(counts["oracle.paths"], calls("oracle.amplitudes")),
        "engine.backprop_us": backprop_us,
        "engine.lotteries_per_trial": _ratio(calls("engine.lottery"), trials),
        "engine.refused_edges_per_trial": _ratio(
            counts["engine.refused_edges"], trials
        ),
        "engine.degenerate_lotteries": counts["engine.degenerate_lotteries"],
        "engine.trial_us": trial_us,
        "engine.walk_outcome_us": trial_us - backprop_us,
        "engine.path_hops_mean": _ratio(counts["engine.path_hops"], trials),
        "experiments.ensemble_s": own("experiments.ensemble")
        + own("experiments.profile"),
    }


def layer_self_times(tracer: Tracer) -> dict[str, float]:
    """Self time per layer: the first part of each span name."""
    layers: Counter = Counter()
    for name, (_calls, _total, own) in tracer.stats.items():
        layers[name.split(".")[0]] += own
    return dict(layers)
