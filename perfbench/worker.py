"""The timed process: runs one workload's scenario through ``scoutnet.cli.main``.

Started by ``run.py`` as ``python3 perfbench/worker.py CONFIG.json``.  It
imports the CLI once, then repeats the same scenario (same flags, same
seed) until ``seconds`` have passed and at least ``min_reps`` repetitions
are done.  Each repetition writes to its own directory; the first one's
artifacts are kept for the checks and every later one must match them byte
for byte.

In trace mode the repetitions alternate untraced and traced, so the run
can report the tracing overhead; spans go to ``trace_file`` at the end.

The speed probe runs right before and right after each repetition (see
``probe.py``).  The time in the ensemble call, from which ``trials_per_s``
is taken, comes from the tracer's wrappers on the two ensemble functions,
which stay in place for the whole run.  This process loads only the CLI,
the standard library, ``probe`` and ``tracing``: its memory is what
``peak_rss_mb`` reports.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
import probe  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, use_source_tree  # noqa: E402


def _artifacts(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def main() -> None:
    config = json.loads(Path(sys.argv[1]).read_text())
    use_source_tree()
    import scoutnet.cli as cli

    workload = WORKLOADS[config["workload"]]
    out = Path(config["out"])
    tracer = tracing.Tracer(out)
    tracing.install(tracer, tracing.ensemble_targets())

    trace = config["trace"]
    if trace:
        spans: list[dict] = []
        per_rep: list[dict] = []
        layers: list[dict] = []

    reps = []
    first: dict[str, bytes] = {}
    kept = None
    start = perf_counter()
    while len(reps) < config["min_reps"] or perf_counter() - start < config["seconds"]:
        index = len(reps)
        traced = trace and index % 2 == 1
        rep_dir = out / f"rep-{index}"
        argv = workload.argv(
            config["seed"], config["jobs"], rep_dir, config["tv_threshold"]
        )
        tracer.reset()
        probe_before = probe.seconds()
        run = cli.main
        if traced:
            saved = tracing.install(tracer, tracing.layer_targets())
            run = tracer.wrap("cli.main", cli.main)
        t0 = perf_counter()
        code = run(argv)
        wall = perf_counter() - t0
        probe_s = 0.5 * (probe_before + probe.seconds())
        if traced:
            tracing.uninstall(saved)
            tracer.collect_workers()
            per_rep.append(tracing.rep_metrics(tracer))
            layers.append(tracing.layer_self_times(tracer))
            spans.extend(dict(span, rep=index) for span in tracer.spans)

        matches = True
        if code == 0:
            produced = _artifacts(rep_dir)
            if not first:
                first, kept = produced, index
            else:
                matches = produced == first
                shutil.rmtree(rep_dir)
        reps.append(
            {
                "code": code,
                "matches": matches,
                "traced": traced,
                "wall_s": wall,
                "ensemble_s": tracing.ensemble_seconds(tracer),
                "probe_s": probe_s,
            }
        )

    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {"reps": reps, "kept": kept, "peak_rss_mb": peak_kb / 1024.0}
    if trace:
        result["traced_reps"] = per_rep
        result["layers"] = layers
        with open(config["trace_file"], "w") as sink:
            for span in spans:
                sink.write(json.dumps(span) + "\n")
    (out / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
