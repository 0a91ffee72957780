"""Steadiness command: runs every workload repeatedly and reports the spread.

    python3 perfbench/steady.py --runs 10 --seed-base 100 --save perfbench/out/a.json
    python3 perfbench/steady.py --runs 10 --seed-base 200 --against perfbench/out/a.json

Each run lasts BENCHMARK.json's ``run_seconds``.  Run ``i`` uses seed
``seed-base + i`` and visits every workload, in an order rotated by ``i``,
so no workload always runs first or last.  For each
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
``(q3 - q1) / median`` and that spread as a share of the metric's bound in
BENCHMARK.json.  With ``--against`` it also compares each median with the
saved set's, in the metric's worse direction, against the bound.  It
prints "steady" and exits 0 only if every spread, and every such change,
is within its metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
    ]  # fmt: skip
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--save", type=Path, help="write the raw results here")
    parser.add_argument("--against", type=Path, help="saved results to compare with")
    args = parser.parse_args()

    names = [w["name"] for w in SPEC["workloads"]]
    results: dict[str, list[dict]] = {name: [] for name in names}
    for i in range(args.runs):
        shift = i % len(names)
        for name in names[shift:] + names[:shift]:
            result = _run(name, args.seed_base + i)
            results[name].append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"run {i} {name}: correct={result['correct']} {values}", flush=True)
    if args.save:
        args.save.write_text(json.dumps(results))
    before = json.loads(args.against.read_text()) if args.against else {}

    steady = True
    for name in names:
        runs = results[name]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{name}: {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs)}, failed shares: {sorted(shares)}")  # fmt: skip
        for metric in SPEC["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            values = [r["metrics"][key]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            line = (
                f"  {key:<13} median {median:12.4f} q1 {q1:12.4f} q3 {q3:12.4f} "
                f"spread {spread:6.2%} bound {bound:.0%} ({spread / bound:4.0%} of it)"
            )
            if spread > bound:
                steady = False
            if name in before:
                old = statistics.median(
                    r["metrics"][key]["value"] for r in before[name]
                )
                worse = (median - old) / old
                if metric["better"] == "higher":
                    worse = -worse
                line += f" | vs saved median {old:.4f}: {worse:+.2%} worse"
                if worse > bound:
                    steady = False
            print(line)
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
