"""Fixed pieces of work that track how fast the host runs right now.

On a shared 2-core box the interpreter's speed jumps by up to 2x every few
seconds to minutes, as other tenants' load comes and goes.  Within one
process, repetitions of the same 20k star trials went from 1.87 s to
0.97 s and back to 1.53 s within 20 seconds.  A run's median cannot remove a
shift that lasts most of the run, so a time is divided by the time of a
control measured next to it, where the control is slowed by the same
things.  README.md ("Noise") gives the measurements behind each choice.

- ``seconds``: a pure-Python loop run in the timed process right before
  and right after each repetition.  It tracks the speed of the thread it
  runs in, so it scales a repetition only because the timed process runs
  at ``--jobs 1``, where the whole repetition runs in that thread.  At
  ``--jobs 2`` the trials run in two pool processes on both cores, and
  scaling by it widened the spread.
  It shares no code with the program and keeps no container beyond one
  call, so the program's heap cannot slow it through the garbage
  collector.
- ``control_start``: an isolated interpreter that imports a fixed list of
  standard-library modules.  It does the same kind of work as
  ``import scoutnet.cli`` (finding, unmarshalling and executing modules)
  but shares no code with the program or its dependencies; it scales the
  start-ups of ``setup_s``.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter

# Times read as seconds on a host where the loop takes 10 ms and the
# control start 0.15 s.  On the development box (Python 3.11.7) the loop
# took 6 to 19 ms and the control start 0.12 to 0.33 s.
REFERENCE_S = 0.010
CONTROL_REFERENCE_S = 0.15
STEPS = 20_000
SAMPLES = 5
CONTROL_MODULES = (
    "asyncio, unittest, email.mime.multipart, http.server, xml.dom.minidom, "
    "decimal, multiprocessing, concurrent.futures, sqlite3, tarfile, zipfile, "
    "csv, statistics, fractions, pydoc, difflib, inspect, dataclasses, typing, "
    "pickle"
)


def _step(table: dict, key: int, acc: float) -> float:
    value = table[key] * 0.5 + math.cos(acc)
    table[key] = value
    return acc + value


def _work() -> float:
    table = dict.fromkeys(range(512), 0.25)
    x = 12345
    acc = 0.0
    for _ in range(STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc = _step(table, x & 511, acc) * 0.999
    return acc


def seconds() -> float:
    """Median wall time of a few runs of the loop."""
    times = []
    for _ in range(SAMPLES):
        start = perf_counter()
        _work()
        times.append(perf_counter() - start)
    return statistics.median(times)


def control_start() -> float:
    """Wall time of one isolated interpreter importing ``CONTROL_MODULES``."""
    start = perf_counter()
    command = [sys.executable, "-I", "-c", f"import {CONTROL_MODULES}"]
    subprocess.run(command, check=True)
    return perf_counter() - start
