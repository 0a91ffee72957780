"""The names the benchmark's traced run wraps, and the plan fields it counts.

``perfbench/tracing.py`` swaps public functions for timed copies by module
and attribute name, and reads a few ``TrialPlan`` fields.  A rename in the
program would break the traced run without failing any other test.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from scoutnet.engine import Mode, backpropagate, prepare, run_trial
from scoutnet.lattice import build_intensity_star, build_slit_grid

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_target_resolves(tracing):
    targets = tracing.layer_targets() + tracing.ensemble_targets()
    assert any(name == "lattice.build" for _, _, name, _ in targets)
    for owner, attr, name, _count in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner}.{attr}"


@pytest.mark.parametrize(
    "lattice",
    [build_intensity_star([1.0, 1.0, 2.0]), build_slit_grid(3, 9, [2, 6])],
    ids=["star", "slit"],
)
def test_counters_read_the_plan_and_results(tracing, lattice):
    plan = prepare(lattice)
    counts: Counter = Counter()
    tracing._count_plan(counts, plan)
    assert counts["engine.fronts"] == plan.scout_report.fronts > 0
    assert counts["engine.live_edges"] == len(plan.live_edges) > 0
    assert counts["engine.lottery_nodes"] > 0
    tracing._count_backprop(counts, backpropagate(plan, Mode.AGGREGATE, 1, 0))
    tracing._count_outcome(counts, run_trial(lattice, Mode.AGGREGATE, 1, 0, plan=plan))
    assert counts["engine.path_hops"] > 0
