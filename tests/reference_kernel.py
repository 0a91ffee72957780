"""Frozen reference for the reverse half: the set-and-dict kernel as it was
before the engine lowered its plan to integer arrays.

Only the tests use it.  It reads the plan's dict fields (``out_live``,
``process_order``, ``intensities``, ``live_edges``), keeps its own copy of
the lottery draw, and must agree with the engine's kernel per seed:
winner, surviving path, degenerate count, voided edges and trace lines.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Callable, Optional

from scoutnet.engine import Mode, TrialPlan
from scoutnet.errors import ScoutnetError
from scoutnet.lattice import NodeKind
from scoutnet.rng import derive_trial_seed

TraceSink = Callable[[str], None]


def lottery_select(
    competitors: list[tuple[int, float]], mode: Mode, rng: random.Random
) -> tuple[tuple[int, float], list[tuple[int, float]], bool]:
    """(detector, weight) competitors; returns winner, losers, degenerate."""
    if not competitors:
        raise ValueError("lottery with no competitors")
    total = sum(w for _, w in competitors)
    degenerate = False
    if total <= 0.0:
        index = rng.randrange(len(competitors))
        degenerate = True
    else:
        r = rng.random() * total
        acc = 0.0
        index = len(competitors) - 1
        for i, (_, w) in enumerate(competitors):
            acc += w
            if r < acc:
                index = i
                break
    det, weight = competitors[index]
    new_weight = total if mode is Mode.AGGREGATE and total > 0.0 else weight
    losers = [c for i, c in enumerate(competitors) if i != index]
    return (det, new_weight), losers, degenerate


def _in_live(plan: TrialPlan) -> dict[int, list[int]]:
    in_live: dict[int, list[int]] = defaultdict(list)
    for u, v in sorted(plan.live_edges):
        in_live[v].append(u)
    return in_live


def _refuse(
    start_edges: list[tuple[int, int]],
    void: set[tuple[int, int]],
    plan: TrialPlan,
    in_live: dict[int, list[int]],
    trace: Optional[TraceSink] = None,
) -> None:
    stack = list(start_edges)
    while stack:
        u, v = stack.pop()
        if (u, v) in void:
            continue
        void.add((u, v))
        if trace:
            trace(f"refuse rib=({u},{v})")
        if all((t, v) in void for t in in_live.get(v, ())):
            for w in plan.out_live.get(v, ()):
                stack.append((v, w))


def backpropagate(
    plan: TrialPlan,
    mode: Mode,
    rng: random.Random,
    trace: Optional[TraceSink] = None,
) -> tuple[int, dict[int, tuple[int, float]], set[tuple[int, int]], int]:
    in_live = _in_live(plan)
    winner_at: dict[int, tuple[int, float]] = {}
    void: set[tuple[int, int]] = set()
    degenerate = 0
    for u in plan.process_order:
        weights: dict[int, float] = {}
        carriers: dict[int, list[tuple[int, int]]] = {}
        for v in plan.out_live[u]:
            if (u, v) in void:
                continue
            if plan.lattice.nodes[v].kind is NodeKind.DETECTOR:
                entry = (v, plan.intensities[v])
            else:
                entry = winner_at.get(v)
                if entry is None:
                    continue
            det, w = entry
            if det in weights:
                weights[det] = max(weights[det], w)
                carriers[det].append((u, v))
            else:
                weights[det] = w
                carriers[det] = [(u, v)]
        if not weights:
            continue
        if len(weights) == 1:
            det, w = next(iter(weights.items()))
            winner_at[u] = (det, w)
            continue
        competitors = sorted(weights.items())
        winner, losers, was_degenerate = lottery_select(competitors, mode, rng)
        if was_degenerate:
            degenerate += 1
        if trace:
            trace(f"lottery node={u} winner={winner[0]} weights={competitors}")
        winner_at[u] = winner
        for loser, _ in losers:
            _refuse(carriers[loser], void, plan, in_live, trace)

    source_entry = winner_at.get(plan.lattice.source)
    if source_entry is None:
        raise ScoutnetError("protocol bug: no query survived to the source")
    return source_entry[0], winner_at, void, degenerate


def _confirmation_walk(
    plan: TrialPlan,
    winner: int,
    winner_at: dict[int, tuple[int, float]],
    void: set[tuple[int, int]],
    rng: random.Random,
) -> tuple[int, ...]:
    path = [plan.lattice.source]
    u = plan.lattice.source
    while u != winner:
        candidates = []
        for v in plan.out_live.get(u, ()):
            if (u, v) in void:
                continue
            if v == winner:
                candidates.append(v)
            else:
                entry = winner_at.get(v)
                if (
                    entry is not None
                    and entry[0] == winner
                    and plan.lattice.nodes[v].kind is NodeKind.VOID
                ):
                    candidates.append(v)
        if not candidates:
            raise ScoutnetError(f"protocol bug: confirmation walk stuck at node {u}")
        u = candidates[0] if len(candidates) == 1 else rng.choice(candidates)
        path.append(u)
    return tuple(path)


def reference_trial(
    plan: TrialPlan,
    mode: Mode,
    master_seed: int,
    trial_index: int,
    trace: Optional[TraceSink] = None,
) -> tuple[int, tuple[int, ...], int, set[tuple[int, int]]]:
    """Winner, surviving path, degenerate count and voided edges of one trial."""
    rng = random.Random(derive_trial_seed(master_seed, trial_index))
    winner, winner_at, void, degenerate = backpropagate(plan, mode, rng, trace)
    path = _confirmation_walk(plan, winner, winner_at, void, rng)
    return winner, path, degenerate, void
