"""Frozen reference for the reverse half: a set-and-dict kernel that
runs every lottery and refusal wave in ``process_order``, with no seeded
query table and no shared lotteries.

Only the tests use it.  It reads the plan's ``out_live`` as a list of
edges, ``process_order`` and ``intensities``, builds its own child and
parent maps from the edges, keeps its own copy of the lottery draw and
of the random stream, a sequential splitmix64, and must agree with the
engine's kernel per seed: winner, surviving path, voided edges and trace lines.
Its draw keeps an all-zero uniform fallback that the engine's lacks, and
counts its uses; the tests assert that count stays 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Optional

from scoutnet.engine import Mode, TrialPlan
from scoutnet.errors import ScoutnetError
from scoutnet.lattice import NodeKind

TraceSink = Callable[[str], None]

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Vigna's splitmix64, one word at a time: each step adds GAMMA to the
    state and mixes it.  ``random()`` is the word's top 53 bits times
    2**-53."""

    def __init__(self, state: int):
        self.state = state

    def next_word(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        z = self.state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        return (self.next_word() >> 11) * 2.0**-53


class CountingStream:
    """A stream that counts the draws taken from it."""

    def __init__(self, stream: SplitMix64):
        self.stream = stream
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self.stream.random()


def trial_stream(master_seed: int, trial_index: int) -> SplitMix64:
    """Trial ``trial_index``'s stream: its state is word ``trial_index`` of
    the master seed's own splitmix64 sequence."""
    seeds = SplitMix64((master_seed + trial_index * GAMMA) & MASK64)
    return SplitMix64(seeds.next_word())


def lottery_select(
    competitors: list[tuple[int, float]], mode: Mode, rng: SplitMix64
) -> tuple[tuple[int, float], list[tuple[int, float]], bool]:
    """(detector, weight) competitors; returns winner, losers, degenerate."""
    if not competitors:
        raise ValueError("lottery with no competitors")
    total = sum(w for _, w in competitors)
    degenerate = False
    if total <= 0.0:
        index = int(rng.random() * len(competitors))
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


def _live_maps(
    plan: TrialPlan,
) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """Each node's live children and live parents, in sorted ``(u, v)``
    order, so children come in id order."""
    out_live: dict[int, list[int]] = defaultdict(list)
    in_live: dict[int, list[int]] = defaultdict(list)
    for u, v in sorted((u, v) for u, kids in plan.out_live.items() for v in kids):
        out_live[u].append(v)
        in_live[v].append(u)
    return out_live, in_live


def _refuse(
    start_edges: list[tuple[int, int]],
    void: set[tuple[int, int]],
    out_live: dict[int, list[int]],
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
            for w in out_live.get(v, ()):
                stack.append((v, w))


def backpropagate(
    plan: TrialPlan,
    mode: Mode,
    rng: SplitMix64,
    trace: Optional[TraceSink] = None,
) -> tuple[int, dict[int, tuple[int, float]], set[tuple[int, int]], int]:
    out_live, in_live = _live_maps(plan)
    winner_at: dict[int, tuple[int, float]] = {}
    void: set[tuple[int, int]] = set()
    degenerate = 0
    for u in plan.process_order:
        weights: dict[int, float] = {}
        carriers: dict[int, list[tuple[int, int]]] = {}
        for v in out_live[u]:
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
            _refuse(carriers[loser], void, out_live, in_live, trace)

    source_entry = winner_at.get(plan.lattice.source)
    if source_entry is None:
        raise ScoutnetError("protocol bug: no query survived to the source")
    return source_entry[0], winner_at, void, degenerate


def _confirmation_walk(
    plan: TrialPlan,
    winner: int,
    winner_at: dict[int, tuple[int, float]],
    void: set[tuple[int, int]],
    rng: SplitMix64,
) -> tuple[int, ...]:
    out_live, _ = _live_maps(plan)
    path = [plan.lattice.source]
    u = plan.lattice.source
    while u != winner:
        candidates = []
        for v in out_live.get(u, ()):
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
        if len(candidates) == 1:
            u = candidates[0]
        else:
            u = candidates[int(rng.random() * len(candidates))]
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
    rng = trial_stream(master_seed, trial_index)
    winner, winner_at, void, degenerate = backpropagate(plan, mode, rng, trace)
    path = _confirmation_walk(plan, winner, winner_at, void, rng)
    return winner, path, degenerate, void
