"""One full protocol trial in discrete hidden time.

Forward half: a scout wavefront spreads from the source one rib per
tick, accumulating phase per rib; every admissible arrival at a detector
adds a unit vector to that detector's amplitude.  Reverse half: closed
detectors emit intensity-weighted queries backward along the scout
traces; at every node where queries from distinct detectors meet, a
lottery keeps one of them (probability proportional to weight) and a
refusal wave voids the losing branches.  The query that survives the
source's final lottery fixes the winning detector, and a confirmation
walk marks the single surviving source-to-winner polyline.

The reverse half honours barrier semantics: a node's lottery runs only
once every scout-marked inbound rib has either delivered a query or been
voided, which is what processing nodes in reverse topological order of
the trace graph implements.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .errors import (
    DEFAULT_PATH_BUDGET,
    DarkTrialError,
    DeadlockError,
    PathBudgetError,
    ProtocolOrderError,
    ScoutnetError,
)
from .lattice import Lattice, NodeKind
from .rng import derive_trial_seed

TWO_PI = 2.0 * math.pi
DEFAULT_EPS_INTENSITY = 1e-12

TraceSink = Callable[[str], None]


class Mode(str, Enum):
    NAIVE = "naive"
    AGGREGATE = "aggregate"


class RibState(str, Enum):
    VOID = "void"
    CONFIRMED = "confirmed"


def next_phase(phi: float, rib_length: float, wavelength: float) -> float:
    """Rotate the phase by one rib: (phi + 2*pi*l/lambda) mod 2*pi."""
    return math.fmod(phi + TWO_PI * rib_length / wavelength, TWO_PI)


@dataclass
class DetectorRecord:
    detector: int
    re: float = 0.0
    im: float = 0.0
    arrivals: int = 0
    intensity: Optional[float] = None
    closed: bool = False

    def add_arrival(self, phase: float) -> None:
        if self.closed:
            raise ProtocolOrderError(
                f"detector {self.detector} is closed; arrival rejected"
            )
        self.re += math.cos(phase)
        self.im += math.sin(phase)
        self.arrivals += 1

    @property
    def amplitude(self) -> complex:
        return complex(self.re, self.im)


def close_detector(record: DetectorRecord) -> DetectorRecord:
    """Freeze the amplitude and fix I = |amplitude|^2; closing twice is a bug."""
    if record.closed:
        raise ProtocolOrderError(f"detector {record.detector} closed twice")
    record.intensity = record.re * record.re + record.im * record.im
    record.closed = True
    return record


@dataclass(frozen=True)
class Query:
    detector: int
    weight: float
    at: int


@dataclass(frozen=True)
class ScoutReport:
    arrival_phases: dict[int, tuple[float, ...]]
    trace_edges: frozenset[tuple[int, int]]
    ticks: int
    fronts: int


def propagate_scouts(
    lattice: Lattice,
    path_budget: int = DEFAULT_PATH_BUDGET,
    trace: Optional[TraceSink] = None,
) -> ScoutReport:
    """Run the scout wavefront to exhaustion; one rib per hidden tick.

    A scout crosses only ribs that raise the hop distance from the source
    by one (the forward DAG), which keeps the path set finite on any
    lattice.  Scouts do not interact with each other and are absorbed by
    charged nodes, so each front corresponds to exactly one admissible path.
    """
    source = lattice.source
    wavelength = lattice.wavelength
    arrivals: dict[int, list[float]] = defaultdict(list)
    trace_edges: set[tuple[int, int]] = set()
    created = 1
    ticks = 0

    dist = lattice.hop_distances()
    fronts: list[tuple[int, float]] = [(source, 0.0)]
    while fronts:
        ticks += 1
        nxt: list[tuple[int, float]] = []
        for u, phase in fronts:
            du = dist[u]
            for v, idx in lattice.adjacency[u]:
                if dist.get(v) != du + 1:
                    continue
                rib = lattice.ribs[idx]
                ph = next_phase(phase, rib.length, wavelength)
                trace_edges.add((u, v))
                if trace:
                    trace(f"tick={ticks} scout rib=({u},{v}) phase={ph:.9f}")
                kind = lattice.nodes[v].kind
                if kind is NodeKind.DETECTOR:
                    arrivals[v].append(ph)
                elif kind is NodeKind.VOID:
                    created += 1
                    if created > path_budget:
                        raise PathBudgetError(path_budget, created)
                    nxt.append((v, ph))
        fronts = nxt

    return ScoutReport(
        arrival_phases={det: tuple(phs) for det, phs in sorted(arrivals.items())},
        trace_edges=frozenset(trace_edges),
        ticks=ticks,
        fronts=created,
    )


def lottery_select(
    competitors: list[Query],
    mode: Mode,
    rng: random.Random,
) -> tuple[Query, list[Query], bool]:
    """Draw one winner with probability weight_i / sum(weights).

    All-zero weights degenerate to a uniform draw (flagged).  The winner
    keeps its own weight in naive mode and inherits the sum of all
    competitor weights in aggregate mode.
    """
    if not competitors:
        raise ValueError("lottery with no competitors")
    total = sum(q.weight for q in competitors)
    degenerate = False
    if total <= 0.0:
        index = rng.randrange(len(competitors))
        degenerate = True
    else:
        r = rng.random() * total
        acc = 0.0
        index = len(competitors) - 1
        for i, q in enumerate(competitors):
            acc += q.weight
            if r < acc:
                index = i
                break
    chosen = competitors[index]
    new_weight = total if mode is Mode.AGGREGATE and total > 0.0 else chosen.weight
    winner = Query(detector=chosen.detector, weight=new_weight, at=chosen.at)
    losers = [q for i, q in enumerate(competitors) if i != index]
    return winner, losers, degenerate


def _topo_order(edges: frozenset[tuple[int, int]]) -> list[int]:
    """Deterministic topological order of the trace graph (u before v per edge)."""
    out: dict[int, list[int]] = defaultdict(list)
    indeg: dict[int, int] = defaultdict(int)
    nodes: set[int] = set()
    for u, v in edges:
        out[u].append(v)
        indeg[v] += 1
        nodes.add(u)
        nodes.add(v)
    ready = [n for n in nodes if indeg[n] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    if len(order) != len(nodes):
        stuck = sorted(nodes - set(order))[:5]
        raise DeadlockError(
            f"reverse-query barrier cannot be satisfied: cyclic trace through {stuck}"
        )
    return order


@dataclass(frozen=True)
class TrialPlan:
    """Everything about a trial that does not depend on the random stream."""

    lattice: Lattice
    scout_report: ScoutReport
    intensities: dict[int, float]
    live_detectors: tuple[int, ...]
    live_edges: frozenset[tuple[int, int]]
    out_live: dict[int, tuple[int, ...]]
    in_live: dict[int, tuple[int, ...]]
    process_order: tuple[int, ...]


def prepare(lattice: Lattice, trace: Optional[TraceSink] = None) -> TrialPlan:
    """Run the forward half and precompute the reverse-query structure.

    Detectors whose intensity does not exceed ``DEFAULT_EPS_INTENSITY``
    are dark: they emit no query and no live edge leads to them.
    """
    report = propagate_scouts(lattice, trace=trace)
    records: dict[int, DetectorRecord] = {}
    for det in lattice.detectors:
        rec = DetectorRecord(det)
        for phase in report.arrival_phases.get(det, ()):
            rec.add_arrival(phase)
        close_detector(rec)
        records[det] = rec
    intensities = {det: rec.intensity or 0.0 for det, rec in records.items()}
    live = tuple(d for d in lattice.detectors if intensities[d] > DEFAULT_EPS_INTENSITY)
    if not live:
        raise DarkTrialError("dark trial: no detector intensity above threshold")

    order = _topo_order(report.trace_edges)
    out_trace: dict[int, list[int]] = defaultdict(list)
    for u, v in report.trace_edges:
        out_trace[u].append(v)
    live_set = set(live)
    reach: dict[int, frozenset[int]] = {}
    for node in reversed(order):
        if lattice.nodes[node].kind is NodeKind.DETECTOR:
            reach[node] = frozenset((node,)) if node in live_set else frozenset()
        else:
            acc: set[int] = set()
            for v in out_trace.get(node, ()):
                acc |= reach.get(v, frozenset())
            reach[node] = frozenset(acc)

    live_edges = frozenset(
        (u, v) for u, v in report.trace_edges if reach.get(v, frozenset())
    )
    out_live: dict[int, list[int]] = defaultdict(list)
    in_live: dict[int, list[int]] = defaultdict(list)
    for u, v in live_edges:
        out_live[u].append(v)
        in_live[v].append(u)
    process_order = tuple(n for n in reversed(order) if out_live.get(n))
    return TrialPlan(
        lattice=lattice,
        scout_report=report,
        intensities=intensities,
        live_detectors=live,
        live_edges=live_edges,
        out_live={u: tuple(sorted(vs)) for u, vs in out_live.items()},
        in_live={v: tuple(sorted(us)) for v, us in in_live.items()},
        process_order=process_order,
    )


def _refuse(
    start_edges: list[tuple[int, int]],
    void: set[tuple[int, int]],
    plan: TrialPlan,
    trace: Optional[TraceSink] = None,
) -> None:
    """Void a losing branch: walk from the loss point toward its detectors.

    An edge dies when its query lost; a node cut from every inbound rib
    drags its whole downstream trace along (the refusal wave).
    """
    stack = list(start_edges)
    while stack:
        u, v = stack.pop()
        if (u, v) in void:
            continue
        void.add((u, v))
        if trace:
            trace(f"refuse rib=({u},{v})")
        if all((t, v) in void for t in plan.in_live.get(v, ())):
            for w in plan.out_live.get(v, ()):
                stack.append((v, w))


def backpropagate(
    plan: TrialPlan,
    mode: Mode,
    rng: random.Random,
    trace: Optional[TraceSink] = None,
) -> tuple[int, dict[int, tuple[int, float]], set[tuple[int, int]], int]:
    """Run every lottery in barrier order; returns the winning detector,
    the surviving query per node, the voided edges, and the count of
    degenerate (all-zero-weight) lotteries."""
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
                # queries from the same detector merge; no self-competition
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
        competitors = [Query(det, w, u) for det, w in sorted(weights.items())]
        winner, losers, was_degenerate = lottery_select(competitors, mode, rng)
        if was_degenerate:
            degenerate += 1
        if trace:
            trace(
                f"lottery node={u} winner={winner.detector} "
                f"weights={[(q.detector, q.weight) for q in competitors]}"
            )
        winner_at[u] = (winner.detector, winner.weight)
        for loser in losers:
            _refuse(carriers[loser.detector], void, plan, trace)

    source_entry = winner_at.get(plan.lattice.source)
    if source_entry is None:
        raise ScoutnetError("protocol bug: no query survived to the source")
    return source_entry[0], winner_at, void, degenerate


@dataclass(frozen=True)
class TrialOutcome:
    winner: int
    surviving_path: tuple[int, ...]
    hidden_ticks: int
    intensities: dict[int, float]
    seed: int
    master_seed: int
    trial_index: int
    mode: Mode
    degenerate_lotteries: int
    rib_states: dict[tuple[int, int], RibState]


def _confirmation_walk(
    plan: TrialPlan,
    winner: int,
    winner_at: dict[int, tuple[int, float]],
    void: set[tuple[int, int]],
    rng: random.Random,
) -> tuple[int, ...]:
    """Source-to-winner walk over the surviving trace; forks between
    equivalent same-detector branches are resolved uniformly at random."""
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
            raise ScoutnetError(
                f"protocol bug: confirmation walk stuck at node {u}"
            )
        u = candidates[0] if len(candidates) == 1 else rng.choice(candidates)
        path.append(u)
    return tuple(path)


def run_trial(
    lattice: Lattice,
    mode: Mode,
    master_seed: int,
    trial_index: int,
    plan: Optional[TrialPlan] = None,
    trace: Optional[TraceSink] = None,
) -> TrialOutcome:
    """Execute one complete trial; a pure function of (lattice, mode, seed, index).

    A precomputed ``TrialPlan`` may be passed to amortise the forward half
    over an ensemble; the outcome is identical either way.
    """
    if plan is None:
        plan = prepare(lattice, trace)
    seed = derive_trial_seed(master_seed, trial_index)
    rng = random.Random(seed)

    winner, winner_at, void, degenerate = backpropagate(plan, mode, rng, trace)
    path = _confirmation_walk(plan, winner, winner_at, void, rng)
    if trace:
        trace(f"confirm winner={winner} path={list(path)}")

    confirmed = {tuple(sorted(pair)) for pair in zip(path, path[1:])}
    rib_states = {
        rib.endpoints: (
            RibState.CONFIRMED if rib.endpoints in confirmed else RibState.VOID
        )
        for rib in lattice.ribs
    }
    hidden_ticks = (
        plan.scout_report.ticks + len(plan.process_order) + (len(path) - 1)
    )
    return TrialOutcome(
        winner=winner,
        surviving_path=path,
        hidden_ticks=hidden_ticks,
        intensities=dict(plan.intensities),
        seed=seed,
        master_seed=master_seed,
        trial_index=trial_index,
        mode=mode,
        degenerate_lotteries=degenerate,
        rib_states=rib_states,
    )
