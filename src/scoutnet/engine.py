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

Everything that does not depend on the random stream is computed once
by ``prepare``, which lowers the live trace graph to integer-indexed
arrays (a ``TrialPlan``).  One kernel, ``_reverse_half``, runs the
lotteries and refusal waves on those arrays.  Three entry points share
it: ``trial_winner`` returns only the winning detector (what an ensemble
counts); ``run_trial`` adds the confirmation walk and the full
``TrialOutcome``; ``backpropagate`` returns the kernel's state keyed by
node id and edge.
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
    weights: list[float],
    mode: Mode,
    rng: random.Random,
) -> tuple[int, float, bool]:
    """Draw index i with probability weights[i] / sum(weights).

    Returns the drawn index, the weight its query carries on, and whether
    the draw was degenerate: all-zero weights fall back to a uniform draw.
    The winner keeps its own weight in naive mode and inherits the sum of
    all competitor weights in aggregate mode.
    """
    if not weights:
        raise ValueError("lottery with no competitors")
    total = sum(weights)
    degenerate = False
    if total <= 0.0:
        index = rng.randrange(len(weights))
        degenerate = True
    else:
        r = rng.random() * total
        acc = 0.0
        index = len(weights) - 1
        for i, w in enumerate(weights):
            acc += w
            if r < acc:
                index = i
                break
    carried = total if mode is Mode.AGGREGATE and total > 0.0 else weights[index]
    return index, carried, degenerate


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


# One step of the reverse half at a node: (edge id, child, the child's
# detector id or -1 for a void child, the detector's intensity or 0.0).
Step = tuple[int, int, int, float]


@dataclass(frozen=True)
class TrialPlan:
    """Everything about a trial that does not depend on the random stream.

    The fields after ``process_order`` are the live trace graph lowered to
    integer ids for the reverse-half kernel.  Edge ``e`` is ``edges[e]``,
    in sorted ``(u, v)`` order, so each node's out-edges run in child
    order; ``steps[i]`` holds the out-edges of ``process_order[i]``.
    """

    lattice: Lattice
    scout_report: ScoutReport
    intensities: dict[int, float]
    live_detectors: tuple[int, ...]
    live_edges: frozenset[tuple[int, int]]
    # the kernel reads ``out_edges``; perfbench's plan counters read this
    out_live: dict[int, tuple[int, ...]]
    process_order: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    edge_head: tuple[int, ...]
    out_edges: tuple[tuple[int, ...], ...]
    in_degree: tuple[int, ...]
    steps: tuple[tuple[Step, ...], ...]


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
    edges = tuple(sorted(live_edges))
    n = len(lattice.nodes)
    out_edges: list[list[int]] = [[] for _ in range(n)]
    in_degree = [0] * n
    for e, (u, v) in enumerate(edges):
        out_edges[u].append(e)
        in_degree[v] += 1
    process_order = tuple(node for node in reversed(order) if out_edges[node])

    def step(e: int) -> Step:
        v = edges[e][1]
        if lattice.nodes[v].kind is NodeKind.DETECTOR:
            return (e, v, v, intensities[v])
        return (e, v, -1, 0.0)

    return TrialPlan(
        lattice=lattice,
        scout_report=report,
        intensities=intensities,
        live_detectors=live,
        live_edges=live_edges,
        out_live={
            u: tuple(edges[e][1] for e in out_edges[u]) for u in range(n) if out_edges[u]
        },
        process_order=process_order,
        edges=edges,
        edge_head=tuple(v for _, v in edges),
        out_edges=tuple(tuple(es) for es in out_edges),
        in_degree=tuple(in_degree),
        steps=tuple(tuple(step(e) for e in out_edges[u]) for u in process_order),
    )


def _reverse_half(
    plan: TrialPlan,
    mode: Mode,
    rng: random.Random,
    trace: Optional[TraceSink] = None,
) -> tuple[list[int], list[float], bytearray, int]:
    """The reverse-half kernel: every lottery in barrier order.

    Returns, per node, the detector whose query survived there (-1 if
    none) and that query's weight; per edge, 1 if it was voided; and the
    count of degenerate (all-zero-weight) lotteries.

    Queries from one detector merge at a node (no self-competition) and
    keep the larger weight.  A losing query's edges are voided, and the
    refusal wave walks on from every node whose live inbound edges are
    all dead.  Competitors are drawn in detector order and the wave pops
    edges from a stack, which fixes the order of the RNG draws.
    """
    n = len(plan.lattice.nodes)
    win_det = [-1] * n
    win_weight = [0.0] * n
    void = bytearray(len(plan.edges))
    dead_in = [0] * n
    edge_head = plan.edge_head
    out_edges = plan.out_edges
    in_degree = plan.in_degree
    degenerate = 0
    for u, steps in zip(plan.process_order, plan.steps):
        weights: dict[int, float] = {}
        carriers: dict[int, list[int]] = {}
        for e, v, det, w in steps:
            if void[e]:
                continue
            if det < 0:
                det = win_det[v]
                if det < 0:
                    continue
                w = win_weight[v]
            if det in weights:
                if w > weights[det]:
                    weights[det] = w
                carriers[det].append(e)
            else:
                weights[det] = w
                carriers[det] = [e]
        if not weights:
            continue
        if len(weights) == 1:
            ((win_det[u], win_weight[u]),) = weights.items()
            continue
        dets = sorted(weights)
        competitors = [weights[d] for d in dets]
        index, carried, was_degenerate = lottery_select(competitors, mode, rng)
        if was_degenerate:
            degenerate += 1
        if trace:
            trace(
                f"lottery node={u} winner={dets[index]} "
                f"weights={list(zip(dets, competitors))}"
            )
        win_det[u] = dets[index]
        win_weight[u] = carried
        for i, loser in enumerate(dets):
            if i == index:
                continue
            stack = carriers[loser]
            while stack:
                e = stack.pop()
                if void[e]:
                    continue
                void[e] = 1
                v = edge_head[e]
                if trace:
                    trace(f"refuse rib=({plan.edges[e][0]},{v})")
                dead_in[v] += 1
                if dead_in[v] == in_degree[v]:
                    stack.extend(out_edges[v])

    if win_det[plan.lattice.source] < 0:
        raise ScoutnetError("protocol bug: no query survived to the source")
    return win_det, win_weight, void, degenerate


def trial_winner(plan: TrialPlan, mode: Mode, master_seed: int, trial_index: int) -> int:
    """The winning detector of one trial, and nothing else.

    Equal to ``run_trial(...).winner``: the confirmation walk draws from
    the stream only after the last lottery, so skipping it cannot change
    which detector wins.
    """
    rng = random.Random(derive_trial_seed(master_seed, trial_index))
    return _reverse_half(plan, mode, rng)[0][plan.lattice.source]


def backpropagate(
    plan: TrialPlan,
    mode: Mode,
    rng: random.Random,
    trace: Optional[TraceSink] = None,
) -> tuple[int, dict[int, tuple[int, float]], set[tuple[int, int]], int]:
    """The kernel's result by node id: the winning detector, the surviving
    query per node, the voided edges, and the count of degenerate
    (all-zero-weight) lotteries."""
    win_det, win_weight, void, degenerate = _reverse_half(plan, mode, rng, trace)
    winner_at = {
        u: (win_det[u], win_weight[u]) for u in plan.process_order if win_det[u] >= 0
    }
    voided = {edge for edge, dead in zip(plan.edges, void) if dead}
    return win_det[plan.lattice.source], winner_at, voided, degenerate


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
    win_det: list[int],
    void: bytearray,
    rng: random.Random,
) -> tuple[int, ...]:
    """Source-to-winner walk over the surviving trace; forks between
    equivalent same-detector branches are resolved uniformly at random."""
    path = [plan.lattice.source]
    u = plan.lattice.source
    while u != winner:
        candidates = []
        for e in plan.out_edges[u]:
            if void[e]:
                continue
            # the winner itself, or a void node holding its query
            # (detectors hold no query, so their win_det is -1)
            v = plan.edge_head[e]
            if v == winner or win_det[v] == winner:
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

    win_det, _, void, degenerate = _reverse_half(plan, mode, rng, trace)
    winner = win_det[lattice.source]
    path = _confirmation_walk(plan, winner, win_det, void, rng)
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
