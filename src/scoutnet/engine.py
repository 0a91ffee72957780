"""One full protocol trial in discrete hidden time.

Forward half: a scout wavefront spreads from the source one rib per
tick, accumulating phase per rib; every admissible arrival at a detector
adds a unit vector to that detector's amplitude.  Scouts do not
interact, so that sum over paths is computed rib by rib over the forward
DAG, in time linear in the ribs, not the paths.  Reverse half: closed
detectors emit intensity-weighted queries backward along the scout
traces; at every node where queries from distinct detectors meet, a
lottery keeps one of them (probability proportional to weight) and a
refusal wave voids the losing branches.  The query that survives the
source's final lottery fixes the winning detector, and a confirmation
walk marks the single surviving source-to-winner polyline.

The reverse half honours barrier semantics: a node's lottery runs only
once every scout-marked inbound rib has either delivered a query or been
voided.  The scouts expand nodes in ``(hop distance, id)`` order and every
forward rib raises the hop distance by one, so that order walked backward
reaches each node after all of its children: it is the barrier order.

Everything that does not depend on the random stream is computed once
by ``prepare``.  The scout report holds each detector's amplitude, summed
rib by rib, and each expanded node's forward children in expansion
order; one backward sweep over them builds the live trace graph, each
node's live children, and stores it in a ``TrialPlan``.  Its per-node
query table is seeded with each live detector's own query and with the
surviving query of every draw-free node, one whose live reach holds a
single detector: such a node never holds a lottery.  Draw nodes with
the same live children see the same competing queries in any one trial,
so the plan groups them into one lottery; a lottery whose children are
all seeded has fixed competitors, and the plan stores its record.  The
reverse half is split in two.  The kernel, ``_reverse_half``, starts from
the seeded table, builds each lottery once per trial and draws from it
at every node of its group, in ``draw_order``; a refusal wave voids only
edges below its lottery, which barrier order has already passed, so the
lotteries alone fix the winner.  The replay, ``_refusals``, runs the
waves from the kernel's result and draws nothing; only the voided-edge
set and the ``--trace`` lines need it.  ``count_winners`` runs the
kernel alone over a span of trials (what an ensemble counts);
``run_trial`` adds the confirmation walk, the full ``TrialOutcome`` and,
under a trace, the replay; ``backpropagate`` returns the kernel's state
keyed by node id with the replay's voided edges.

Every draw comes from the trial's own splitmix64 stream (``rng``), and
only through ``random()``: a lottery draws once, and a uniform choice
among k options takes ``int(random() * k)``.  The kernel draws at most
once per draw node and the walk at most once per node it leaves, so a
trial needs at most ``len(draw_order)`` draws for its winner and
``len(process_order)`` more for its path.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate
from typing import Callable, Optional, Sequence

from .errors import DarkTrialError, ScoutnetError
from .lattice import Lattice, NodeKind
from .rng import Draws, derive_trial_seed, trial_streams

TWO_PI = 2.0 * math.pi
DEFAULT_EPS_INTENSITY = 1e-12

TraceSink = Callable[[str], None]


class Mode(str, Enum):
    NAIVE = "naive"
    AGGREGATE = "aggregate"


class RibState(str, Enum):
    VOID = "void"
    CONFIRMED = "confirmed"


@dataclass(frozen=True)
class ScoutReport:
    """The forward half: each detector's amplitude (0j if no scout lands),
    each expanded node's forward children, the hidden ticks, and
    ``fronts``, the number of scouts ever created: one at the source plus
    one per admissible path to each void node.

    ``children`` is filled in expansion order, ``(hop distance, id)``, and
    ``prepare`` relies on it: walked backward, it lists every node after
    all of its children.  Each node's children are in id order."""

    amplitudes: dict[int, complex]
    children: dict[int, tuple[int, ...]]
    ticks: int
    fronts: int


def propagate_scouts(
    lattice: Lattice, trace: Optional[TraceSink] = None
) -> ScoutReport:
    """Run the scout wavefront to exhaustion; one rib per hidden tick.

    A scout crosses only ribs that raise the hop distance from the source
    by one (the forward DAG).  Scouts do not interact and are absorbed by
    charged nodes, so the sum of unit phasors over every admissible path
    factorises rib by rib: amp(v) = sum over parents u of amp(u) turned
    by the rib's phase, ``fmod(2*pi*l/lambda, 2*pi)``, and the number of
    scouts reaching v is the sum of its parents' counts.  The source and
    the void nodes are expanded once each, in ``(hop distance, id)``
    order, so every parent is complete before its children; a node's
    amplitude is summed over its parents in id order.  ``trace`` gets one
    ``scout`` line per forward rib, with the number of scouts crossing it.
    """
    nodes, ribs, wavelength = lattice.nodes, lattice.ribs, lattice.wavelength
    dist = lattice.hop_distances()
    re, im, paths = [0.0] * len(nodes), [0.0] * len(nodes), [0] * len(nodes)
    re[lattice.source] = 1.0
    paths[lattice.source] = 1
    expanded = sorted(
        (u for u in dist if u == lattice.source or nodes[u].kind is NodeKind.VOID),
        key=lambda u: (dist[u], u),
    )
    children: dict[int, tuple[int, ...]] = {}
    for u in expanded:
        du = dist[u]
        ru, iu, n = re[u], im[u], paths[u]
        kids = []
        for v, idx in lattice.adjacency[u]:
            if dist.get(v) != du + 1:
                continue
            kids.append(v)
            turn = math.fmod(TWO_PI * ribs[idx].length / wavelength, TWO_PI)
            c, s = math.cos(turn), math.sin(turn)
            re[v] += ru * c - iu * s
            im[v] += ru * s + iu * c
            paths[v] += n
            if trace:
                trace(f"tick={du + 1} scout rib=({u},{v}) scouts={n}")
        children[u] = tuple(kids)

    return ScoutReport(
        amplitudes={det: complex(re[det], im[det]) for det in lattice.detectors},
        children=children,
        ticks=dist[expanded[-1]] + 1,
        fronts=1 + sum(paths[u] for u in expanded[1:]),
    )


# Read once per draw: looking the member up on ``Mode`` costs about 190 ns
# on CPython 3.10 and 3.11, a module global about 30 ns.
_AGGREGATE = Mode.AGGREGATE


# A lottery's record: its competitors' detectors, sorted; their query
# weights in that order; the running sums of those weights; their total.
# Lists, not tuples: the kernel builds records per trial, and a copy into
# a tuple costs time there; no code changes a record once it is built.
Lottery = tuple[list[int], list[float], list[float], float]


def _lottery(weights_by_det: dict[int, float]) -> Lottery:
    """The record of a lottery among ``weights_by_det``'s competitors.

    The running sums are ``acc += w`` in detector order and the total is
    ``sum(weights)``.  On CPython 3.12+ ``sum`` is compensated, so the
    total may differ from the last running sum in its final bits;
    ``lottery_select`` allows for that.
    """
    dets = sorted(weights_by_det)
    weights = [*map(weights_by_det.__getitem__, dets)]
    return dets, weights, [*accumulate(weights)], sum(weights)


def lottery_select(
    lottery: Lottery,
    mode: Mode,
    rng: Draws,
) -> tuple[int, float]:
    """Draw index i with probability weights[i] / total from a lottery record.

    Returns the drawn index and the weight its query carries on.  The
    index is the first i whose running sum exceeds
    ``r = rng.random() * total``, or the last index if none does (``r``
    can reach the last running sum when ``total`` is compensated), found
    by bisection; it takes exactly one draw.  The winner keeps its own
    weight in naive mode and inherits the total in aggregate mode.

    A record has at least two competitors and a positive total: a plan's
    lotteries are merged from two or more live detectors' queries, and
    each weight is a live intensity, above ``DEFAULT_EPS_INTENSITY``, or
    is carried on from such intensities.
    """
    _dets, weights, sums, total = lottery
    index = bisect_right(sums, rng.random() * total)
    if index == len(sums):
        index -= 1
    carried = total if mode is _AGGREGATE else weights[index]
    return index, carried


@dataclass(frozen=True)
class TrialPlan:
    """Everything about a trial that does not depend on the random stream.

    ``out_live`` is the live trace graph: each node with live children
    maps to them, in id order.  Its keys are ``process_order``, the same
    nodes in reverse ``(hop distance, id)`` order, so every live child
    comes before its parents.

    ``base_det``/``base_weight`` seed the per-node query table: a live
    detector holds its own query, ``(id, intensity)``.  A node whose live
    reach holds a single detector is draw-free: it never holds a lottery,
    and its surviving query is a fixed function of the forward half, so it
    is seeded too.  Every other node holds -1 and 0.0.  ``draw_order`` is
    the rest of ``process_order``, the nodes whose query depends on a draw.
    Every live child holds a query by the time its parents read it, and
    keeps it, so draw nodes with the same live children see the same
    competitors in any one trial: they share one lottery.
    ``draw_lottery[i]`` is the lottery of ``draw_order[i]``, numbered in
    order of first use.  When every child of a lottery is seeded, its
    competitors are fixed too, and ``lotteries[k]`` holds its record (see
    ``_lottery``); otherwise it is None and the kernel merges once per
    trial.
    """

    lattice: Lattice
    scout_report: ScoutReport
    intensities: dict[int, float]
    process_order: tuple[int, ...]
    out_live: dict[int, tuple[int, ...]]
    base_det: tuple[int, ...]
    base_weight: tuple[float, ...]
    draw_order: tuple[int, ...]
    draw_lottery: tuple[int, ...]
    lotteries: tuple[Optional[Lottery], ...]

    # a view for perfbench's plan counters and the frozen reference
    # kernel; the engine does not read it
    @cached_property
    def live_edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, kids in self.out_live.items() for v in kids)


def prepare(lattice: Lattice, trace: Optional[TraceSink] = None) -> TrialPlan:
    """Run the forward half and precompute the reverse-query structure.

    A detector's intensity is ``|a|^2`` of its amplitude ``a``, taken as
    ``a.real**2 + a.imag**2``.  Detectors whose intensity does not exceed
    ``DEFAULT_EPS_INTENSITY`` are dark: they emit no query and no live edge
    leads to them.  An intensity past the largest float (``inf``, or
    ``nan`` once the amplitudes overflowed) raises ``ScoutnetError``.
    """
    report = propagate_scouts(lattice, trace=trace)
    intensities = {
        det: a.real * a.real + a.imag * a.imag for det, a in report.amplitudes.items()
    }
    for d, intensity in intensities.items():
        if not math.isfinite(intensity):
            raise ScoutnetError(
                f"intensity overflow: detector {d}'s intensity is {intensity}"
            )
    live = {d for d in lattice.detectors if intensities[d] > DEFAULT_EPS_INTENSITY}
    if not live:
        raise DarkTrialError("dark trial: no detector intensity above threshold")

    # One backward sweep over the expansion order reaches every node after
    # its children.  A node's live children are its forward children that
    # are live detectors or have live children of their own.  A seeded
    # node's live reach is its one detector, so a node whose live children
    # are all seeded and merge to one detector is draw-free and seeded too;
    # every other node with live children draws.
    n = len(lattice.nodes)
    base_det = [-1] * n
    base_weight = [0.0] * n
    for d in live:
        base_det[d] = d
        base_weight[d] = intensities[d]
    live_children: dict[int, tuple[int, ...]] = {}
    draw_order: list[int] = []
    draw_lottery: list[int] = []
    lottery_of: dict[tuple[int, ...], int] = {}
    lotteries: list[Optional[Lottery]] = []
    for u in reversed(report.children):
        kids = tuple(
            v for v in report.children[u] if v in live or v in live_children
        )
        if not kids:
            continue
        live_children[u] = kids
        seeded = all(base_det[v] >= 0 for v in kids)
        weights = _merge(kids, base_det, base_weight) if seeded else {}
        if len(weights) == 1:
            ((base_det[u], base_weight[u]),) = weights.items()
            continue
        draw_order.append(u)
        k = lottery_of.setdefault(kids, len(lottery_of))
        draw_lottery.append(k)
        if k == len(lotteries):
            lotteries.append(_lottery(weights) if seeded else None)

    return TrialPlan(
        lattice=lattice,
        scout_report=report,
        intensities=intensities,
        process_order=tuple(live_children),
        out_live=live_children,
        base_det=tuple(base_det),
        base_weight=tuple(base_weight),
        draw_order=tuple(draw_order),
        draw_lottery=tuple(draw_lottery),
        lotteries=tuple(lotteries),
    )


def _merge(
    kids: Sequence[int], win_det: list[int], win_weight: list[float]
) -> dict[int, float]:
    """The competitors at one node: detector -> weight of its query.

    Each live child delivers the query it holds.  Queries from one
    detector merge (no self-competition) and keep the larger weight.
    """
    weights: dict[int, float] = {}
    for v in kids:
        det = win_det[v]
        w = win_weight[v]
        if det not in weights or w > weights[det]:
            weights[det] = w
    return weights


def _reverse_half(
    plan: TrialPlan,
    mode: Mode,
    rng: Draws,
) -> tuple[list[int], list[float]]:
    """The reverse-half kernel: every lottery in barrier order.

    Returns, per node, the detector whose query survived there (-1 if
    none) and that query's weight.  Competitors are drawn in detector
    order, which fixes the order of the RNG draws.

    Starts from the plan's seeded query table and visits only
    ``draw_order``: draw-free nodes hold no lottery, so skipping them
    leaves the draws as they were.  Each trial starts from the plan's
    stored lottery records; a lottery without one is merged from its
    children's queries once, at its first node, and that record serves
    every other node of its group in this trial, because those children
    keep their queries.  A lottery that merges to a single competitor
    gets no record and draws at none of its nodes: each merges again and
    takes that query.

    Refusal waves are left out.  A wave started at node u voids only edges
    whose tail is u or a descendant of u, whose lotteries barrier order has
    already run, so no later lottery reads a voided edge.
    """
    win_det = list(plan.base_det)
    win_weight = list(plan.base_weight)
    held = list(plan.lotteries)
    out_live = plan.out_live
    for u, k in zip(plan.draw_order, plan.draw_lottery):
        lottery = held[k]
        if lottery is None:
            weights = _merge(out_live[u], win_det, win_weight)
            if len(weights) == 1:
                ((win_det[u], win_weight[u]),) = weights.items()
                continue
            lottery = held[k] = _lottery(weights)
        index, carried = lottery_select(lottery, mode, rng)
        win_det[u] = lottery[0][index]
        win_weight[u] = carried

    if win_det[plan.lattice.source] < 0:
        raise ScoutnetError("protocol bug: no query survived to the source")
    return win_det, win_weight


def _refusals(
    plan: TrialPlan,
    win_det: list[int],
    win_weight: list[float],
    trace: Optional[TraceSink] = None,
) -> set[tuple[int, int]]:
    """Replay the kernel's lotteries and return the voided edges, as
    ``(u, v)`` pairs.

    At every lottery the losing queries' edges are voided, and the refusal
    wave walks on from every node whose live inbound edges are all dead.
    Losers are taken in detector order and the wave pops edges from a
    stack, children in id order, so the ``lottery``/``refuse`` trace lines
    come out in protocol order.  Draw-free nodes hold no lottery, so only
    ``draw_order`` is visited.  Draws nothing from the random stream.
    Each node's live in-degree is counted here, not stored in the plan:
    only ``backpropagate`` and a traced ``run_trial`` replay the waves.
    """
    out_live = plan.out_live
    in_degree = Counter(v for kids in out_live.values() for v in kids)
    dead_in: Counter = Counter()
    void: set[tuple[int, int]] = set()
    for u in plan.draw_order:
        kids = out_live[u]
        weights = _merge(kids, win_det, win_weight)
        if len(weights) < 2:
            continue
        winner = win_det[u]
        competitors = sorted(weights.items())
        if trace:
            trace(f"lottery node={u} winner={winner} weights={competitors}")
        for loser, _ in competitors:
            if loser == winner:
                continue
            stack = [(u, v) for v in kids if win_det[v] == loser]
            while stack:
                edge = stack.pop()
                if edge in void:
                    continue
                void.add(edge)
                tail, v = edge
                if trace:
                    trace(f"refuse rib=({tail},{v})")
                dead_in[v] += 1
                if dead_in[v] == in_degree[v]:
                    stack.extend((v, w) for w in out_live.get(v, ()))
    return void


def count_winners(
    plan: TrialPlan, mode: Mode, master_seed: int, start: int, stop: int
) -> Counter:
    """How often each detector wins among trials ``start``..``stop - 1``.

    Each trial's winner equals ``run_trial(...).winner``: the kernel alone
    fixes the winner, and the confirmation walk draws from the stream only
    after the last lottery, so skipping the walk and the refusal replay
    cannot change it.  ``trial_streams`` computes the span's draws a block
    of trials at a time, each trial's first ``len(draw_order)``, the most
    its kernel can take.  Draw j of a trial does not depend on how many
    are computed, nor on the block it falls in, so these are the draws
    ``run_trial`` takes too, and any split of a span counts the same.
    """
    source = plan.lattice.source
    counts: Counter = Counter()
    for rng in trial_streams(master_seed, len(plan.draw_order), start, stop):
        counts[_reverse_half(plan, mode, rng)[0][source]] += 1
    return counts


def backpropagate(
    plan: TrialPlan,
    mode: Mode,
    rng: Draws,
    trace: Optional[TraceSink] = None,
) -> tuple[int, dict[int, tuple[int, float]], set[tuple[int, int]], int]:
    """The kernel's result by node id, with the refusal waves replayed: the
    winning detector, the surviving query per node, the voided edges, and
    0.  ``trace`` gets the ``lottery`` and ``refuse`` lines.

    perfbench's backprop counter unpacks the 0 as its count of degenerate
    (all-zero-weight) lotteries, which no plan holds; it goes when that
    adapter does."""
    win_det, win_weight = _reverse_half(plan, mode, rng)
    voided = _refusals(plan, win_det, win_weight, trace)
    winner_at = {u: (win_det[u], win_weight[u]) for u in plan.process_order}
    return win_det[plan.lattice.source], winner_at, voided, 0


@dataclass(frozen=True)
class TrialOutcome:
    winner: int
    surviving_path: tuple[int, ...]
    hidden_ticks: int
    seed: int
    rib_states: dict[tuple[int, int], RibState]


def _confirmation_walk(
    plan: TrialPlan,
    winner: int,
    win_det: list[int],
    rng: Draws,
) -> tuple[int, ...]:
    """Source-to-winner walk through the nodes whose query is the winner's;
    a fork among k equivalent same-detector branches takes branch
    ``int(rng.random() * k)`` in child order, and a node with one such
    branch draws nothing.  No refusal wave voids an edge it can take: every
    node on the walk holds the winner's query and keeps a live inbound
    edge."""
    path = [plan.lattice.source]
    u = plan.lattice.source
    while u != winner:
        # the winner itself, or a void node holding its query
        candidates = [v for v in plan.out_live[u] if win_det[v] == winner]
        if not candidates:
            raise ScoutnetError(f"protocol bug: confirmation walk stuck at node {u}")
        k = len(candidates)
        u = candidates[0] if k == 1 else candidates[int(rng.random() * k)]
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
    over an ensemble; the outcome is identical either way.  The trial's
    stream is the one-trial span of ``trial_streams``, the code
    ``count_winners`` draws through, and holds ``len(draw_order) +
    len(process_order)`` draws, enough for the kernel and the walk's forks.
    """
    if plan is None:
        plan = prepare(lattice, trace)
    seed = derive_trial_seed(master_seed, trial_index)
    draws = len(plan.draw_order) + len(plan.process_order)
    (rng,) = trial_streams(master_seed, draws, trial_index, trial_index + 1)

    win_det, win_weight = _reverse_half(plan, mode, rng)
    if trace:
        _refusals(plan, win_det, win_weight, trace)
    winner = win_det[lattice.source]
    path = _confirmation_walk(plan, winner, win_det, rng)
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
        seed=seed,
        rib_states=rib_states,
    )
