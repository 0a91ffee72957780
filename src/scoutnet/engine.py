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
rib by rib over the lattice's forward DAG, ``Lattice.forward``; one
backward sweep over that DAG builds the live trace graph, each node's
live children, and stores it in a ``TrialPlan``.  Its per-node
query table is seeded with each live detector's own query and with the
surviving query of every draw-free node, one whose live reach holds a
single detector: such a node never holds a lottery.  Draw nodes with
the same live children see the same competing queries in any one trial,
so they share one lottery, named by those children.  The reverse half
is split in two.  The kernel, ``_columns``, runs a block of trials at
once: every trial runs the same lotteries over the same traces, and
only the draws differ.  It starts from the seeded table and visits
``draw_order``; each draw node gets a column holding each trial's
surviving query.  A lottery is built once per trial, at the first node
of its group, as a record of its word cuts and of the query each
competitor carries on in the run's mode, and draws at every node of the
group, in one ``lottery_select`` loop per node over the trials that
draw.  Its record is memoised by the row of its children's queries for
one block; where those children are all nodes of one lottery group, as
in a slit screen's columns, they hold only queries that one record
handed out, and the record is memoised by the row's set for the whole
span.  A lottery whose children are all seeded has one row in every
trial, and its record is built once per span.  A draw node with one
live child holds no lottery: it takes its child's column.  A refusal
wave voids only edges below its lottery, which barrier order has
already passed, so the lotteries alone fix the winner.  The
replay, ``_refusals``, runs the waves from the kernel's result and draws
nothing; only the voided-edge set and the ``--trace`` lines need it.
``count_winners`` runs the kernel alone over a span of trials, block by
block, with one span memo (what an ensemble counts); where the source
is the plan's one draw node, it counts the winners in the draw lanes
instead, with no kernel and no word unpacked.  ``_one_trial`` runs the
kernel over one trial's own block, with no span memo;
``run_trial`` adds the confirmation walk, the full ``TrialOutcome``
and, under a trace, the replay; ``backpropagate`` returns the one-trial
kernel's state keyed by node id with the replay's voided edges.  A
query is one ``(detector, weight)`` pair wherever it is held: in the
plan's seeded table, and in the kernel's columns, memos and records.

Every draw comes from the trial's own splitmix64 stream, through
``rng.trial_blocks``, which yields a block's draws draw-major, as 53-bit
words, or through ``rng.count_first_words``, which counts the trials'
first words at each place among a lottery's word cuts (``_cuts``).  A
lottery takes one draw, word w, and keeps its competitor
``bisect_right(cuts, w)``, in the kernel and the lane counter alike; a
uniform choice among k options takes ``int(u * k)`` of one, where ``u =
w * 2**-53`` is the uniform of word w.  Each trial takes its draws in
order, at its own cursor.  The kernel draws at most once per draw node
and the walk at most once per node it leaves, so a trial needs at most
``len(draw_order)`` draws for its winner and ``len(process_order)`` more
for its path.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from enum import Enum
from itertools import accumulate, compress, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .errors import DarkTrialError, ScoutnetError
from .lattice import Lattice
from .rng import _UNIT, check_seed, count_first_words, trial_blocks

TWO_PI = 2.0 * math.pi
DEFAULT_EPS_INTENSITY = 1e-12

TraceSink = Callable[[str], None]


class Mode(str, Enum):
    """A lottery winner's weight rule.  ``count_winners``, ``run_trial``,
    ``backpropagate`` and the experiments take a member or its value, as
    ``Mode(mode)`` does, and raise ``ValueError`` on any other value;
    ``_lottery``, which builds a lottery's record with the queries its
    winners carry on, takes the member."""

    NAIVE = "naive"
    AGGREGATE = "aggregate"


class RibState(str, Enum):
    VOID = "void"
    CONFIRMED = "confirmed"


class ScoutReport(NamedTuple):
    """The forward half: each detector's amplitude (0j if no scout lands),
    the hidden ticks, and ``fronts``, the number of scouts ever created:
    one at the source plus one per admissible path to each void node."""

    amplitudes: dict[int, complex]
    ticks: int
    fronts: int


def propagate_scouts(
    lattice: Lattice, trace: Optional[TraceSink] = None
) -> ScoutReport:
    """Run the scout wavefront to exhaustion; one rib per hidden tick.

    A scout crosses only the ribs of ``lattice.forward``, the forward DAG.
    Scouts do not interact and are absorbed by charged nodes, so the sum
    of unit phasors over every admissible path factorises rib by rib:
    amp(v) = sum over parents u of amp(u) turned by the rib's phase,
    ``fmod(2*pi*l/lambda, 2*pi)``, and the number of scouts reaching v is
    the sum of its parents' counts.  The source and the void nodes are
    expanded once each, in the DAG's ``(hop distance, id)`` order, so
    every parent is complete before its children; a node's amplitude is
    summed over its parents in id order.  ``trace`` gets one ``scout``
    line per forward rib, with the number of scouts crossing it.
    """
    forward, wavelength = lattice.forward, lattice.wavelength
    n = len(lattice.nodes)
    re, im, paths, hops = [0.0] * n, [0.0] * n, [0] * n, [0] * n
    re[lattice.source] = 1.0
    paths[lattice.source] = 1
    for u, kids in forward.items():
        ru, iu, scouts = re[u], im[u], paths[u]
        tick = hops[u] + 1
        for v, length in kids:
            hops[v] = tick
            turn = math.fmod(TWO_PI * length / wavelength, TWO_PI)
            c, s = math.cos(turn), math.sin(turn)
            re[v] += ru * c - iu * s
            im[v] += ru * s + iu * c
            paths[v] += scouts
            if trace:
                trace(f"tick={tick} scout rib=({u},{v}) scouts={scouts}")

    return ScoutReport(
        amplitudes={det: complex(re[det], im[det]) for det in lattice.detectors},
        ticks=hops[next(reversed(forward))] + 1,
        fronts=sum(paths[u] for u in forward),  # the source's 1 included
    )


# Read once per lottery record: looking the member up on ``Mode`` costs
# about 190 ns on CPython 3.10 and 3.11, a module global about 30 ns.
_AGGREGATE = Mode.AGGREGATE
# field getters: a query's detector; a kernel memo entry's record and query
_DET = _RECORD = itemgetter(0)
_QUERY = itemgetter(1)


# A query: the detector it comes from and its weight.
Query = tuple[int, float]

# A lottery's record: its word cuts (``_cuts``), and per competitor, in
# detector order, the query it carries on when it wins.  No code changes
# a record once it is built.
Lottery = tuple[list[int], list[Query]]


def _lottery(weights_by_det: dict[int, float], mode: Mode) -> Lottery:
    """The record of a lottery among ``weights_by_det``'s competitors in
    ``mode``: competitor i, in detector order, wins with probability
    weights[i] / total, and carries on its own weight in naive mode and
    the total in aggregate mode.

    The running sums are ``acc += w`` in detector order, and the total is
    the last of them: not ``sum(weights)``, which CPython 3.12+ adds with
    compensation, so that no interpreter moves a draw.
    """
    dets = sorted(weights_by_det)
    weights = [*map(weights_by_det.__getitem__, dets)]
    sums = [*accumulate(weights)]
    total = sums[-1]
    carried = repeat(total) if mode is _AGGREGATE else weights
    return _cuts(sums, total), [*zip(dets, carried)]


def _cuts(sums: list[float], total: float) -> list[int]:
    """The word cuts of a lottery with running sums ``sums`` and total
    ``total``: cut i is the least word k in [0, 2**53) with ``k * _UNIT *
    total >= sums[i]`` (2**53 if none), for every running sum but the
    last.

    A lottery draws with a 53-bit word k, whose uniform is ``u = k *
    2**-53``: it takes the first competitor whose running sum exceeds
    ``r = u * total``, or the last if none does.  r never decreases as k
    grows, so running sum i is at most r exactly when k reaches cut i,
    and that competitor is ``bisect_right(cuts, k)``, the one draw rule of
    the kernel (``lottery_select``) and of the lane counter
    (``rng.count_first_words``).  ``_lottery``'s total is its last
    running sum, which r stays below since ``u < 1``; a larger total, as
    a compensated sum gives, lets r reach the last sum, and the cuts
    still take the last competitor, as no cut lies past it.

    Each cut starts from the estimate ``ceil(s / total * 2**53)`` and
    steps down while the word below it still reaches s, then up while it
    falls short.  Where ``_UNIT * total`` is a normal float, every r of a
    word past 0 is rounded to within a relative 2**-53, so the estimate is
    a step or two from the cut; below that, r is rounded to the subnormal
    grid, the estimate can be far off, and the cut is found by bisecting
    the words, 53 steps."""
    if _UNIT * total < sys.float_info.min:
        words = range(1 << 53)
        return [
            bisect_left(words, s, key=lambda k: k * _UNIT * total) for s in sums[:-1]
        ]
    cuts = []
    for s in sums[:-1]:
        k = math.ceil(s / total * 2**53)
        while (k - 1) * _UNIT * total >= s:
            k -= 1
        while k * _UNIT * total < s:
            k += 1
        cuts.append(k)
    return cuts


def lottery_select(
    group: Group, words: Sequence[int], pos: list[int], trials: int
) -> list[Query]:
    """A lottery group's draws at one of its nodes, over a block of
    ``trials`` trials: the node's column of surviving queries.

    Each drawing trial t, in order, reads the word at its cursor,
    ``words[pos[t]]``, takes the query of competitor ``bisect_right(cuts,
    word)`` of its record, and moves its cursor on by ``trials``, to its
    next draw.  The column is a copy of the group's with those queries in
    the drawing trials' places; every other trial keeps the query its
    lottery merged to, and its cursor.

    A record has at least two competitors and a positive total: a plan's
    lotteries are merged from two or more live detectors' queries, and
    each weight is a live intensity, above ``DEFAULT_EPS_INTENSITY``, or
    is carried on from such intensities.
    """
    drawing, records, column = group
    column = column.copy()
    for t, (cuts, queries) in zip(drawing, records):
        p = pos[t]
        column[t] = queries[bisect_right(cuts, words[p])]
        pos[t] = p + trials
    return column


class TrialPlan(NamedTuple):
    """Everything about a trial that does not depend on the random stream.

    ``out_live`` is the live trace graph: each node with live children
    maps to them, in id order.  Its keys are ``process_order``, the same
    nodes in reverse ``(hop distance, id)`` order, so every live child
    comes before its parents.

    ``base`` seeds the per-node query table, indexed by node id: a live
    detector holds its own query, ``(id, intensity)``.  A node whose live
    reach holds a single detector is draw-free: it never holds a lottery,
    and its surviving query is a fixed function of the forward half, so it
    is seeded too.  Every other node holds ``(-1, 0.0)``.  ``draw_order`` is
    the rest of ``process_order``, the nodes whose query depends on a draw.
    Every live child holds a query by the time its parents read it, and
    keeps it, so draw nodes with the same live children see the same
    competitors in any one trial: they share one lottery, named by those
    children, which the kernel merges once per trial.
    """

    lattice: Lattice
    scout_report: ScoutReport
    intensities: dict[int, float]
    process_order: tuple[int, ...]
    out_live: dict[int, tuple[int, ...]]
    base: tuple[Query, ...]
    draw_order: tuple[int, ...]

    # a view for perfbench's plan counters; the engine does not read it
    @property
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

    # One backward sweep over the forward DAG reaches every node after its
    # children.  A node's live children are its forward children that
    # are live detectors or have live children of their own.  A seeded
    # node's live reach is its one detector, so a node whose live children
    # are all seeded and merge to one detector is draw-free and seeded too;
    # every other node with live children draws.
    n = len(lattice.nodes)
    base: list[Query] = [(-1, 0.0)] * n
    for d in live:
        base[d] = d, intensities[d]
    live_children: dict[int, tuple[int, ...]] = {}
    draw_order: list[int] = []
    forward = lattice.forward
    for u in reversed(forward):
        kids = tuple(v for v, _ in forward[u] if v in live or v in live_children)
        if not kids:
            continue
        live_children[u] = kids
        seeded = all(base[v][0] >= 0 for v in kids)
        weights = _merge(map(base.__getitem__, kids)) if seeded else {}
        if len(weights) == 1:
            (base[u],) = weights.items()
            continue
        draw_order.append(u)

    return TrialPlan(
        lattice=lattice,
        scout_report=report,
        intensities=intensities,
        process_order=tuple(live_children),
        out_live=live_children,
        base=tuple(base),
        draw_order=tuple(draw_order),
    )


def _merge(queries: Iterable[Query]) -> dict[int, float]:
    """The competitors at one node: detector -> weight of its query, from
    the ``(detector, weight)`` queries its live children deliver.

    Queries from one detector merge (no self-competition) and keep the
    larger weight.
    """
    weights: dict[int, float] = {}
    for det, w in queries:
        if det not in weights or w > weights[det]:
            weights[det] = w
    return weights


# A lottery in one block: the trials that draw, in order, the record each
# of them draws from, and a column of the query that each other trial's
# lottery merges to.
Group = tuple[list[int], list[Lottery], list[Query]]
# The kernel's memo: a row of children's queries, or the set of its
# distinct queries -> its record in the run's mode, or its one query.  A
# memo serves one mode: ``_columns`` runs one, and so does each span.
Memo = dict[
    Union[tuple[Query, ...], frozenset[Query]],
    tuple[Optional[Lottery], Optional[Query]],
]
# The kernel's span memo: the lotteries keyed by the set of their row's
# queries, and the entries kept from block to block, theirs and those of
# the lotteries whose children are all seeded, keyed by their one row.
SpanMemo = tuple[frozenset[tuple[int, ...]], Memo]


def _span_memo(plan: TrialPlan) -> SpanMemo:
    """An empty span memo for ``plan``, its set-keyed lotteries decided:
    those whose live children all have the same live children, a tuple
    that is not empty."""
    out_live = plan.out_live
    get = out_live.get
    by_set = frozenset(
        kids
        for kids in {*map(out_live.__getitem__, plan.draw_order)}
        # the two ends first: a lottery that fails mostly fails there
        if kids[0] in out_live
        and get(kids[0]) == get(kids[-1])
        and len({*map(get, kids)}) == 1
    )
    return by_set, {}


def _group(
    kids: tuple[int, ...],
    queries: dict[int, list[Query]],
    plan: TrialPlan,
    mode: Mode,
    trials: int,
    memo: Memo,
    span: Optional[SpanMemo],
) -> Group:
    """A lottery in one block, merged once per distinct row of its
    children's queries: row t holds them in trial t, and a merge reads
    nothing else, not even their order or repeats, so lotteries with
    equal rows share a memo entry.  An entry holds the row's record in
    ``mode``, its word cuts and the queries its winners carry on, built
    once with the entry; or the one query of a row that merges to one
    competitor.  Rows are looked up in ``memo``, the block's, but where
    there is a span memo: a lottery of its set-keyed kind turns each row
    into the set of its queries first, and looks that up in the span
    memo; and a lottery whose children are all seeded, which has one row
    in every trial, looks that row up there once, and its entry serves
    every trial."""
    seeded = span is not None and not any(map(queries.__contains__, kids))
    if seeded:
        rows, memo = [tuple(map(plan.base.__getitem__, kids))], span[1]
    else:
        rows = zip(*[queries.get(v) or repeat(plan.base[v], trials) for v in kids])
        if span is not None and kids in span[0]:
            rows, memo = map(frozenset, rows), span[1]
    entries = []
    for row in rows:
        entry = memo.get(row)
        if entry is None:
            merged = _merge(row)
            if len(merged) == 1:
                entry = None, next(iter(merged.items()))
            else:
                entry = _lottery(merged, mode), None
            memo[row] = entry
        entries.append(entry)
    if seeded:
        entries *= trials
    records = [*filter(None, map(_RECORD, entries))]
    drawing = [*compress(range(len(entries)), map(_RECORD, entries))]
    return drawing, records, [*map(_QUERY, entries)]


def _columns(
    plan: TrialPlan,
    mode: Mode,
    words: Sequence[int],
    trials: int,
    span: Optional[SpanMemo] = None,
) -> tuple[dict[int, list[Query]], list[int]]:
    """The reverse-half kernel: every lottery in barrier order, for a
    block of ``trials`` trials (``rng.trial_blocks``).

    Returns, per draw node, the column of queries that survived there, one
    per trial, and each trial's cursor: the index in ``words`` of its next
    draw.  Trial t's draws are ``words[t]``, then every ``trials``-th; its
    cursor moves only when it draws, so trials drift apart.

    Only ``draw_order`` is visited: draw-free nodes keep their seeded
    queries.  A draw node with one live child, which draws too, never
    holds a lottery: it takes that child's column as it is.  A lottery is
    built per trial at the first node of its group (``_group``), in
    ``mode``, and serves the group's other nodes, whose children keep
    their queries; a trial whose lottery merges to one competitor takes
    that query at each of them and draws nothing.  Each node of the group
    draws its block in one ``lottery_select`` call, one loop over its
    drawing trials; a node where no trial draws takes the group's column
    as it is.  Only ``span`` may outlive the block.  Without one, every
    row is looked up in the block's memo: within one block a set key only
    saves the merges of unequal rows of one set, and ``_one_trial``'s
    block holds one trial, one row per lottery.

    Refusal waves are left out.  A wave started at node u voids only edges
    whose tail is u or a descendant of u, whose lotteries barrier order has
    already run, so no later lottery reads a voided edge.
    """
    queries: dict[int, list[Query]] = {}
    pos = [*range(trials)]
    held: dict[tuple[int, ...], Group] = {}
    memo: Memo = {}
    for u in plan.draw_order:
        kids = plan.out_live[u]
        if len(kids) == 1:
            queries[u] = queries[kids[0]]
            continue
        group = held.get(kids)
        if group is None:
            group = held[kids] = _group(kids, queries, plan, mode, trials, memo, span)
        drawing, _, column = group
        queries[u] = lottery_select(group, words, pos, trials) if drawing else column

    source = plan.lattice.source
    if source not in queries and plan.base[source][0] < 0:
        raise ScoutnetError("protocol bug: no query survived to the source")
    return queries, pos


def _one_trial(
    plan: TrialPlan, mode: Mode, master_seed: int, trial_index: int
) -> tuple[list[Query], Iterator[int]]:
    """The kernel over trial ``trial_index``'s one-trial block of
    ``trial_blocks``: per node, the surviving query (``(-1, 0.0)`` if
    none), the seeded table overlaid with each column's one entry; and the
    trial's draws after its cursor, for the confirmation walk.  The block
    holds ``len(draw_order) + len(process_order)`` draws, enough for the
    kernel and the walk's forks."""
    draws = len(plan.draw_order) + len(plan.process_order)
    ((words, _),) = trial_blocks(master_seed, draws, trial_index, trial_index + 1)
    queries, (cursor,) = _columns(plan, Mode(mode), words, 1)
    won = list(plan.base)
    for u, (query,) in queries.items():
        won[u] = query
    return won, iter(words[cursor:])


def _refusals(
    plan: TrialPlan, won: list[Query], trace: Optional[TraceSink] = None
) -> set[tuple[int, int]]:
    """Replay the kernel's lotteries and return the voided edges, as
    ``(u, v)`` pairs.

    At every lottery the losing queries' edges are voided, and the refusal
    wave walks on from every node whose live inbound edges are all dead.
    Losers are taken in detector order and the wave pops edges from a
    stack, children in id order, so the ``lottery``/``refuse`` trace lines
    come out in protocol order.  Draw-free nodes hold no lottery, so only
    ``draw_order`` is visited.  Takes no draw from the random stream.
    Each node's live in-degree is counted here, not kept in the plan:
    only ``backpropagate`` and a traced ``run_trial`` replay the waves.
    """
    out_live = plan.out_live
    in_degree = Counter(v for kids in out_live.values() for v in kids)
    dead_in: Counter = Counter()
    void: set[tuple[int, int]] = set()
    for u in plan.draw_order:
        kids = out_live[u]
        weights = _merge(map(won.__getitem__, kids))
        if len(weights) < 2:
            continue
        winner = won[u][0]
        competitors = sorted(weights.items())
        if trace:
            trace(f"lottery node={u} winner={winner} weights={competitors}")
        for loser, _ in competitors:
            if loser == winner:
                continue
            stack = [(u, v) for v in kids if won[v][0] == loser]
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
    cannot change it.  ``trial_blocks`` computes the span's draws a block
    of trials at a time, each trial's first ``len(draw_order)``, the most
    its kernel can take; the blocks cover the span exactly.  The kernel
    runs once per block, and the source's column holds the block's
    winners.  Draw j of a trial does not depend on how many are computed,
    nor on the block it falls in, and no trial's winner on the other
    trials of its block, so these are the draws ``run_trial`` takes too,
    and any split of a span counts the same.

    A plan without draw nodes holds its one live detector's query at the
    source in every trial, so its span is counted without a draw.  Any
    other plan draws at the source: a node above a draw node sees two or
    more detectors.  Where the source is the only draw node, its children
    are all seeded (a child that drew would be a draw node too), so its
    lottery is the same in every trial: each trial's winner is competitor
    ``bisect_right(cuts, w)`` of its record, w the trial's first word,
    the draw rule of the kernel's ``lottery_select``, and
    ``rng.count_first_words`` counts those indices in the draw lanes,
    without the kernel.

    The blocks share one span memo, whose entries depend on their keys
    alone: the set-keyed lotteries' and the one row of each lottery whose
    children are all seeded, so that lottery's record is built once per
    call, and again only after the memo is emptied.  It is emptied before
    a block once it holds more than ``len(draw_order)`` entries per trial
    of the block, which no slit
    screen reaches: over 20k aggregate trials, slit 7x9's peaked at 225
    entries of 4,992 (128-trial blocks) and 20x13's, slits at rows 2 and
    10, at 1,474 of 7,168 (32-trial blocks).
    """
    mode = Mode(mode)
    source = plan.lattice.source
    counts: Counter = Counter()
    if not plan.draw_order:
        check_seed(master_seed)
        if stop > start:
            counts[plan.base[source][0]] = stop - start
        return counts
    if plan.draw_order == (source,):
        merged = _merge(map(plan.base.__getitem__, plan.out_live[source]))
        cuts, queries = _lottery(merged, mode)
        won = count_first_words(master_seed, cuts, start, stop)
        counts.update({det: n for (det, _), n in zip(queries, won) if n})
        return counts
    _, memo = span = _span_memo(plan)
    for words, trials in trial_blocks(master_seed, len(plan.draw_order), start, stop):
        if len(memo) > len(plan.draw_order) * trials:
            memo.clear()
        counts.update(map(_DET, _columns(plan, mode, words, trials, span)[0][source]))
    return counts


def backpropagate(
    plan: TrialPlan,
    mode: Mode,
    master_seed: int,
    trial_index: int,
    trace: Optional[TraceSink] = None,
) -> tuple[int, dict[int, tuple[int, float]], set[tuple[int, int]], int]:
    """The kernel's result by node id, with the refusal waves replayed: the
    winning detector, the surviving query per node, the voided edges, and
    0.  ``trace`` gets the ``lottery`` and ``refuse`` lines.  The kernel
    runs over the draws ``run_trial`` takes for the same trial.

    perfbench's backprop counter unpacks the 0 as its count of degenerate
    (all-zero-weight) lotteries, which no plan holds; it goes when that
    adapter does."""
    won, _ = _one_trial(plan, mode, master_seed, trial_index)
    voided = _refusals(plan, won, trace)
    winner_at = {u: won[u] for u in plan.process_order}
    return won[plan.lattice.source][0], winner_at, voided, 0


class TrialOutcome(NamedTuple):
    winner: int
    surviving_path: tuple[int, ...]
    hidden_ticks: int
    rib_states: dict[tuple[int, int], RibState]


def _confirmation_walk(
    plan: TrialPlan,
    winner: int,
    won: list[Query],
    words: Iterator[int],
) -> tuple[int, ...]:
    """Source-to-winner walk through the nodes whose query is the winner's;
    a fork among k equivalent same-detector branches takes branch
    ``int(u * k)`` in child order, u the uniform of the trial's next word,
    and a node with one such branch draws nothing.  No refusal wave voids
    an edge it can take: every node on the walk holds the winner's query
    and keeps a live inbound edge."""
    path = [plan.lattice.source]
    u = plan.lattice.source
    while u != winner:
        # the winner itself, or a void node holding its query
        candidates = [v for v in plan.out_live[u] if won[v][0] == winner]
        if not candidates:
            raise ScoutnetError(f"protocol bug: confirmation walk stuck at node {u}")
        k = len(candidates)
        u = candidates[0] if k == 1 else candidates[int(next(words) * _UNIT * k)]
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
    draws are its one-trial block of ``trial_blocks``, the code
    ``count_winners`` draws through (``_one_trial``); the walk continues
    from the trial's cursor.
    """
    if plan is None:
        plan = prepare(lattice, trace)
    won, rest = _one_trial(plan, mode, master_seed, trial_index)
    if trace:
        _refusals(plan, won, trace)
    winner = won[lattice.source][0]
    path = _confirmation_walk(plan, winner, won, rest)
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
        rib_states=rib_states,
    )
