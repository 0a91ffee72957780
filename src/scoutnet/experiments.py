"""Monte-Carlo ensembles, comparison statistics, and interference profiles.

The engine's empirical selection frequencies are compared against the
oracle's Born distribution with total-variation distance and a
chi-square goodness-of-fit statistic; both add their terms left to right
in a plain loop, so every CPython writes the same bytes.  For small
instances the exact selection distribution of the protocol is also
computed by brute-force enumeration of every lottery outcome sequence,
over a live graph cut from the lattice's forward DAG, not the engine's
plan.  It is the reference for the aggregate-mode tree exactness claim
and for quantifying the naive-mode deviation.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from heapq import heapify, heappop, heappush
from typing import NamedTuple, Optional

from . import oracle
from .engine import DEFAULT_EPS_INTENSITY, Mode, TrialPlan, count_winners, prepare
from .engine import run_trial  # noqa: F401  (perfbench's traced run wraps this name)
from .errors import DarkTrialError
from .lattice import Lattice
from .oracle import BornDistribution


def tv_distance(p: dict[int, float], q: dict[int, float]) -> float:
    """Total variation distance between two distributions on the same support."""
    if set(p) != set(q):
        raise ValueError(f"support mismatch: {sorted(p)} vs {sorted(q)}")
    for name, dist in (("p", p), ("q", q)):
        total = sum(dist.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{name} sums to {total}, not 1")
    distance = 0.0
    for k in p:
        distance += abs(p[k] - q[k])
    return 0.5 * distance


class ChiSquareResult(NamedTuple):
    statistic: float
    dof: int
    underpowered: bool


def chi_square(
    counts: dict[int, int], reference: dict[int, float], trials: int
) -> ChiSquareResult:
    """Pearson chi-square of observed counts against reference probabilities,
    over pooled cells.

    The two cells that expect the fewest draws are merged, and merged
    again, until every cell expects at least 5 draws or one cell is left,
    so that the chi-square quantile applies; a zero-probability cell is
    merged like any other.  ``dof`` is the pooled cell count less one.  The
    test is underpowered when pooling leaves one cell of two or more
    positive ones: the run has too few trials to test anything.
    """
    positive = sum(p > 0.0 for p in reference.values())
    if not positive:
        raise ValueError("reference distribution has no positive cells")
    # a heap, not a re-sort per merge, which takes minutes on 100k cells
    cells = [(p * trials, counts.get(k, 0)) for k, p in reference.items()]
    heapify(cells)
    while len(cells) > 1 and cells[0][0] < 5.0:
        e1, o1 = heappop(cells)
        e2, o2 = heappop(cells)
        heappush(cells, (e1 + e2, o1 + o2))
    statistic = 0.0
    for exp, obs in sorted(cells):
        statistic += (obs - exp) ** 2 / exp
    return ChiSquareResult(statistic, len(cells) - 1, len(cells) == 1 < positive)


def _gamma_tails(a: float, x: float) -> tuple[float, float]:
    """Regularized incomplete gamma ``(P(a, x), Q(a, x))``, with ``P + Q = 1``.

    Below ``x = a + 1`` the power series for P converges fast; above it the
    continued fraction for Q does (modified Lentz).  Each is computed
    directly and the other tail taken as its complement, so the small tail
    keeps its relative precision.
    """
    if x <= 0.0:
        return 0.0, 1.0
    log_front = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > total * 1e-17:
            n += 1.0
            term *= x / n
            total += term
        lower = total * math.exp(log_front)
        return lower, 1.0 - lower
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    fraction = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1.0 / d
        delta = d * c
        fraction *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    upper = fraction * math.exp(log_front)
    return 1.0 - upper, upper


def chi_square_critical(dof: int, percentile: float = 0.99) -> float:
    """The ``percentile`` quantile of the chi-square distribution with
    ``dof`` degrees of freedom: the x with P(chi2_dof <= x) = percentile.

    Bisection on the regularized incomplete gamma, P(chi2_dof <= x) =
    P(dof/2, x/2), to about 1e-12 relative.  The tail nearer the
    percentile is compared, so quantiles far out in either tail keep their
    precision.
    """
    if dof < 1:
        raise ValueError(f"chi-square quantile needs dof >= 1, got {dof}")
    if not 0.0 < percentile < 1.0:
        raise ValueError(f"chi-square percentile must be in (0, 1), got {percentile}")
    a = dof / 2.0
    upper_tail = percentile > 0.5
    target = 1.0 - percentile if upper_tail else percentile

    def below(x: float) -> bool:
        lower, upper = _gamma_tails(a, x / 2.0)
        return upper > target if upper_tail else lower < target

    lo, hi = 0.0, dof + 10.0
    while below(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class EnsembleResult(NamedTuple):
    lattice_id: str
    mode: Mode
    trials: int
    master_seed: int
    counts: dict[int, int]
    empirical: dict[int, float]
    reference: BornDistribution
    tv_distance: float
    chi_square: float
    dof: int
    underpowered: bool


def run_ensemble(
    lattice: Lattice,
    mode: Mode,
    trials: int,
    master_seed: int,
    jobs: int = 1,
    lattice_id: str = "lattice",
    plan: Optional[TrialPlan] = None,
) -> EnsembleResult:
    """``trials`` independent trials with indices 0..trials-1.

    Trials are seeded individually, so the aggregate is identical for any
    job count or execution order.  The run takes ``min(jobs, trials,
    os.cpu_count())`` workers: one counts every trial inline, and more
    start a pool, which counts one span of consecutive trials per worker
    and so pickles the plan once per worker.  ``plan``, if given, is the
    lattice's prebuilt forward half; otherwise it is built here.
    """
    mode = Mode(mode)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if plan is None:
        plan = prepare(lattice)
    workers = min(jobs, trials, os.cpu_count() or 1)
    if workers <= 1:
        counts = count_winners(plan, mode, master_seed, 0, trials)
    else:
        # imported here, so that a run in one worker never loads the pool
        from concurrent.futures import ProcessPoolExecutor

        bounds = [trials * i // workers for i in range(workers + 1)]
        counts = Counter()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(count_winners, plan, mode, master_seed, start, stop)
                for start, stop in zip(bounds, bounds[1:])
            ]
            for future in futures:
                counts += future.result()

    reference = oracle.born_distribution(oracle.lattice_amplitudes(lattice))
    empirical = {det: counts.get(det, 0) / trials for det in lattice.detectors}
    tv = tv_distance(empirical, reference.entries)
    chi = chi_square(dict(counts), reference.entries, trials)
    return EnsembleResult(
        lattice_id=lattice_id,
        mode=mode,
        trials=trials,
        master_seed=master_seed,
        counts={det: counts.get(det, 0) for det in lattice.detectors},
        empirical=empirical,
        reference=reference,
        tv_distance=tv,
        chi_square=chi.statistic,
        dof=chi.dof,
        underpowered=chi.underpowered,
    )


def gate(
    result: EnsembleResult,
    chi_percentile: float,
    tv_threshold: Optional[float],
    default_tv: float,
) -> tuple[Optional[str], Optional[str]]:
    """The run's verdict against the Born law, as two stderr lines: the
    underpowered warning or None, and the threshold failure or None.

    The run fails when its TV distance exceeds ``tv_threshold``, or else
    when its pooled chi-square exceeds the ``chi_percentile`` quantile at
    the pooled ``dof``; an underpowered run (``dof`` 0) has no chi-square
    gate.  A ``tv_threshold`` of None is ``max(default_tv, 1/2 sqrt(c /
    trials))``, with ``c`` that quantile at the unpooled degrees of
    freedom, one less than the positive Born cells.
    """
    if tv_threshold is None:
        # TV = 1/2 sum|p^ - p| <= 1/2 sqrt(chi2 / n) by Cauchy-Schwarz, with
        # chi2 taken over every detector, unpooled: the bound uses that
        # statistic's quantile, so a run is not failed on TV by sampling
        # noise alone, however few its trials.
        tv_threshold = default_tv
        cells = sum(p > 0.0 for p in result.reference.entries.values())
        if cells > 1:
            unpooled = chi_square_critical(cells - 1, chi_percentile)
            tv_threshold = max(default_tv, 0.5 * math.sqrt(unpooled / result.trials))
    warning = failure = None
    if result.underpowered:
        warning = (
            f"warning: underpowered run: pooling the detectors that expect "
            f"fewer than 5 of {result.trials} trials leaves one cell, so no "
            f"chi-square gate runs"
        )
    if result.tv_distance > tv_threshold:
        failure = f"threshold failure: tv {result.tv_distance:.5f} > {tv_threshold:.5g}"
    elif result.dof > 0:
        critical = chi_square_critical(result.dof, chi_percentile)
        if result.chi_square > critical:
            failure = (
                f"threshold failure: chi2 {result.chi_square:.3f} > "
                f"critical {critical:.3f} (dof {result.dof})"
            )
    return warning, failure


# ---------------------------------------------------------------------------
# Exact selection distribution by brute force over lottery outcomes
# ---------------------------------------------------------------------------


def _live_graph(lattice: Lattice) -> tuple[dict[int, float], dict[int, list[int]]]:
    """The live detectors' intensities, and the live trace graph.

    A detector is live when its intensity, from ``oracle.lattice_amplitudes``,
    is above ``DEFAULT_EPS_INTENSITY``.  One backward pass over the
    lattice's forward DAG, ``Lattice.forward``, keeps a rib when its head
    is a live detector or has a live rib out: when it lies on an
    admissible path to a live detector.  The graph maps each node with a
    live rib out to its live children, in id order; its keys are in
    reverse ``(hop distance, id)`` order, so every node comes after all of
    its live children.
    """
    intensities = {
        det: abs(amp) ** 2 for det, amp in oracle.lattice_amplitudes(lattice).items()
    }
    live = {det: i for det, i in intensities.items() if i > DEFAULT_EPS_INTENSITY}
    if not live:
        raise DarkTrialError("dark configuration: nothing to select")
    forward = lattice.forward
    children: dict[int, list[int]] = {}
    for u in reversed(forward):
        kids = [v for v, _ in forward[u] if v in children or v in live]
        if kids:
            children[u] = kids
    return live, children


def exact_selection_distribution(lattice: Lattice, mode: Mode) -> dict[int, float]:
    """Exact P(detector) by enumerating every lottery outcome sequence.

    Built on the oracle's side, ``_live_graph``, not the engine's plan,
    with its own copy of the merge/lottery semantics, so it can
    cross-validate the engine's Monte-Carlo frequencies.  The live graph's
    nodes run in its order, each merging its live children's queries and
    drawing among them.  Refusal waves are left out: a wave voids only
    edges below the lottery that starts it, whose lotteries have already
    run, so it cannot change the winner.

    The enumeration branches on every outcome of every lottery and has no
    budget of its own, only the oracle's: it is meant for small lattices.
    """
    aggregate = Mode(mode) is Mode.AGGREGATE
    live, children = _live_graph(lattice)
    order = [*children.items()]
    result: dict[int, float] = {det: 0.0 for det in lattice.detectors}

    def descend(
        idx: int,
        winner_at: dict[int, tuple[int, float]],
        prob: float,
    ) -> None:
        if idx == len(order):
            result[winner_at[lattice.source][0]] += prob
            return
        u, kids = order[idx]
        weights: dict[int, float] = {}
        for v in kids:
            det, w = winner_at[v] if v in children else (v, live[v])
            weights[det] = max(weights[det], w) if det in weights else w
        if len(weights) == 1:
            descend(idx + 1, {**winner_at, u: next(iter(weights.items()))}, prob)
            return
        total = 0.0
        for w in weights.values():
            total += w
        for det in sorted(weights):
            share = weights[det] / total
            new_weight = total if aggregate else weights[det]
            descend(idx + 1, {**winner_at, u: (det, new_weight)}, prob * share)

    descend(0, {}, 1.0)
    return result


# ---------------------------------------------------------------------------
# Interference profiles
# ---------------------------------------------------------------------------


class InterferenceProfile(NamedTuple):
    detector_ids: tuple[int, ...]
    positions: tuple[float, ...]
    oracle_intensity: tuple[float, ...]
    empirical_frequency: tuple[float, ...]
    ensemble: EnsembleResult


def interference_profile(
    lattice: Lattice,
    mode: Mode,
    trials: int,
    master_seed: int,
    jobs: int = 1,
    plan: Optional[TrialPlan] = None,
) -> InterferenceProfile:
    """Oracle intensities and empirical frequencies across the screen,
    ordered by detector position."""
    ordered = sorted(
        lattice.detectors, key=lambda det: (lattice.nodes[det].position[1], det)
    )
    ensemble = run_ensemble(
        lattice,
        mode,
        trials,
        master_seed,
        jobs=jobs,
        lattice_id="slit-screen",
        plan=plan,
    )
    return InterferenceProfile(
        detector_ids=tuple(ordered),
        positions=tuple(lattice.nodes[det].position[1] for det in ordered),
        oracle_intensity=tuple(ensemble.reference.intensities[det] for det in ordered),
        empirical_frequency=tuple(ensemble.empirical[det] for det in ordered),
        ensemble=ensemble,
    )


# ---------------------------------------------------------------------------
# Artifact serialization (byte-stable for identical inputs)
# ---------------------------------------------------------------------------


def ensemble_csv(result: EnsembleResult) -> str:
    lines = ["detector_id,count,empirical,born,abs_error"]
    for det in sorted(result.counts):
        born = result.reference.entries[det]
        empirical = result.empirical[det]
        lines.append(
            f"{det},{result.counts[det]},{empirical!r},{born!r},"
            f"{abs(empirical - born)!r}"
        )
    return "\n".join(lines) + "\n"


def profile_csv(profile: InterferenceProfile) -> str:
    lines = ["screen_index,position,oracle_intensity,empirical_frequency"]
    for i, det in enumerate(profile.detector_ids):
        lines.append(
            f"{i},{profile.positions[i]!r},{profile.oracle_intensity[i]!r},"
            f"{profile.empirical_frequency[i]!r}"
        )
    return "\n".join(lines) + "\n"


def summary_json(result: EnsembleResult) -> str:
    import json  # imported on use: only a run that writes artifacts needs it

    payload = {
        # 1 (no field): a --trace scout line per path, not per rib; 2:
        # independent lotteries in heap order, not reverse (hop distance, id);
        # 3: each trial draws from a Mersenne Twister seeded with its trial
        # seed, not from the splitmix64 stream that starts there; 4: the
        # oracle adds one unit phasor per path, not one per class of paths
        # (the born and oracle_intensity columns' last bits), and chi_square
        # and dof keep cells that expect fewer than 5 draws unpooled
        "format": 5,
        "lattice_id": result.lattice_id,
        "mode": result.mode.value,
        "trials": result.trials,
        "seed": result.master_seed,
        "tv_distance": result.tv_distance,
        "chi_square": result.chi_square,
        "dof": result.dof,
        "underpowered": result.underpowered,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
