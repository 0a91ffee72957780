"""Monte-Carlo ensembles, comparison statistics, and interference profiles.

The engine's empirical selection frequencies are compared against the
oracle's Born distribution with total-variation distance and a
chi-square goodness-of-fit statistic.  For small instances the exact
selection distribution of the protocol is also computed by brute-force
enumeration of every lottery outcome sequence, which is the reference
for the aggregate-mode tree exactness claim and for quantifying the
naive-mode deviation.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from scipy.stats import chi2 as _chi2_dist

from . import oracle
from .engine import DEFAULT_EPS_INTENSITY, Mode, TrialPlan, prepare, trial_winner
from .engine import run_trial  # noqa: F401  (perfbench's traced run wraps this name)
from .errors import DarkTrialError, DeadlockError, ScoutnetError
from .lattice import Lattice, NodeKind
from .oracle import BornDistribution


def tv_distance(p: dict[int, float], q: dict[int, float]) -> float:
    """Total variation distance between two distributions on the same support."""
    if set(p) != set(q):
        raise ValueError(f"support mismatch: {sorted(p)} vs {sorted(q)}")
    for name, dist in (("p", p), ("q", q)):
        total = sum(dist.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{name} sums to {total}, not 1")
    return 0.5 * sum(abs(p[k] - q[k]) for k in p)


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    underpowered: bool


def chi_square(
    counts: dict[int, int], reference: dict[int, float], trials: int
) -> ChiSquareResult:
    """Pearson chi-square of observed counts against reference probabilities.

    Zero-probability cells are excluded from both the sum and the degrees
    of freedom; any expected count below 5 flags the test as underpowered.
    """
    cells = [k for k, p in sorted(reference.items()) if p > 0.0]
    if not cells:
        raise ValueError("reference distribution has no positive cells")
    statistic = 0.0
    underpowered = False
    for k in cells:
        expected = reference[k] * trials
        observed = counts.get(k, 0)
        if expected < 5.0:
            underpowered = True
        statistic += (observed - expected) ** 2 / expected
    return ChiSquareResult(statistic, len(cells) - 1, underpowered)


def chi_square_critical(dof: int, percentile: float = 0.99) -> float:
    return float(_chi2_dist.ppf(percentile, dof))


@dataclass(frozen=True)
class EnsembleResult:
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


def _count_chunk(
    plan: TrialPlan,
    mode: Mode,
    master_seed: int,
    start: int,
    stop: int,
) -> Counter:
    counts: Counter = Counter()
    for index in range(start, stop):
        counts[trial_winner(plan, mode, master_seed, index)] += 1
    return counts


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
    job count or execution order.  ``plan``, if given, is the lattice's
    prebuilt forward half; otherwise it is built here.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if plan is None:
        plan = prepare(lattice)
    counts: Counter = Counter()
    if jobs <= 1:
        counts = _count_chunk(plan, mode, master_seed, 0, trials)
    else:
        chunk = (trials + jobs - 1) // jobs
        spans = [
            (start, min(start + chunk, trials)) for start in range(0, trials, chunk)
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_count_chunk, plan, mode, master_seed, start, stop)
                for start, stop in spans
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


# ---------------------------------------------------------------------------
# Exact selection distribution by brute force over lottery outcomes
# ---------------------------------------------------------------------------


def exact_selection_distribution(lattice: Lattice, mode: Mode) -> dict[int, float]:
    """Exact P(detector) by enumerating every lottery outcome sequence.

    Built on the oracle's path enumeration (not the engine's traversal),
    with its own copy of the merge/lottery/refusal semantics, so it can
    cross-validate the engine's Monte-Carlo frequencies.
    """
    amplitudes = oracle.lattice_amplitudes(lattice)
    intensities = {det: abs(a) ** 2 for det, a in amplitudes.items()}
    live = [
        det for det in lattice.detectors if intensities[det] > DEFAULT_EPS_INTENSITY
    ]
    if not live:
        raise DarkTrialError("dark configuration: nothing to select")

    edges: set[tuple[int, int]] = set()
    for det in live:
        for record in oracle.enumerate_paths(lattice, det):
            edges.update(zip(record.nodes, record.nodes[1:]))

    out_live: dict[int, list[int]] = defaultdict(list)
    in_live: dict[int, list[int]] = defaultdict(list)
    indeg: dict[int, int] = defaultdict(int)
    nodes: set[int] = set()
    for u, v in edges:
        out_live[u].append(v)
        in_live[v].append(u)
        indeg[v] += 1
        nodes.add(u)
        nodes.add(v)
    for u in out_live:
        out_live[u].sort()

    ready = [n for n in nodes if indeg[n] == 0]
    heapq.heapify(ready)
    topo: list[int] = []
    while ready:
        u = heapq.heappop(ready)
        topo.append(u)
        for v in out_live.get(u, ()):
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    if len(topo) != len(nodes):
        raise DeadlockError("cyclic reverse routes; exact enumeration undefined")
    order = [n for n in reversed(topo) if out_live.get(n)]

    is_detector = {
        n: lattice.nodes[n].kind is NodeKind.DETECTOR for n in nodes
    }
    result: dict[int, float] = {det: 0.0 for det in lattice.detectors}

    def cascade(dead: tuple[int, int], void: set[tuple[int, int]]) -> None:
        stack = [dead]
        while stack:
            u, v = stack.pop()
            if (u, v) in void:
                continue
            void.add((u, v))
            if all((t, v) in void for t in in_live.get(v, ())):
                for w in out_live.get(v, ()):
                    stack.append((v, w))

    def descend(
        idx: int,
        winner_at: dict[int, tuple[int, float]],
        void: set[tuple[int, int]],
        prob: float,
    ) -> None:
        if idx == len(order):
            entry = winner_at.get(lattice.source)
            if entry is None:
                raise ScoutnetError("protocol bug: source received no query")
            result[entry[0]] += prob
            return
        u = order[idx]
        weights: dict[int, float] = {}
        carriers: dict[int, list[tuple[int, int]]] = {}
        for v in out_live[u]:
            if (u, v) in void:
                continue
            if is_detector[v]:
                entry = (v, intensities[v])
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
            descend(idx + 1, winner_at, void, prob)
            return
        if len(weights) == 1:
            det, w = next(iter(weights.items()))
            descend(idx + 1, {**winner_at, u: (det, w)}, void, prob)
            return
        total = sum(weights.values())
        for det in sorted(weights):
            share = weights[det] / total
            new_weight = total if mode is Mode.AGGREGATE else weights[det]
            new_void = set(void)
            for loser in weights:
                if loser == det:
                    continue
                for edge in carriers[loser]:
                    cascade(edge, new_void)
            descend(
                idx + 1,
                {**winner_at, u: (det, new_weight)},
                new_void,
                prob * share,
            )

    descend(0, {}, set(), 1.0)
    return result


# ---------------------------------------------------------------------------
# Interference profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterferenceProfile:
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
    payload = {
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
