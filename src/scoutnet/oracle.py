"""Brute-force reference for amplitudes and selection probabilities.

Everything here is plain recursive path enumeration over the lattice,
deliberately sharing no traversal code with the engine: agreement
between the two is the artifact's main correctness check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .errors import DEFAULT_PATH_BUDGET, DarkTrialError, PathBudgetError
from .lattice import Lattice, NodeKind


@dataclass(frozen=True)
class PathRecord:
    """One admissible source-to-detector path with its accumulated phase."""

    nodes: tuple[int, ...]
    total_length: float
    phase: float


@dataclass(frozen=True)
class BornDistribution:
    entries: dict[int, float]
    intensities: dict[int, float]

    def __post_init__(self):
        total = sum(self.entries.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")


def _walk_paths(
    lattice: Lattice,
    path_budget: int,
    arrive: Callable[[list[int], int, float], None],
) -> None:
    """Depth-first walk over every admissible path from the source.

    A path is admissible when each rib raises the hop distance from the
    source by one.  Charged nodes absorb: a path ends at the first
    detector it meets, where ``arrive(trail, detector, length)`` is called
    (``trail`` excludes the detector).  Children are taken in adjacency
    order, which is by node id, so each detector's paths arrive in
    lexicographic order of their node ids.  The budget counts every rib
    the walk crosses.
    """
    dist = lattice.hop_distances()
    budget_used = 0

    def walk(u: int, trail: list[int], length: float) -> None:
        nonlocal budget_used
        du = dist[u]
        for v, idx in lattice.adjacency[u]:
            if dist.get(v) != du + 1:
                continue
            budget_used += 1
            if budget_used > path_budget:
                raise PathBudgetError(path_budget, budget_used)
            kind = lattice.nodes[v].kind
            rib_len = lattice.ribs[idx].length
            if kind is NodeKind.DETECTOR:
                arrive(trail, v, length + rib_len)
            elif kind is NodeKind.VOID:
                trail.append(v)
                walk(v, trail, length + rib_len)
                trail.pop()

    walk(lattice.source, [lattice.source], 0.0)


def _phase(total_length: float, wavelength: float) -> float:
    return math.fmod(2.0 * math.pi * total_length / wavelength, 2.0 * math.pi)


def enumerate_paths(
    lattice: Lattice,
    detector: int,
    path_budget: int = DEFAULT_PATH_BUDGET,
) -> list[PathRecord]:
    """All admissible simple paths source -> detector, lexicographic by node ids."""
    if detector not in lattice.detectors:
        raise ValueError(f"node {detector} is not a detector")
    paths: list[PathRecord] = []

    def arrive(trail: list[int], det: int, total: float) -> None:
        if det == detector:
            phase = _phase(total, lattice.wavelength)
            paths.append(PathRecord(tuple(trail + [det]), total, phase))

    _walk_paths(lattice, path_budget, arrive)
    paths.sort(key=lambda p: p.nodes)
    return paths


def detector_amplitude(paths: list[PathRecord]) -> complex:
    """Sum of unit vectors, one per admissible path."""
    detectors = {p.nodes[-1] for p in paths}
    if len(detectors) > 1:
        raise ValueError(f"paths end at multiple detectors: {sorted(detectors)}")
    return sum((cmath.exp(1j * p.phase) for p in paths), 0j)


def born_distribution(amplitudes: dict[int, complex]) -> BornDistribution:
    """Normalised intensities I_i / sum(I); the target selection statistics."""
    intensities = {det: abs(amp) ** 2 for det, amp in amplitudes.items()}
    total = sum(intensities.values())
    if total <= 0.0:
        raise DarkTrialError("dark configuration: every detector amplitude is zero")
    return BornDistribution(
        entries={det: i / total for det, i in sorted(intensities.items())},
        intensities=intensities,
    )


def lattice_amplitudes(lattice: Lattice) -> dict[int, complex]:
    """Amplitude of every detector on the lattice, from one walk.

    Each path's unit vector is added as the path ends.  Paths reach a
    detector in the order ``enumerate_paths`` returns them, so every sum
    equals ``detector_amplitude(enumerate_paths(lattice, det))`` exactly.
    """
    amplitudes = {det: 0j for det in lattice.detectors}

    def arrive(trail: list[int], det: int, total: float) -> None:
        amplitudes[det] += cmath.exp(1j * _phase(total, lattice.wavelength))

    _walk_paths(lattice, DEFAULT_PATH_BUDGET, arrive)
    return amplitudes
