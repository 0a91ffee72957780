"""Brute-force reference for amplitudes and selection probabilities.

Everything here is plain recursive path enumeration over the lattice,
deliberately sharing no traversal code with the engine: agreement
between the two is the artifact's main correctness check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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


def enumerate_paths(
    lattice: Lattice,
    detector: int,
    path_budget: int = DEFAULT_PATH_BUDGET,
) -> list[PathRecord]:
    """All admissible simple paths source -> detector, lexicographic by node ids.

    A path is admissible when each rib raises the hop distance from the
    source by one.  Charged nodes absorb: no path passes through a
    detector on the way to another one.
    """
    if detector not in lattice.detectors:
        raise ValueError(f"node {detector} is not a detector")
    source = lattice.source
    wavelength = lattice.wavelength
    paths: list[PathRecord] = []
    budget_used = 0

    dist = lattice.hop_distances()

    def forward(u: int):
        du = dist[u]
        for v, idx in lattice.adjacency[u]:
            if dist.get(v) == du + 1:
                yield v, lattice.ribs[idx].length

    def walk(u: int, trail: list[int], length: float):
        nonlocal budget_used
        for v, rib_len in forward(u):
            budget_used += 1
            if budget_used > path_budget:
                raise PathBudgetError(path_budget, budget_used)
            if v == detector:
                total = length + rib_len
                phase = math.fmod(2.0 * math.pi * total / wavelength, 2.0 * math.pi)
                paths.append(PathRecord(tuple(trail + [v]), total, phase))
            elif lattice.nodes[v].kind is NodeKind.VOID:
                trail.append(v)
                walk(v, trail, length + rib_len)
                trail.pop()

    walk(source, [source], 0.0)
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
    """Convenience: amplitude of every detector on the lattice."""
    return {
        det: detector_amplitude(enumerate_paths(lattice, det))
        for det in lattice.detectors
    }
