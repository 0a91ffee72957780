"""Brute-force reference for amplitudes and selection probabilities.

Everything here is plain recursive path enumeration over the lattice,
deliberately sharing no traversal code with the engine: agreement
between the two is the artifact's main correctness check.
"""

from __future__ import annotations

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
    lexicographic order of their node ids.  A path's length is summed rib
    by rib from the source.

    Each reached node's admissible children, ``(child, rib length, is
    detector)``, are built once before the walk.  The budget counts every
    rib the walk crosses; a node's ribs are charged when it is expanded,
    all of which the walk then crosses, so the error names rib visit
    ``budget + 1``.
    """
    dist = lattice.hop_distances()
    forward: list[tuple[tuple[int, float, bool], ...]] = [()] * len(lattice.nodes)
    for u, du in dist.items():
        if u == lattice.source or lattice.nodes[u].kind is NodeKind.VOID:
            forward[u] = tuple(
                (
                    v,
                    lattice.ribs[idx].length,
                    lattice.nodes[v].kind is NodeKind.DETECTOR,
                )
                for v, idx in lattice.adjacency[u]
                if dist.get(v) == du + 1
            )
    budget_left = path_budget

    def walk(u: int, trail: list[int], length: float) -> None:
        nonlocal budget_left
        kids = forward[u]
        budget_left -= len(kids)
        if budget_left < 0:
            raise PathBudgetError(path_budget)
        for v, rib_len, is_detector in kids:
            if is_detector:
                arrive(trail, v, length + rib_len)
            else:
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
    equals the sum of ``cmath.exp(1j * p.phase)`` over those paths
    exactly: the phase is ``_phase``'s expression with its constants
    hoisted, ``cmath.exp(1j * phase)`` is ``cos(phase) + i sin(phase)``
    to the bit, and a complex sum adds its real and imaginary parts
    separately.
    """
    re = [0.0] * len(lattice.nodes)
    im = [0.0] * len(lattice.nodes)
    two_pi = 2.0 * math.pi
    wavelength = lattice.wavelength
    fmod, cos, sin = math.fmod, math.cos, math.sin

    def arrive(trail: list[int], det: int, total: float) -> None:
        phase = fmod(two_pi * total / wavelength, two_pi)
        re[det] += cos(phase)
        im[det] += sin(phase)

    _walk_paths(lattice, DEFAULT_PATH_BUDGET, arrive)
    return {det: complex(re[det], im[det]) for det in lattice.detectors}
