"""Sums over paths, computed apart from the engine.

Two sums over every admissible path, deliberately sharing no traversal
code with the engine: agreement between them and the engine is the
artifact's main correctness check.

- ``path_amplitudes`` and ``enumerate_paths`` walk the paths one by one
  and add one unit phasor per path.  They are the brute-force cross-check
  and cost time in proportion to the paths.
- ``lattice_amplitudes``, the Born reference of every ensemble, groups the
  paths into classes: paths with the same number of ribs of each length
  have the same total length, so the same phase.  It counts each class's
  paths exactly and takes one phasor per class.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import mul
from typing import Callable

from .errors import (
    DEFAULT_CLASS_BUDGET,
    DEFAULT_PATH_BUDGET,
    DarkTrialError,
    PathBudgetError,
    ScoutnetError,
)
from .lattice import Lattice, NodeKind


_OVERFLOW = "intensity overflow: an amplitude or intensity is past the largest float"


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


def _forward_children(lattice: Lattice) -> dict[int, tuple[tuple[int, float], ...]]:
    """Each passing node's admissible children, ``(child, rib length)``.

    A rib is admissible when it raises the hop distance from the source by
    one.  Only the source and void nodes pass a path on; they are the keys,
    in ``(hop distance, id)`` order, so every node comes after its parents.
    Children are in id order; a child that is not a key is a detector.
    """
    dist = lattice.hop_distances()
    passing = [u for u in dist if lattice.nodes[u].kind is not NodeKind.DETECTOR]
    passing.sort(key=lambda u: (dist[u], u))
    return {
        u: tuple(
            (v, lattice.ribs[idx].length)
            for v, idx in lattice.adjacency[u]
            if dist.get(v) == dist[u] + 1
        )
        for u in passing
    }


def _walk_paths(
    lattice: Lattice,
    path_budget: int,
    arrive: Callable[[list[int], int, float], None],
) -> None:
    """Depth-first walk over every admissible path from the source.

    A path ends at the first detector it meets, where ``arrive(trail,
    detector, length)`` is called (``trail`` excludes the detector).
    Children are taken in id order, so each detector's paths arrive in
    lexicographic order of their node ids.  A path's length is summed rib
    by rib from the source.

    The budget counts every rib the walk crosses; a node's ribs are
    charged when it is expanded, all of which the walk then crosses, so
    the error names rib visit ``budget + 1``.
    """
    forward = _forward_children(lattice)
    budget_left = path_budget

    def walk(u: int, trail: list[int], length: float) -> None:
        nonlocal budget_left
        kids = forward[u]
        budget_left -= len(kids)
        if budget_left < 0:
            raise PathBudgetError(path_budget, "rib visits")
        for v, rib_len in kids:
            if v in forward:
                trail.append(v)
                walk(v, trail, length + rib_len)
                trail.pop()
            else:
                arrive(trail, v, length + rib_len)

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
    return paths


def born_distribution(amplitudes: dict[int, complex]) -> BornDistribution:
    """Normalised intensities I_i / sum(I); the target selection statistics.

    An intensity or total past the largest float raises ``ScoutnetError``.
    """
    try:
        intensities = {det: abs(amp) ** 2 for det, amp in amplitudes.items()}
    except OverflowError:
        raise ScoutnetError(_OVERFLOW) from None
    total = sum(intensities.values())
    if not math.isfinite(total):
        raise ScoutnetError(_OVERFLOW)
    if total <= 0.0:
        raise DarkTrialError("dark configuration: every detector amplitude is zero")
    return BornDistribution(
        entries={det: i / total for det, i in sorted(intensities.items())},
        intensities=intensities,
    )


def path_amplitudes(lattice: Lattice) -> dict[int, complex]:
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


def lattice_amplitudes(lattice: Lattice) -> dict[int, complex]:
    """Amplitude of every detector on the lattice, summed class by class.

    A path's class is its vector of rib counts, one per distinct rib
    length, packed in one int: the count of length i sits in byte field i,
    wide enough for any path, so a rib of length i adds the field's unit.
    Each node holds ``{class: exact path count}``, built from its parents'
    in ``(hop distance, id)`` order and dropped once passed on.

    A detector's amplitude is the ``math.fsum`` over its classes of the
    path count times ``cos(phase) + i sin(phase)``.  A class's phase is
    the ``math.fsum`` of each length's turn, ``fmod(2*pi*l/lambda, 2*pi)``,
    times its count.  Taken over the whole length L, ``2*pi*L/lambda``
    reaches hundreds of radians on deep slit screens, and its rounding put
    slit 12x9's amplitudes 4e-12 off (relative to the largest), against
    2e-14 when turned per length.

    ``DEFAULT_CLASS_BUDGET`` counts class updates, one per class of a node
    and rib out of it; a node's are charged before it passes them on, so
    the error names update ``budget + 1``.  An amplitude past the largest
    float raises ``ScoutnetError``.
    """
    forward = _forward_children(lattice)
    lengths = sorted({length for kids in forward.values() for _, length in kids})
    # no path crosses more ribs than there are passing nodes
    width = next(w for w in (1, 2, 4, 8) if len(forward) < 256**w)
    unit = {length: 1 << (8 * width * i) for i, length in enumerate(lengths)}
    classes: dict[int, dict[int, int]] = {lattice.source: {0: 1}}
    budget_left = DEFAULT_CLASS_BUDGET
    for u, kids in forward.items():
        here = classes.pop(u)
        budget_left -= len(here) * len(kids)
        if budget_left < 0:
            raise PathBudgetError(DEFAULT_CLASS_BUDGET, "class updates")
        for v, length in kids:
            step = unit[length]
            there = classes.setdefault(v, {})
            get = there.get
            for key, paths in here.items():
                key += step
                there[key] = get(key, 0) + paths

    size = width * len(lengths)
    fields = {1: "B", 2: "H", 4: "I", 8: "Q"}[width]
    two_pi = 2.0 * math.pi
    fmod, fsum, cos, sin = math.fmod, math.fsum, math.cos, math.sin
    turns = [fmod(two_pi * length / lattice.wavelength, two_pi) for length in lengths]
    phasors: dict[int, tuple[float, float]] = {}
    amplitudes = {}
    try:
        for det in lattice.detectors:
            re, im = [], []
            for key, paths in classes.get(det, {}).items():
                phasor = phasors.get(key)
                if phasor is None:
                    counts = memoryview(key.to_bytes(size, sys.byteorder))
                    phase = fsum(map(mul, turns, counts.cast(fields)))
                    phasor = phasors[key] = (cos(phase), sin(phase))
                re.append(paths * phasor[0])
                im.append(paths * phasor[1])
            amplitudes[det] = complex(fsum(re), fsum(im))
    except OverflowError:
        raise ScoutnetError(_OVERFLOW) from None
    return amplitudes
