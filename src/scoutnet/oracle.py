"""Sums over paths, computed apart from the engine.

Both ways through the admissible paths below read the lattice's forward
DAG, ``Lattice.forward``, as the engine does, and share nothing else with
it: agreement between the class sum, the path-by-path sum over the walk
and the engine's rib-by-rib phasors is the artifact's main correctness
check.

- ``lattice_amplitudes``, the Born reference of every ensemble and the
  intensities of ``experiments``' exact enumerator, groups the paths into
  classes: paths with the same number of ribs of each length have the
  same total length, so the same phase.  It counts each class's paths
  exactly and takes one phasor per class.
- ``enumerate_paths`` walks one detector's paths one by one.  Tests add
  one unit phasor per path to cross-check the class sum; it costs time in
  proportion to the paths.

The exact enumerator in ``experiments`` cuts the same DAG down to its
live graph.
"""

from __future__ import annotations

import math
import struct
from operator import mul
from typing import NamedTuple

from .errors import (
    DEFAULT_CLASS_BUDGET,
    DEFAULT_PATH_BUDGET,
    DarkTrialError,
    PathBudgetError,
    ScoutnetError,
)
from .lattice import Lattice


_OVERFLOW = "intensity overflow: an amplitude or intensity is past the largest float"


class PathRecord(NamedTuple):
    """One admissible source-to-detector path with its accumulated phase."""

    nodes: tuple[int, ...]
    total_length: float
    phase: float


class BornDistribution(
    NamedTuple(
        "BornDistribution",
        [("entries", dict[int, float]), ("intensities", dict[int, float])],
    )
):
    """Each detector's Born probability and the intensity it comes from.

    The n probabilities must sum to 1 within n * 2**-52, and at least
    1e-12, added with ``math.fsum``: the plain-loop total that
    ``born_distribution`` divides by drifts by up to about n * 2**-53."""

    __slots__ = ()

    def __new__(
        cls, entries: dict[int, float], intensities: dict[int, float]
    ) -> BornDistribution:
        total = math.fsum(entries.values())
        if abs(total - 1.0) > max(1e-12, len(entries) * 2.0**-52):
            raise ValueError(f"probabilities sum to {total}, not 1")
        return super().__new__(cls, entries, intensities)


def enumerate_paths(lattice: Lattice, detector: int) -> list[PathRecord]:
    """All admissible simple paths source -> detector, lexicographic by node ids.

    A depth-first walk over every admissible path from the source; a path
    ends at the first detector it meets.  Children are taken in id order,
    so the paths come in lexicographic order of their node ids.  A path's
    length is summed rib by rib from the source.

    ``DEFAULT_PATH_BUDGET`` counts every rib the walk crosses, towards any
    detector; a node's ribs are charged when it is expanded, all of which
    the walk then crosses, so the error names rib visit ``budget + 1``.
    """
    if detector not in lattice.detectors:
        raise ValueError(f"node {detector} is not a detector")
    forward = lattice.forward
    paths: list[PathRecord] = []
    budget_left = DEFAULT_PATH_BUDGET

    def walk(u: int, trail: list[int], length: float) -> None:
        nonlocal budget_left
        kids = forward[u]
        budget_left -= len(kids)
        if budget_left < 0:
            raise PathBudgetError(DEFAULT_PATH_BUDGET, "rib visits")
        for v, rib_len in kids:
            if v in forward:
                trail.append(v)
                walk(v, trail, length + rib_len)
                trail.pop()
            elif v == detector:
                total = length + rib_len
                phase = math.fmod(
                    2.0 * math.pi * total / lattice.wavelength, 2.0 * math.pi
                )
                paths.append(PathRecord((*trail, v), total, phase))

    walk(lattice.source, [lattice.source], 0.0)
    return paths


def born_distribution(amplitudes: dict[int, complex]) -> BornDistribution:
    """Normalised intensities I_i / sum(I); the target selection statistics.

    An intensity or total past the largest float raises ``ScoutnetError``.
    """
    try:
        intensities = {det: abs(amp) ** 2 for det, amp in amplitudes.items()}
    except OverflowError:
        raise ScoutnetError(_OVERFLOW) from None
    total = 0.0
    for intensity in intensities.values():  # left to right on every CPython
        total += intensity
    if not math.isfinite(total):
        raise ScoutnetError(_OVERFLOW)
    if total <= 0.0:
        raise DarkTrialError("dark configuration: every detector amplitude is zero")
    return BornDistribution(
        entries={det: i / total for det, i in sorted(intensities.items())},
        intensities=intensities,
    )


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
    forward = lattice.forward
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
    # field i is byte field i of the key, little-endian on every host
    unpack = struct.Struct("<" + fields * len(lengths)).unpack
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
                    counts = unpack(key.to_bytes(size, "little"))
                    phase = fsum(map(mul, turns, counts))
                    phasor = phasors[key] = (cos(phase), sin(phase))
                re.append(paths * phasor[0])
                im.append(paths * phasor[1])
            amplitudes[det] = complex(fsum(re), fsum(im))
    except OverflowError:
        raise ScoutnetError(_OVERFLOW) from None
    return amplitudes
