"""References computed apart from the program, with the standard library only.

- Detector amplitudes by a transfer-matrix solve, ``[(I - A)^{-1}]_{s,d}``,
  where ``A`` is the phase-weighted adjacency matrix of the hop-distance
  forward DAG.  The DAG is rebuilt here from ``lattice.nodes`` and
  ``lattice.ribs``; no traversal code of the program is used.
- The chi-square upper quantile, from the regularized incomplete gamma
  function, so the check does not lean on the scipy the program imports.

Nothing here imports numpy or scipy, so a process that loads this module
loads nothing the program would not.
"""

from __future__ import annotations

import cmath
import math


def _forward_dag(lattice) -> list[tuple[int, int, float]]:
    """Ribs (u, v, length) that step one hop further from the source.

    Only the source and void nodes pass a wavefront on; every other node
    (detector or otherwise charged) absorbs what reaches it.
    """
    source = next(n.id for n in lattice.nodes if n.kind.value == "source")
    passes = {n.id for n in lattice.nodes if n.kind.value in ("source", "void")}
    neighbours: dict[int, list[tuple[int, float]]] = {n.id: [] for n in lattice.nodes}
    for rib in lattice.ribs:
        neighbours[rib.a].append((rib.b, rib.length))
        neighbours[rib.b].append((rib.a, rib.length))
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            if u not in passes:
                continue
            for v, _ in neighbours[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return [
        (u, v, length)
        for u in dist
        if u in passes
        for v, length in neighbours[u]
        if dist.get(v) == dist[u] + 1
    ]


def _solve(matrix: list[list[complex]], rhs: list[complex]) -> list[complex]:
    """Gaussian elimination with partial pivoting on a dense complex system."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) == 0.0:
            raise ValueError("singular transfer matrix")
        a[col], a[pivot] = a[pivot], a[col]
        head = a[col]
        for r in range(col + 1, n):
            factor = a[r][col] / head[col]
            if factor:
                row = a[r]
                for c in range(col, n + 1):
                    row[c] -= factor * head[c]
    x = [0j] * n
    for r in range(n - 1, -1, -1):
        acc = a[r][n] - sum(a[r][c] * x[c] for c in range(r + 1, n))
        x[r] = acc / a[r][r]
    return x


def transfer_amplitudes(lattice) -> dict[int, complex]:
    """Amplitude of every detector: column ``s`` of ``(I - A)^{-1}``."""
    n = len(lattice.nodes)
    source = next(node.id for node in lattice.nodes if node.kind.value == "source")
    system = [[1.0 + 0j if r == c else 0j for c in range(n)] for r in range(n)]
    for u, v, length in _forward_dag(lattice):
        system[v][u] -= cmath.exp(2j * math.pi * length / lattice.wavelength)
    unit = [0j] * n
    unit[source] = 1.0 + 0j
    x = _solve(system, unit)
    return {
        node.id: x[node.id] for node in lattice.nodes if node.kind.value == "detector"
    }


def born(intensities: dict[int, float]) -> dict[int, float]:
    total = sum(intensities.values())
    return {k: v / total for k, v in intensities.items()}


def _upper_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x)."""
    if x <= 0.0:
        return 1.0
    log_front = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        # series for P(a, x)
        term = total = 1.0 / a
        k = a
        while abs(term) > abs(total) * 1e-17:
            k += 1.0
            term *= x / k
            total += term
        return 1.0 - total * math.exp(log_front)
    # Lentz continued fraction for Q(a, x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(log_front)


def chi2_upper_quantile(dof: int, alpha: float) -> float:
    """The x with P(chi2_dof > x) = alpha, by bisection."""
    if dof < 1 or not (0.0 < alpha < 1.0):
        raise ValueError(f"bad chi-square quantile request dof={dof} alpha={alpha}")
    lo, hi = 0.0, float(dof) + 10.0
    while _upper_gamma_q(dof / 2.0, hi / 2.0) > alpha:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _upper_gamma_q(dof / 2.0, mid / 2.0) > alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return 0.5 * (lo + hi)


def chi_square(counts: dict[int, int], probs: dict[int, float]) -> tuple[float, float]:
    """Pearson statistic of ``counts`` against ``probs``, and the smallest
    expected cell count (the approximation wants every cell at 5 or more)."""
    n = sum(counts.values())
    stat = 0.0
    smallest = math.inf
    for k, p in probs.items():
        expected = n * p
        smallest = min(smallest, expected)
        stat += (counts.get(k, 0) - expected) ** 2 / expected
    return stat, smallest
