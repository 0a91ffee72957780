"""Shared lattice factories and statistics for the unit and acceptance suites."""

from __future__ import annotations

import math
import random
from collections.abc import Hashable, Mapping

from scoutnet.lattice import Lattice, Node, NodeKind, Rib


def diamond_arm(
    nodes: list[Node],
    ribs: list[Rib],
    anchor: int,
    target_intensity: float,
    wavelength: float = 1.0,
    x0: float = 0.0,
    y: float = 0.0,
) -> int:
    """Append a two-branch arm realising the target detector intensity.

    Returns the detector id.  The branch-length difference sets the phase
    offset between the two paths: I = 2 + 2*cos(2*pi*delta/wavelength).
    """
    delta = wavelength / (2 * math.pi) * math.acos((target_intensity - 2) / 2)
    len_a, len_b = 1.0, 1.0 + delta
    span = 0.9 * len_a
    ha = math.sqrt((len_a / 2) ** 2 - (span / 2) ** 2)
    hb = math.sqrt((len_b / 2) ** 2 - (span / 2) ** 2)
    p1 = len(nodes)
    nodes.append(Node(p1, (x0 + span / 2, y + ha)))
    p2 = len(nodes)
    nodes.append(Node(p2, (x0 + span / 2, y - hb)))
    merge = len(nodes)
    nodes.append(Node(merge, (x0 + span, y)))
    det = len(nodes)
    nodes.append(Node(det, (x0 + span + 1.0, y), NodeKind.DETECTOR))
    ribs.extend(
        [
            Rib(anchor, p1, len_a / 2),
            Rib(p1, merge, len_a / 2),
            Rib(anchor, p2, len_b / 2),
            Rib(p2, merge, len_b / 2),
            Rib(merge, det, 1.0),
        ]
    )
    return det


def chain_arm(
    nodes: list[Node],
    ribs: list[Rib],
    anchor: int,
    hops: int = 1,
    x0: float = 0.0,
    y: float = 0.0,
) -> int:
    """Single-chain arm (unit intensity detector)."""
    prev = anchor
    for hop in range(1, hops + 1):
        nid = len(nodes)
        kind = NodeKind.DETECTOR if hop == hops else NodeKind.VOID
        nodes.append(Node(nid, (x0 + float(hop), y), kind))
        ribs.append(Rib(prev, nid, 1.0))
        prev = nid
    return prev


def diamond_chain(diamonds: int) -> Lattice:
    """``diamonds`` unit diamonds in a row, then a detector, at wavelength 1.

    Every rib has length 1, so every path arrives in phase and the
    detector's amplitude is 2**diamonds.
    """
    nodes = [Node(0, (0.0, 0.0), NodeKind.SOURCE)]
    ribs: list[Rib] = []
    merge = 0
    for i in range(diamonds):
        for y in (1.0, -1.0):
            nodes.append(Node(len(nodes), (2.0 * i + 1.0, y)))
            ribs.append(Rib(merge, len(nodes) - 1, 1.0))
        nodes.append(Node(len(nodes), (2.0 * i + 2.0, 0.0)))
        ribs.extend(Rib(len(nodes) - k, len(nodes) - 1, 1.0) for k in (3, 2))
        merge = len(nodes) - 1
    nodes.append(Node(len(nodes), (2.0 * diamonds + 1.0, 0.0), NodeKind.DETECTOR))
    ribs.append(Rib(merge, len(nodes) - 1, 1.0))
    return Lattice(tuple(nodes), tuple(ribs), 1.0)


def nested_tree_lattice() -> tuple[Lattice, dict[str, int]]:
    """Two-level lottery tree: (D1 vs D2) at an inner node, survivor vs D3.

    D3's arm is a diamond tuned to intensity 2, so intensities are
    (1, 1, 2) and the aggregate-mode selection must be (1/4, 1/4, 1/2).
    """
    nodes = [Node(0, (0.0, 0.0), NodeKind.SOURCE)]
    ribs: list[Rib] = []
    j = len(nodes)
    nodes.append(Node(j, (1.0, 0.0)))
    ribs.append(Rib(0, j, 1.0))
    j2 = len(nodes)
    nodes.append(Node(j2, (2.0, 1.0)))
    ribs.append(Rib(j, j2, 1.0))
    d1 = chain_arm(nodes, ribs, j2, hops=1, x0=2.0, y=2.0)
    d2 = chain_arm(nodes, ribs, j2, hops=1, x0=2.0, y=0.5)
    d3 = diamond_arm(nodes, ribs, j, 2.0, x0=1.0, y=-2.0)
    lat = Lattice(tuple(nodes), tuple(ribs), 1.0)
    return lat, {"d1": d1, "d2": d2, "d3": d3, "inner": j2, "junction": j}


def balanced_tree_lattice() -> Lattice:
    """Four detectors, pairwise lotteries, winners meet at the source.

    Intensities (1, 2, 3, 1) via diamond arms; three merge nodes total.
    """
    nodes = [Node(0, (0.0, 0.0), NodeKind.SOURCE)]
    ribs: list[Rib] = []
    ja = len(nodes)
    nodes.append(Node(ja, (1.0, 2.0)))
    ribs.append(Rib(0, ja, 1.0))
    jb = len(nodes)
    nodes.append(Node(jb, (1.0, -2.0)))
    ribs.append(Rib(0, jb, 1.0))
    diamond_arm(nodes, ribs, ja, 1.0, x0=1.0, y=3.0)
    diamond_arm(nodes, ribs, ja, 2.0, x0=1.0, y=1.0)
    diamond_arm(nodes, ribs, jb, 3.0, x0=1.0, y=-1.0)
    diamond_arm(nodes, ribs, jb, 1.0, x0=1.0, y=-3.0)
    return Lattice(tuple(nodes), tuple(ribs), 1.0)


def skewed_tree_lattice() -> Lattice:
    """Three detectors along a comb: lotteries at two successive junctions."""
    nodes = [Node(0, (0.0, 0.0), NodeKind.SOURCE)]
    ribs: list[Rib] = []
    j1 = len(nodes)
    nodes.append(Node(j1, (1.0, 0.0)))
    ribs.append(Rib(0, j1, 1.0))
    diamond_arm(nodes, ribs, j1, 3.5, x0=1.0, y=2.0)
    j2 = len(nodes)
    nodes.append(Node(j2, (2.0, -1.0)))
    ribs.append(Rib(j1, j2, 1.0))
    diamond_arm(nodes, ribs, j2, 0.5, x0=2.0, y=-3.0)
    chain_arm(nodes, ribs, j2, hops=2, x0=2.0, y=1.0)
    return Lattice(tuple(nodes), tuple(ribs), 1.0)


def tree_merge_instances() -> list[tuple[str, Lattice]]:
    """All tree-merge instances used for the exact-lottery cross-check."""
    nested, _ = nested_tree_lattice()
    return [
        ("nested-1-1-2", nested),
        ("balanced-1-2-3-1", balanced_tree_lattice()),
        ("skewed-3.5-0.5-1", skewed_tree_lattice()),
    ]


def random_layered_lattice(
    rng: random.Random,
    max_layers: int = 7,
    max_width: int = 5,
) -> Lattice:
    """Random layered DAG lattice: source, void layers, detector layer.

    Every node has at least one parent in the previous layer, so the hop
    distance from the source equals the layer index and every rib is
    admissible under the forward rule.  Rib lengths are Euclidean.
    """
    layers = rng.randint(3, max_layers)
    widths = [1] + [rng.randint(1, max_width) for _ in range(layers - 1)]
    nodes: list[Node] = []
    ribs: list[Rib] = []
    layer_ids: list[list[int]] = []
    for layer, width in enumerate(widths):
        ids = []
        for row in range(width):
            nid = len(nodes)
            if layer == 0:
                kind = NodeKind.SOURCE
            elif layer == layers - 1:
                kind = NodeKind.DETECTOR
            else:
                kind = NodeKind.VOID
            y = row - (width - 1) / 2 + rng.uniform(-0.2, 0.2)
            nodes.append(Node(nid, (float(layer), y), kind))
            ids.append(nid)
        layer_ids.append(ids)
    for layer in range(1, layers):
        for nid in layer_ids[layer]:
            parents = rng.sample(
                layer_ids[layer - 1],
                rng.randint(1, min(3, len(layer_ids[layer - 1]))),
            )
            for parent in parents:
                ribs.append(
                    Rib(
                        parent,
                        nid,
                        math.dist(nodes[parent].position, nodes[nid].position),
                    )
                )
    return Lattice(tuple(nodes), tuple(ribs), rng.choice([0.5, 0.7, 1.0, 1.3]))


def shuffle_node_ids(lat: Lattice, rng: random.Random) -> tuple[Lattice, list[int]]:
    """The same lattice with its node ids permuted, and the permutation.

    The builders number nodes layer by layer, so their ids follow the hop
    distance; the shuffled copy's ids need not.
    """
    perm = list(range(len(lat.nodes)))
    rng.shuffle(perm)
    nodes = sorted(
        (Node(perm[n.id], n.position, n.kind) for n in lat.nodes),
        key=lambda n: n.id,
    )
    ribs = [Rib(perm[r.a], perm[r.b], r.length) for r in lat.ribs]
    return Lattice(tuple(nodes), tuple(ribs), lat.wavelength), perm


def pooled_chi_square(
    counts: Mapping[Hashable, int], law: dict[Hashable, float], trials: int
) -> tuple[float, int]:
    """Pearson statistic and dof after merging the two smallest cells until
    every cell expects at least 5 draws, so that the chi-square quantile
    applies; a zero-probability cell is merged too and still counts."""
    cells = sorted((p * trials, counts[det]) for det, p in law.items())
    while len(cells) > 1 and cells[0][0] < 5.0:
        (e1, o1), (e2, o2) = cells[0], cells[1]
        cells = sorted([(e1 + e2, o1 + o2)] + cells[2:])
    statistic = sum((obs - exp) ** 2 / exp for exp, obs in cells)
    return statistic, len(cells) - 1
