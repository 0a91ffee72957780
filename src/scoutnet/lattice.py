"""Node/rib lattices: the immutable substrate every protocol run executes on.

A lattice is a finite undirected graph.  Nodes carry positions (lattice
length units) and a kind (void, source, detector); ribs carry a
positive length, defaulting to the Euclidean distance between their
endpoints.  Exactly one source is required, every detector must be
reachable from it, and the photon wavelength is part of the lattice
because phase accumulation is meaningless without it.

Builders cover the canonical scenarios (star, two-path interferometer,
slit screen, rectangular grid); ``load_topology``/``serialize_topology``
round-trip arbitrary user topologies through a YAML document.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

from .errors import LatticeError, TopologyError


class NodeKind(str, Enum):
    VOID = "void"
    SOURCE = "source"
    DETECTOR = "detector"


@dataclass(frozen=True)
class Node:
    id: int
    position: tuple[float, ...]
    kind: NodeKind = NodeKind.VOID


@dataclass(frozen=True)
class Rib:
    """Undirected edge; endpoints stored sorted so (a, b) == (b, a)."""

    a: int
    b: int
    length: float

    def __post_init__(self):
        if self.a == self.b:
            raise LatticeError(f"self-loop rib at node {self.a}")
        if self.a > self.b:
            a, b = self.b, self.a
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
        if not (self.length > 0) or not math.isfinite(self.length):
            raise LatticeError(
                f"rib ({self.a},{self.b}) has non-positive length {self.length}"
            )

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.a, self.b)


@dataclass(frozen=True, eq=False)
class Lattice:
    nodes: tuple[Node, ...]
    ribs: tuple[Rib, ...]
    wavelength: float

    def __eq__(self, other) -> bool:
        # rib storage order is presentation detail; compare canonically
        if not isinstance(other, Lattice):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and sorted(self.ribs, key=lambda r: r.endpoints)
            == sorted(other.ribs, key=lambda r: r.endpoints)
            and self.wavelength == other.wavelength
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.nodes,
                tuple(sorted(self.ribs, key=lambda r: r.endpoints)),
                self.wavelength,
            )
        )
    adjacency: dict[int, tuple[tuple[int, int], ...]] = field(
        init=False, compare=False, repr=False
    )
    source: int = field(init=False, compare=False, repr=False)
    detectors: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "ribs", tuple(self.ribs))
        self._validate()

    def _validate(self) -> None:
        if not (self.wavelength > 0) or not math.isfinite(self.wavelength):
            raise LatticeError(f"wavelength must be positive, got {self.wavelength}")
        n = len(self.nodes)
        ids = [node.id for node in self.nodes]
        if len(set(ids)) != n:
            dup = sorted(i for i in set(ids) if ids.count(i) > 1)[0]
            raise LatticeError(f"duplicate node id {dup}")
        if sorted(ids) != list(range(n)):
            raise LatticeError("node ids must be dense integers starting at 0")
        if ids != list(range(n)):
            raise LatticeError("nodes must be listed in id order")
        for node in self.nodes:
            if not all(math.isfinite(c) for c in node.position):
                raise LatticeError(f"node {node.id} has non-finite position")
            if len(node.position) not in (2, 3):
                raise LatticeError(f"node {node.id} position must be 2D or 3D")

        seen: set[tuple[int, int]] = set()
        adjacency: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n)}
        for idx, rib in enumerate(self.ribs):
            if rib.a >= n or rib.b >= n or rib.a < 0:
                bad = rib.a if (rib.a < 0 or rib.a >= n) else rib.b
                raise LatticeError(f"dangling rib endpoint {bad}")
            if rib.endpoints in seen:
                raise LatticeError(f"duplicate rib between {rib.a} and {rib.b}")
            seen.add(rib.endpoints)
            adjacency[rib.a].append((rib.b, idx))
            adjacency[rib.b].append((rib.a, idx))
        total = sum(rib.length for rib in self.ribs)  # bounds every path length
        if not math.isfinite(2.0 * math.pi * total / self.wavelength):
            raise LatticeError(f"phase 2*pi*{total}/{self.wavelength} overflows")

        sources = [node.id for node in self.nodes if node.kind is NodeKind.SOURCE]
        detectors = [node.id for node in self.nodes if node.kind is NodeKind.DETECTOR]
        if not sources:
            raise LatticeError("missing Source node")
        if len(sources) > 1:
            raise LatticeError(f"multiple Source nodes: {sources}")
        if not detectors:
            raise LatticeError("lattice has no Detector node")

        object.__setattr__(
            self,
            "adjacency",
            {i: tuple(sorted(edges)) for i, edges in adjacency.items()},
        )
        object.__setattr__(self, "source", sources[0])
        object.__setattr__(self, "detectors", tuple(sorted(detectors)))

        reachable = self._reachable_from(self.source)
        for det in self.detectors:
            if det not in reachable:
                raise LatticeError(f"detector {det} unreachable from Source")

    def _reachable_from(self, start: int) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v, _ in self.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    def hop_distances(self) -> dict[int, int]:
        """BFS hop counts from the source; charged nodes absorb (no exit)."""
        dist = {self.source: 0}
        frontier = [self.source]
        while frontier:
            nxt = []
            for u in frontier:
                if u != self.source and self.nodes[u].kind is not NodeKind.VOID:
                    continue
                for v, _ in self.adjacency[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        return dist


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_star(
    num_detectors: int,
    arm_hops: int,
    arm_lengths: Sequence[float],
    wavelength: float = 1.0,
) -> Lattice:
    """Source at the center, one detector at the tip of each disjoint arm.

    Arm ``i`` is a chain of ``arm_hops`` ribs, each of length
    ``arm_lengths[i]``; intermediate nodes are void.
    """
    if num_detectors < 1:
        raise LatticeError("star needs at least one detector")
    if arm_hops < 1:
        raise LatticeError("arm_hops must be positive")
    if len(arm_lengths) != num_detectors:
        raise LatticeError(
            f"expected {num_detectors} arm lengths, got {len(arm_lengths)}"
        )
    for length in arm_lengths:
        if not (length > 0):
            raise LatticeError(f"non-positive arm length {length}")

    nodes = [Node(0, (0.0, 0.0), NodeKind.SOURCE)]
    ribs = []
    for arm in range(num_detectors):
        theta = 2.0 * math.pi * arm / num_detectors
        ux, uy = math.cos(theta), math.sin(theta)
        step = arm_lengths[arm]
        prev = 0
        for hop in range(1, arm_hops + 1):
            nid = len(nodes)
            kind = NodeKind.DETECTOR if hop == arm_hops else NodeKind.VOID
            nodes.append(Node(nid, (ux * step * hop, uy * step * hop), kind))
            ribs.append(Rib(prev, nid, step))
            prev = nid
    return Lattice(tuple(nodes), tuple(ribs), wavelength)


def build_intensity_star(
    intensities: Sequence[float],
    base_length: float = 1.0,
    tail_length: float = 1.0,
    wavelength: float = 1.0,
) -> Lattice:
    """Star whose arm geometries realise prescribed detector intensities.

    A single-chain arm always yields unit intensity (one path, one unit
    vector), so each arm here is a two-branch diamond whose branch-length
    difference sets the phase offset: I = 2 + 2*cos(2*pi*delta/wavelength).
    Targets must lie in (0, 4].
    """
    if not intensities:
        raise LatticeError("star needs at least one detector")
    for target in intensities:
        if not (0.0 < target <= 4.0):
            raise LatticeError(f"intensity {target} outside realisable range (0, 4]")
    n = len(intensities)

    nodes = [Node(0, (0.0, 0.0), NodeKind.SOURCE)]
    ribs = []
    for arm, target in enumerate(intensities):
        theta = 2.0 * math.pi * arm / max(n, 2)
        cos_t, sin_t = math.cos(theta), math.sin(theta)

        def rot(x: float, y: float) -> tuple[float, float]:
            return (x * cos_t - y * sin_t, x * sin_t + y * cos_t)

        delta = wavelength / (2.0 * math.pi) * math.acos((target - 2.0) / 2.0)
        len_a = base_length
        len_b = base_length + delta
        span = 0.9 * len_a  # merge node distance; < len_a <= len_b
        ha = math.sqrt((len_a / 2.0) ** 2 - (span / 2.0) ** 2)
        hb = math.sqrt((len_b / 2.0) ** 2 - (span / 2.0) ** 2)

        p1 = len(nodes)
        nodes.append(Node(p1, rot(span / 2.0, ha), NodeKind.VOID))
        p2 = len(nodes)
        nodes.append(Node(p2, rot(span / 2.0, -hb), NodeKind.VOID))
        merge = len(nodes)
        nodes.append(Node(merge, rot(span, 0.0), NodeKind.VOID))
        det = len(nodes)
        nodes.append(Node(det, rot(span + tail_length, 0.0), NodeKind.DETECTOR))

        ribs.append(Rib(0, p1, len_a / 2.0))
        ribs.append(Rib(p1, merge, len_a / 2.0))
        ribs.append(Rib(0, p2, len_b / 2.0))
        ribs.append(Rib(p2, merge, len_b / 2.0))
        ribs.append(Rib(merge, det, tail_length))
    return Lattice(tuple(nodes), tuple(ribs), wavelength)


def build_two_path(
    len_a: float,
    len_b: float,
    hops_per_path: int,
    wavelength: float = 1.0,
) -> Lattice:
    """Source and one detector joined by two disjoint chains of the given lengths.

    Each chain has uniform rib lengths.  A one-hop chain would be a
    parallel edge pair, so fewer than two hops are upgraded to two by
    inserting midpoint void nodes.
    """
    if not (len_a > 0 and len_b > 0):
        raise LatticeError("path lengths must be positive")
    if hops_per_path < 1:
        raise LatticeError("hops_per_path must be positive")
    hops = max(hops_per_path, 2)

    span = 0.9 * min(len_a, len_b)
    detector_pos = (span, 0.0)
    nodes = [Node(0, (0.0, 0.0), NodeKind.SOURCE)]
    ribs = []

    def add_chain(total: float, sign: float) -> None:
        # Zig-zag polyline: equal segments of length total/hops whose
        # horizontal projections tile the source-detector span.
        seg = total / hops
        dx = span / hops
        height = math.sqrt(seg * seg - dx * dx)
        prev = 0
        for hop in range(1, hops):
            nid = len(nodes)
            y = sign * height if hop % 2 == 1 else 0.0
            nodes.append(Node(nid, (dx * hop, y), NodeKind.VOID))
            ribs.append(Rib(prev, nid, seg))
            prev = nid
        ribs.append(Rib(prev, 1, seg))

    nodes.append(Node(1, detector_pos, NodeKind.DETECTOR))
    add_chain(len_a, +1.0)
    add_chain(len_b, -1.0)
    return Lattice(tuple(nodes), tuple(ribs), wavelength)


def build_slit_grid(
    grid_w: int,
    grid_h: int,
    open_rows: Iterable[int],
    screen_detectors: Optional[int] = None,
    col_spacing: float = 4.0,
    row_spacing: float = 1.0,
    wavelength: float = 0.7,
) -> Lattice:
    """Layered slit geometry: source column, interior columns, barrier, screen.

    Columns are ``col_spacing`` apart.  Column 0 holds the source at the
    center row; the next-to-last column is the barrier, fully blocked
    except for the rows listed in ``open_rows`` (blocked nodes are simply
    not created); the last column is the screen, every node a detector.
    Consecutive columns are completely connected with Euclidean rib
    lengths, so admissible paths differ in metric length and interfere.
    """
    if grid_w < 3:
        raise LatticeError("slit grid needs at least 3 columns")
    if grid_h < 1:
        raise LatticeError("slit grid needs at least 1 row")
    open_rows = sorted(set(open_rows))
    for row in open_rows:
        if not (0 <= row < grid_h):
            raise LatticeError(f"slit row {row} outside grid of height {grid_h}")
    if not open_rows:
        raise LatticeError("mask blocks every row: no Source-to-screen connectivity")
    screen_rows = screen_detectors if screen_detectors is not None else grid_h
    if not (1 <= screen_rows <= grid_h):
        raise LatticeError(f"screen_detectors must be in [1, {grid_h}]")

    def row_y(row: int, count: int) -> float:
        return (row - (count - 1) / 2.0) * row_spacing

    barrier_col = grid_w - 2
    nodes: list[Node] = []
    columns: list[list[int]] = []

    # column 0: single source node on the axis
    nodes.append(Node(0, (0.0, 0.0), NodeKind.SOURCE))
    columns.append([0])
    for col in range(1, grid_w):
        x = col * col_spacing
        ids = []
        if col == barrier_col:
            rows = open_rows
            count = grid_h
            kind = NodeKind.VOID
        elif col == grid_w - 1:
            rows = list(range(screen_rows))
            count = screen_rows
            kind = NodeKind.DETECTOR
        else:
            rows = list(range(grid_h))
            count = grid_h
            kind = NodeKind.VOID
        for row in rows:
            nid = len(nodes)
            nodes.append(Node(nid, (x, row_y(row, count)), kind))
            ids.append(nid)
        columns.append(ids)

    ribs = []
    for col in range(grid_w - 1):
        for u in columns[col]:
            for v in columns[col + 1]:
                ribs.append(Rib(u, v, math.dist(nodes[u].position, nodes[v].position)))
    return Lattice(tuple(nodes), tuple(ribs), wavelength)


def build_grid(
    width: int,
    height: int,
    detector_mode: str = "corner",
    wavelength: float = 1.0,
) -> Lattice:
    """Unit-spaced rectangular grid; source at (0,0).

    ``detector_mode='corner'`` puts a single detector at the opposite
    corner; ``'column'`` makes every far-column node a detector.
    """
    if width < 2 or height < 1:
        raise LatticeError("grid must be at least 2 wide and 1 tall")
    if detector_mode not in ("corner", "column"):
        raise LatticeError(f"unknown detector_mode {detector_mode!r}")

    def nid(x: int, y: int) -> int:
        return x * height + y

    nodes = []
    for x in range(width):
        for y in range(height):
            if x == 0 and y == 0:
                kind = NodeKind.SOURCE
            elif x == width - 1 and (detector_mode == "column" or y == height - 1):
                kind = NodeKind.DETECTOR
            else:
                kind = NodeKind.VOID
            nodes.append(Node(nid(x, y), (float(x), float(y)), kind))
    ribs = []
    for x in range(width):
        for y in range(height):
            if x + 1 < width:
                ribs.append(Rib(nid(x, y), nid(x + 1, y), 1.0))
            if y + 1 < height:
                ribs.append(Rib(nid(x, y), nid(x, y + 1), 1.0))
    return Lattice(tuple(nodes), tuple(ribs), wavelength)


# ---------------------------------------------------------------------------
# Topology documents
# ---------------------------------------------------------------------------


def serialize_topology(lattice: Lattice) -> str:
    """Deterministic YAML form (nodes by id, ribs by sorted endpoints)."""
    data = {
        "wavelength": float(lattice.wavelength),
        "nodes": [
            {
                "id": node.id,
                "position": [float(c) for c in node.position],
                "kind": node.kind.value,
            }
            for node in lattice.nodes
        ],
        "ribs": [
            {"endpoints": [rib.a, rib.b], "length": float(rib.length)}
            for rib in sorted(lattice.ribs, key=lambda r: r.endpoints)
        ],
    }
    import yaml  # imported on use: a CLI run without a topology never needs it

    return yaml.safe_dump(data, sort_keys=False)


def load_topology(document: str) -> Lattice:
    """Parse and fully validate a topology document.

    Omitted rib lengths default to the Euclidean distance between the
    endpoint positions.
    """
    import yaml  # imported on use: a CLI run without a topology never needs it

    try:
        data = yaml.safe_load(document)
    except yaml.YAMLError as exc:
        raise TopologyError(f"unparseable topology document: {exc}") from exc
    if not isinstance(data, dict):
        raise TopologyError("topology document must be a mapping")
    if "wavelength" not in data:
        raise TopologyError("missing wavelength")
    try:
        wavelength = float(data["wavelength"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise TopologyError(f"malformed wavelength {data['wavelength']!r}") from exc
    raw_nodes = data.get("nodes")
    if not raw_nodes:
        raise TopologyError("missing nodes section")
    raw_ribs = data.get("ribs")
    if raw_ribs is None:
        raise TopologyError("missing ribs section")
    for name, section in (("nodes", raw_nodes), ("ribs", raw_ribs)):
        if not isinstance(section, list):
            raise TopologyError(f"{name} section must be a list, got {section!r}")

    nodes = []
    for entry in raw_nodes:
        try:
            nid = int(entry["id"])
            position = tuple(float(c) for c in entry["position"])
            kind = NodeKind(str(entry.get("kind", "void")).lower())
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise TopologyError(f"malformed node entry {entry!r}: {exc}") from exc
        nodes.append(Node(nid, position, kind))
    nodes.sort(key=lambda node: node.id)
    by_id = {node.id: node for node in nodes}
    if len(by_id) != len(nodes):
        raise TopologyError("duplicate node id in document")

    ribs = []
    for entry in raw_ribs:
        try:
            u, v = (int(e) for e in entry["endpoints"])
            for end in (u, v):
                if end not in by_id:
                    raise TopologyError(f"dangling rib endpoint {end}")
            length = entry.get("length")
            if length is None:
                length = math.dist(by_id[u].position, by_id[v].position)
            length = float(length)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise TopologyError(f"malformed rib entry {entry!r}: {exc}") from exc
        ribs.append(Rib(u, v, length))

    try:
        return Lattice(tuple(nodes), tuple(ribs), wavelength)
    except LatticeError as exc:
        raise TopologyError(str(exc)) from exc
