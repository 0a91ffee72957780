import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    canonical,
    diamond_chain,
    nested_tree_lattice,
    random_layered_lattice,
    shuffle_node_ids,
    topology_document,
)
from scoutnet.errors import LatticeError, TopologyError
from scoutnet.lattice import (
    Lattice,
    Node,
    NodeKind,
    Rib,
    build_grid,
    build_intensity_star,
    build_slit_grid,
    build_star,
    build_two_path,
    load_topology,
)


class TestRib:
    def test_endpoints_are_normalized(self):
        assert Rib(3, 1, 2.0) == Rib(1, 3, 2.0)

    def test_self_loop_rejected(self):
        with pytest.raises(LatticeError, match="self-loop"):
            Rib(2, 2, 1.0)

    @pytest.mark.parametrize("length", [0.0, -1.0, float("nan")])
    def test_bad_length_rejected(self, length):
        with pytest.raises(LatticeError):
            Rib(0, 1, length)


class TestValidation:
    def test_missing_source(self):
        nodes = (Node(0, (0.0, 0.0)), Node(1, (1.0, 0.0), NodeKind.DETECTOR))
        with pytest.raises(LatticeError, match="missing Source"):
            Lattice(nodes, (Rib(0, 1, 1.0),), 1.0)

    def test_duplicate_rib(self):
        nodes = (
            Node(0, (0.0, 0.0), NodeKind.SOURCE),
            Node(1, (1.0, 0.0), NodeKind.DETECTOR),
        )
        with pytest.raises(LatticeError, match="duplicate rib"):
            Lattice(nodes, (Rib(0, 1, 1.0), Rib(1, 0, 1.0)), 1.0)

    def test_unreachable_detector(self):
        nodes = (
            Node(0, (0.0, 0.0), NodeKind.SOURCE),
            Node(1, (1.0, 0.0), NodeKind.DETECTOR),
            Node(2, (2.0, 0.0), NodeKind.DETECTOR),
        )
        with pytest.raises(LatticeError, match="unreachable"):
            Lattice(nodes, (Rib(0, 1, 1.0),), 1.0)

    def test_non_dense_ids(self):
        nodes = (
            Node(0, (0.0, 0.0), NodeKind.SOURCE),
            Node(2, (1.0, 0.0), NodeKind.DETECTOR),
        )
        with pytest.raises(LatticeError, match="dense"):
            Lattice(nodes, (), 1.0)


class TestStar:
    def test_minimal_case(self):
        lat = build_star(1, 1, [1.0])
        assert len(lat.nodes) == 2
        assert len(lat.ribs) == 1

    def test_three_arm_counts(self):
        lat = build_star(3, 2, [1.0, 1.0, 1.0])
        assert len(lat.nodes) == 7
        assert len(lat.ribs) == 6
        assert len(lat.detectors) == 3

    def test_arm_lengths_echoed(self):
        lat = build_star(2, 1, [0.5, 0.25])
        lengths = sorted(rib.length for rib in lat.ribs)
        assert lengths == [0.25, 0.5]

    def test_zero_detectors_rejected(self):
        with pytest.raises(LatticeError, match="at least one detector"):
            build_star(0, 1, [])

    def test_non_positive_length_rejected(self):
        with pytest.raises(LatticeError, match="non-positive"):
            build_star(1, 1, [-2.0])

    @given(
        n=st.integers(min_value=1, max_value=6),
        hops=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_node_and_rib_counts(self, n, hops):
        lat = build_star(n, hops, [1.0] * n)
        assert len(lat.nodes) == 1 + n * hops
        assert len(lat.ribs) == n * hops

    def test_rib_lengths_match_euclidean(self):
        lat = build_star(4, 3, [0.7, 1.1, 2.0, 0.4])
        for rib in lat.ribs:
            euclid = math.dist(lat.nodes[rib.a].position, lat.nodes[rib.b].position)
            assert abs(rib.length - euclid) < 1e-9


class TestIntensityStar:
    @pytest.mark.parametrize("targets", [[1.0], [1.0, 1.0, 2.0], [0.5, 3.9]])
    def test_arm_lengths_realize_targets(self, targets):
        from scoutnet import oracle

        lat = build_intensity_star(targets)
        amps = oracle.lattice_amplitudes(lat)
        got = sorted(abs(a) ** 2 for a in amps.values())
        assert got == pytest.approx(sorted(targets), abs=1e-9)

    def test_out_of_range_intensity_rejected(self):
        with pytest.raises(LatticeError, match="realisable range"):
            build_intensity_star([4.5])


class TestTwoPath:
    def test_equal_paths(self):
        lat = build_two_path(2.0, 2.0, 2)
        assert len(lat.detectors) == 1
        totals = sorted(
            sum(r.length for r in lat.ribs if set(r.endpoints) & side)
            for side in ({2}, {3})
        )
        assert totals == pytest.approx([2.0, 2.0])

    def test_path_lengths_echoed(self):
        lat = build_two_path(2.0, 2.5, 2)
        total = sum(r.length for r in lat.ribs)
        assert total == pytest.approx(4.5)

    def test_single_hop_gets_midpoints(self):
        # one-rib chains would be parallel edges; midpoint voids are inserted
        lat = build_two_path(1.0, 1.0, 1)
        assert len(lat.nodes) == 4
        assert len(lat.ribs) == 4

    def test_non_positive_rejected(self):
        with pytest.raises(LatticeError):
            build_two_path(-1.0, 1.0, 2)

    def test_rib_lengths_match_euclidean(self):
        lat = build_two_path(3.0, 2.2, 4)
        for rib in lat.ribs:
            euclid = math.dist(lat.nodes[rib.a].position, lat.nodes[rib.b].position)
            assert abs(rib.length - euclid) < 1e-9


class TestSlitGrid:
    def test_all_rows_blocked_rejected(self):
        with pytest.raises(LatticeError, match="blocks every row"):
            build_slit_grid(3, 9, [])

    def test_screen_nodes_are_detectors(self):
        lat = build_slit_grid(3, 9, [2, 6], screen_detectors=5)
        assert len(lat.detectors) == 5

    def test_blocked_rows_removed(self):
        lat = build_slit_grid(3, 5, [2])
        barrier_x = 4.0
        barrier_nodes = [n for n in lat.nodes if n.position[0] == barrier_x]
        assert len(barrier_nodes) == 1


class TestGrid:
    def test_corner_detector(self):
        lat = build_grid(3, 3, "corner")
        assert len(lat.nodes) == 9
        assert len(lat.detectors) == 1

    def test_column_detectors(self):
        lat = build_grid(3, 3, "column")
        assert len(lat.detectors) == 3


def reference_forward(lat: Lattice) -> dict[int, tuple[tuple[int, float], ...]]:
    """The admissible DAG rebuilt from ``nodes`` and ``ribs`` alone, with
    neither ``hop_distances`` nor ``adjacency``.

    Hop counts come layer by layer, each layer found by a scan of every
    rib for an end in the last layer that passes a scout on (the source
    or a void node).  Then every rib is oriented from its passing end
    with hop h to an end with hop h + 1, and the children are sorted.
    """
    kinds = [node.kind for node in lat.nodes]
    (source,) = [i for i, kind in enumerate(kinds) if kind is NodeKind.SOURCE]
    hop = {source: 0}
    layer, depth = {source}, 0
    while layer:
        depth += 1
        layer = {
            v
            for rib in lat.ribs
            for u, v in ((rib.a, rib.b), (rib.b, rib.a))
            if u in layer and kinds[u] is not NodeKind.DETECTOR and v not in hop
        }
        hop.update(dict.fromkeys(layer, depth))
    passing = [u for u in hop if kinds[u] is not NodeKind.DETECTOR]
    dag: dict[int, list[tuple[int, float]]] = {
        u: [] for u in sorted(passing, key=lambda u: (hop[u], u))
    }
    for rib in lat.ribs:
        for u, v in ((rib.a, rib.b), (rib.b, rib.a)):
            if u in dag and hop.get(v) == hop[u] + 1:
                dag[u].append((v, rib.length))
    return {u: tuple(sorted(kids)) for u, kids in dag.items()}


def sideways_lattice() -> Lattice:
    """Source 0 to voids 1 and 2, which a rib joins within their layer,
    and both to detector 3; void 4 hangs past the detector, where no
    scout goes."""
    nodes = [
        Node(0, (0.0, 0.0), NodeKind.SOURCE),
        Node(1, (1.0, 1.0)),
        Node(2, (1.0, -1.0)),
        Node(3, (2.0, 0.0), NodeKind.DETECTOR),
        Node(4, (3.0, 0.0)),
    ]
    ribs = [Rib(0, 1, 1.5), Rib(0, 2, 1.4), Rib(1, 2, 2.0), Rib(1, 3, 1.5),
            Rib(2, 3, 1.4), Rib(3, 4, 1.0)]  # fmt: skip
    return Lattice(nodes, ribs, 1.0)


class TestForwardDag:
    def test_sideways_and_past_detector_ribs_are_not_admissible(self):
        lat = sideways_lattice()
        assert list(lat.forward.items()) == [
            (0, ((1, 1.5), (2, 1.4))),
            (1, ((3, 1.5),)),
            (2, ((3, 1.4),)),
        ]

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: build_star(3, 2, [1.0, 0.5, 2.0]),
            lambda: build_intensity_star([1.0, 2.0, 3.5]),
            lambda: build_two_path(2.0, 2.5, 3),
            lambda: build_slit_grid(5, 6, [1, 4]),
            lambda: build_grid(5, 4, "corner"),
            lambda: build_grid(4, 5, "column"),
            lambda: nested_tree_lattice()[0],
            lambda: diamond_chain(3),
            sideways_lattice,
        ],
    )
    def test_builders_match_the_reference(self, factory):
        lat = factory()
        assert list(lat.forward.items()) == list(reference_forward(lat).items())

    def test_random_lattices_match_the_reference(self):
        rng = random.Random(32)
        off_id_order = 0
        for i in range(60):
            lat = random_layered_lattice(rng)
            if i % 2:
                lat = shuffle_node_ids(lat, rng)[0]
                off_id_order += list(lat.forward) != sorted(lat.forward)
            assert list(lat.forward.items()) == list(reference_forward(lat).items())
        assert off_id_order >= 20


CHAIN_DOC = """
wavelength: 1.0
nodes:
- {id: 0, position: [0.0, 0.0], kind: source}
- {id: 1, position: [1.0, 0.0], kind: void}
- {id: 2, position: [2.0, 0.0], kind: detector}
ribs:
- {endpoints: [0, 1]}
- {endpoints: [1, 2], length: 1.0}
"""


class TestTopologyDocuments:
    def test_valid_chain(self):
        lat = load_topology(CHAIN_DOC)
        assert len(lat.ribs) == 2
        # omitted length defaults to Euclidean distance
        assert lat.ribs[0].length == pytest.approx(1.0)

    def test_dangling_endpoint(self):
        doc = CHAIN_DOC.replace("[1, 2]", "[1, 9]")
        with pytest.raises(TopologyError, match="dangling rib endpoint 9"):
            load_topology(doc)

    def test_missing_wavelength(self):
        doc = CHAIN_DOC.replace("wavelength: 1.0", "")
        with pytest.raises(TopologyError, match="missing wavelength"):
            load_topology(doc)

    def test_missing_source(self):
        doc = CHAIN_DOC.replace("kind: source", "kind: void")
        with pytest.raises(TopologyError, match="missing Source"):
            load_topology(doc)

    def test_unknown_node_kind_rejected(self):
        doc = CHAIN_DOC.replace("kind: void", "kind: laser")
        with pytest.raises(TopologyError, match="laser"):
            load_topology(doc)

    def test_repeated_key_rejected(self):
        doc = CHAIN_DOC.replace("wavelength: 1.0", "wavelength: 1.0\nwavelength: 2.0")
        with pytest.raises(TopologyError, match="repeats key 'wavelength'"):
            load_topology(doc)

    @pytest.mark.parametrize(
        "old,new",
        [
            ("id: 1,", "id: 1.9,"),
            ("id: 1,", "id: '1',"),
            ("id: 1,", "id: true,"),
            ("[0, 1]", "[0.7, 1]"),
            ("[0, 1]", "'01'"),
            ("position: [0.0, 0.0]", "position: '00'"),
        ],
    )
    def test_id_endpoints_and_position_are_not_coerced(self, old, new):
        # each once loaded as the well-formed value it resembles
        with pytest.raises(TopologyError, match=r"is not (int|list)$"):
            load_topology(CHAIN_DOC.replace(old, new))

    @pytest.mark.parametrize(
        "old,new,named",
        [
            ("wavelength: 1.0", "wavelength: true", "True"),
            ("wavelength: 1.0", "wavelength: '1.5'", "'1.5'"),
            ("position: [1.0, 0.0]", "position: [true, '0']", "True"),
            ("length: 1.0}", "length: '2'}", "'2'"),
            ("length: 1.0}", "length: true}", "True"),
            # PyYAML reads an exponent without a dot as text
            ("wavelength: 1.0", "wavelength: 1e-3", "'1e-3'"),
        ],
    )
    def test_numbers_are_not_coerced(self, old, new, named):
        # each once loaded as the float it resembles
        with pytest.raises(TopologyError, match="not a number") as info:
            load_topology(CHAIN_DOC.replace(old, new))
        assert named in str(info.value)
        if named.startswith("'"):
            assert "1.0e-3" in str(info.value)

    def test_infinite_length_is_a_topology_error(self):
        doc = CHAIN_DOC.replace("length: 1.0}", "length: .inf}")
        with pytest.raises(TopologyError, match="positive and finite: inf"):
            load_topology(doc)

    def test_tiny_and_huge_floats_round_trip(self):
        # topology_document writes 1e-05 as 1.0e-05, which PyYAML reads as
        # a float
        lat = load_topology(CHAIN_DOC)
        nodes = tuple(
            node._replace(position=(i * 1e-5, 1e300)) for i, node in enumerate(lat.nodes)
        )
        ribs = (Rib(0, 1, 1e-5), Rib(1, 2, 1e300))
        tiny = Lattice(nodes, ribs, 1e-5)
        doc = topology_document(tiny)
        assert "1.0e-05" in doc and "1.0e+300" in doc
        assert canonical(load_topology(doc)) == canonical(tiny)

    def test_readme_example_loads_as_written(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = re.search(r"```yaml\n(.*?)```", readme, re.S).group(1)
        lat = load_topology(block)
        assert lat.source == 0 and lat.detectors == (2,)
        assert [r.length for r in lat.ribs] == pytest.approx([1.0, 1.5])

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: build_star(3, 2, [1.0, 0.5, 2.0]),
            lambda: build_two_path(2.0, 2.5, 3),
            lambda: build_slit_grid(3, 5, [1, 3]),
            lambda: build_grid(3, 3, "column"),
            lambda: build_intensity_star([1.0, 2.0]),
        ],
    )
    def test_round_trip(self, factory):
        lat = factory()
        assert canonical(load_topology(topology_document(lat))) == canonical(lat)

    def test_round_trip_random_lattices(self):
        rng = random.Random(7)
        for _ in range(10):
            lat = random_layered_lattice(rng)
            assert canonical(load_topology(topology_document(lat))) == canonical(lat)
