"""The value classes: immutable tuples (and the ``Lattice`` slot class)
that survive the pickling the process pool ships them through."""

import pickle

import pytest

from conftest import canonical, live_pairs
from scoutnet.engine import Mode, count_winners, prepare
from scoutnet.experiments import run_ensemble
from scoutnet.lattice import Node, NodeKind, Rib, build_slit_grid, build_star


def round_trip(value):
    return pickle.loads(pickle.dumps(value))


@pytest.fixture(scope="module")
def slit_plan():
    return prepare(build_slit_grid(7, 9, (2, 6), wavelength=1.0))


@pytest.fixture(scope="module")
def ensemble():
    return run_ensemble(build_star(3, 2, [1.0, 1.0, 1.0]), Mode.AGGREGATE, 200, 7)


class TestPickling:
    def test_plan_and_its_lattice_survive(self, slit_plan):
        copy = round_trip(slit_plan)
        assert copy._replace(lattice=None) == slit_plan._replace(lattice=None)
        assert canonical(copy.lattice) == canonical(slit_plan.lattice)
        assert copy.lattice.adjacency == slit_plan.lattice.adjacency
        assert copy.lattice.source == slit_plan.lattice.source
        assert copy.lattice.detectors == slit_plan.lattice.detectors
        # the workers walk the forward DAG in its key order, unchecked
        assert list(copy.lattice.forward.items()) == list(
            slit_plan.lattice.forward.items()
        )
        assert set(live_pairs(copy)) == set(live_pairs(slit_plan))

    @pytest.mark.parametrize("mode", list(Mode))
    def test_unpickled_plan_counts_the_same_winners(self, slit_plan, mode):
        copy = round_trip(slit_plan)
        assert count_winners(copy, mode, 11, 0, 500) == count_winners(
            slit_plan, mode, 11, 0, 500
        )

    @pytest.mark.parametrize(
        "value", [Rib(2, 1, 1.0), Node(3, (1.0, 2.0), NodeKind.DETECTOR)]
    )
    def test_rib_and_node_survive(self, value):
        copy = round_trip(value)
        assert copy == value and type(copy) is type(value)

    def test_ensemble_result_survives(self, ensemble):
        assert round_trip(ensemble) == ensemble


class TestFields:
    def test_rib_sorts_its_endpoints(self):
        rib = Rib(2, 1, 1.0)
        assert rib.endpoints == (1, 2)
        assert (rib.a, rib.b, rib.length) == (1, 2, 1.0)

    def test_tuple_classes_refuse_assignment(self, slit_plan, ensemble):
        values = [
            (slit_plan, "draw_order"),
            (slit_plan.scout_report, "ticks"),
            (Rib(2, 1, 1.0), "a"),
            (Node(0, (0.0, 0.0)), "kind"),
            (ensemble, "trials"),
            (ensemble.reference, "entries"),
        ]
        for value, name in values:
            with pytest.raises(AttributeError):
                setattr(value, name, None)

    def test_lattice_refuses_assignment_and_deletion(self, slit_plan):
        lattice = slit_plan.lattice
        with pytest.raises(AttributeError):
            lattice.wavelength = 2.0
        with pytest.raises(AttributeError):
            del lattice.source
        assert lattice.wavelength == 1.0 and lattice.source == 0

    def test_lattice_compares_and_hashes_by_identity(self, slit_plan):
        lattice = slit_plan.lattice
        copy = round_trip(lattice)
        assert lattice == lattice and copy != lattice
        assert canonical(copy) == canonical(lattice)
        assert len({lattice, copy, lattice}) == 2
