"""scoutnet: deterministic scout/query/lottery protocol simulation on lattices."""

from .engine import Mode, TrialOutcome, run_trial
from .lattice import (
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
from .oracle import born_distribution, enumerate_paths

__all__ = [
    "Mode",
    "TrialOutcome",
    "run_trial",
    "Lattice",
    "Node",
    "NodeKind",
    "Rib",
    "build_grid",
    "build_intensity_star",
    "build_slit_grid",
    "build_star",
    "build_two_path",
    "load_topology",
    "born_distribution",
    "enumerate_paths",
]

__version__ = "0.1.0"
