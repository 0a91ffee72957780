"""Exception hierarchy shared by all scoutnet modules."""

DEFAULT_PATH_BUDGET = 1_000_000
"""Fronts (engine) or rib visits (oracle) allowed before ``PathBudgetError``."""


class ScoutnetError(Exception):
    """Base class for every error raised by this package."""


class LatticeError(ScoutnetError):
    """A lattice violates a structural invariant (builder or loader)."""


class TopologyError(LatticeError):
    """A topology document failed to parse or validate."""


class PathBudgetError(ScoutnetError):
    """Admissible path enumeration exceeded the configured budget.

    ``count`` is the first count past ``budget`` and ``unit`` names what was
    counted: the engine's scout fronts or the oracle's rib visits.
    """

    def __init__(self, budget: int, count: int, unit: str):
        super().__init__(f"path budget exceeded: {count} {unit} with budget {budget}")
        self.budget = budget
        self.count = count


class DarkTrialError(ScoutnetError):
    """Every detector interfered to (near) zero intensity; no selection possible."""


class DeadlockError(ScoutnetError):
    """The reverse-query barrier can never be satisfied (cyclic trace graph)."""


class ConfigError(ScoutnetError):
    """A run configuration is malformed or incomplete."""
