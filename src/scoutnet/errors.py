"""Exception hierarchy shared by all scoutnet modules."""

DEFAULT_PATH_BUDGET = 1_000_000
"""Rib visits the oracle's path walk may make before ``PathBudgetError``."""


class ScoutnetError(Exception):
    """Base class for every error raised by this package."""


class LatticeError(ScoutnetError):
    """A lattice violates a structural invariant (builder or loader)."""


class TopologyError(LatticeError):
    """A topology document failed to parse or validate."""


class PathBudgetError(ScoutnetError):
    """The oracle's path enumeration crossed more ribs than its budget.

    ``count`` is the first rib visit past ``budget``.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.count = budget + 1
        super().__init__(
            f"path budget exceeded: {self.count} rib visits with budget {budget}"
        )


class DarkTrialError(ScoutnetError):
    """Every detector interfered to (near) zero intensity; no selection possible."""


class DeadlockError(ScoutnetError):
    """The exact lottery enumerator met a cycle in its reverse routes.

    The engine never raises it: its trace graph follows the hop distance,
    which every forward rib raises by one."""


class ConfigError(ScoutnetError):
    """A run configuration is malformed or incomplete."""
