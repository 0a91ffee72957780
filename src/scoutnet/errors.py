"""Exception hierarchy shared by all scoutnet modules."""

DEFAULT_PATH_BUDGET = 1_000_000
"""Rib visits the oracle's path walk may make before ``PathBudgetError``."""

DEFAULT_CLASS_BUDGET = 2_000_000
"""Class updates the oracle's class sum may make before ``PathBudgetError``.
Slit 12x9 needs 1.3M; slit 30x9 reaches the budget in about a second, with
the process at about 60 MB."""


class ScoutnetError(Exception):
    """Base class for every error raised by this package."""


class LatticeError(ScoutnetError):
    """A lattice violates a structural invariant (builder or loader)."""


class TopologyError(LatticeError):
    """A topology document failed to parse or validate."""


class PathBudgetError(ScoutnetError):
    """A sum over paths needed more work than its budget.

    ``unit`` names what the budget counts: the path walk's rib visits or
    the class sum's class updates.  ``count`` is the first one past
    ``budget``.
    """

    def __init__(self, budget: int, unit: str):
        self.budget = budget
        self.count = budget + 1
        super().__init__(
            f"path budget exceeded: {self.count} {unit} with budget {budget}"
        )


class DarkTrialError(ScoutnetError):
    """Every detector interfered to (near) zero intensity; no selection possible."""


class ConfigError(ScoutnetError):
    """A run configuration is malformed or incomplete."""
