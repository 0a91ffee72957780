"""Physical time from counted events: the queue clock and the dilation factor.

A detector co-located with a laser-fed counter measures the flight time
of a probe signal as the number of laser scouts absorbed while the probe
is in transit.  All signals move one rib per hidden tick at the same
hidden speed, so the count is proportional to the source distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class ClockScenario:
    """Chain distances in hops and the laser emission cadence in ticks."""

    source_distance: int
    laser_distance: int
    laser_cadence: int

    def __post_init__(self):
        if self.source_distance < 1:
            raise ConfigError("source_distance must be >= 1 hop")
        if self.laser_distance < 1:
            raise ConfigError("laser_distance must be >= 1 hop")
        if self.laser_cadence < 1:
            raise ConfigError("laser_cadence must be >= 1 tick")


def queue_clock_count(scenario: ClockScenario) -> int:
    """Count laser scouts queued at the detector during the probe's flight.

    The probe scout departs at tick 0 and arrives at tick ``source_distance``;
    the laser emits at ticks 0, m, 2m, ...  Arrivals are counted over the
    half-open interval (0, source_distance]: the synchronization tick is
    excluded, the probe's own arrival tick included.  Emission k arrives at
    ``k*m + d_l >= 1``, so the count is the number of k >= 0 with
    ``k*m + d_l <= source_distance``.
    """
    d_s = scenario.source_distance
    d_l = scenario.laser_distance
    m = scenario.laser_cadence
    return max(0, (d_s - d_l) // m + 1)


def dilation_time(tau: float, v: float) -> float:
    """Physical time for one light pass of a clock moving at speed v (units of c).

    From c^2 t^2 = v^2 t^2 + c^2 tau^2: t = tau / sqrt(1 - v^2).
    """
    if not (tau > 0):
        raise ConfigError(f"proper time must be positive, got {tau}")
    if not (0.0 <= v < 1.0):
        raise ConfigError(f"speed must be in [0, 1), got {v}")
    return tau / math.sqrt(1.0 - v * v)
