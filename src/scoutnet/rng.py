"""Seed derivation for per-trial random streams.

Every trial draws from its own ``random.Random`` seeded by a splitmix64
mix of ``(master_seed, trial_index)``.  Trials are therefore mutually
independent and an ensemble's statistics do not depend on the order in
which trials execute.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """splitmix64 finalizer applied to master_seed + (index+1)*golden-ratio.

    The master seed must lie in [0, 2**64): the mix reduces it mod 2**64,
    so another value would silently run some in-range seed's stream.
    """
    if not 0 <= master_seed <= _MASK:
        raise ValueError(f"master seed must lie in [0, 2**64), got {master_seed}")
    z = (master_seed + (trial_index + 1) * _GOLDEN) & _MASK
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return (z ^ (z >> 31)) & _MASK

