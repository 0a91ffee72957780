"""Per-trial random streams: splitmix64, one stream per trial.

Trial i of master seed m starts from the state s = ``derive_trial_seed(m,
i)`` and draws the splitmix64 sequence of that state (Steele, Lea &
Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014):
draw j is ``mix(s + (j+1)*GAMMA mod 2**64) >> 11``, times 2**-53, where
``mix`` is the splitmix64 finalizer below.  Trials are therefore mutually
independent, an ensemble's statistics do not depend on the order in which
trials execute, and draw j does not depend on how many draws a caller
asks for.

Draw j depends on j only through its Weyl offset, so ``TrialStream``
computes a trial's first n draws at once: one Python int holds one
128-bit lane per draw, each lane is masked to 64 bits before every
multiply, so that no product carries into the next lane, and the lanes
are unpacked little-endian on every host.
"""

from __future__ import annotations

import struct
from itertools import repeat
from operator import mul
from typing import Protocol

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_UNIT = 2.0**-53


def _mix(z: int, mask: int) -> int:
    """The splitmix64 finalizer, applied to every 64-bit lane of ``z``;
    ``mask`` holds all ones in each lane's low 64 bits.  Each lane of the
    result holds its word in its low 64 bits and, above them, bits shifted
    down from the next lane."""
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)


def _check(master_seed: int) -> None:
    # the mix reduces the seed mod 2**64, so another value would silently
    # run some in-range seed's streams
    if not 0 <= master_seed <= _MASK:
        raise ValueError(f"master seed must lie in [0, 2**64), got {master_seed}")


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """splitmix64 finalizer applied to master_seed + (index+1)*golden-ratio:
    the state trial ``trial_index``'s stream starts from.  The master seed
    must lie in [0, 2**64)."""
    _check(master_seed)
    return _mix((master_seed + (trial_index + 1) * _GOLDEN) & _MASK, _MASK)


class Draws(Protocol):
    """What a lottery draws from: a ``TrialStream``, or a test's stand-in."""

    def random(self) -> float: ...


class TrialStream:
    """The first ``n`` draws of every trial's stream under one master seed.

    The lane constants are built once; ``seek(i)`` computes trial i's n
    words and returns the stream, whose ``random()`` then returns them in
    order as floats in [0, 1), each ``k * 2**-53`` with k the word's top
    53 bits, and raises ``StopIteration`` after the n-th.
    """

    __slots__ = ("random", "_master", "_ones", "_weyl", "_mask", "_unpack", "_size")

    def __init__(self, master_seed: int, n: int) -> None:
        _check(master_seed)
        self._master = master_seed
        # built from bytes: summing shifted ints would take time quadratic in n
        lanes = (((j + 1) * _GOLDEN & _MASK).to_bytes(16, "little") for j in range(n))
        self._weyl = int.from_bytes(b"".join(lanes), "little")
        self._ones = int.from_bytes((b"\x01" + bytes(15)) * n, "little")
        self._mask = _MASK * self._ones
        self._unpack = struct.Struct("<" + "Q8x" * n).unpack
        self._size = 16 * n

    def seek(self, trial_index: int) -> TrialStream:
        s = _mix((self._master + (trial_index + 1) * _GOLDEN) & _MASK, _MASK)
        z = _mix((s * self._ones + self._weyl) & self._mask, self._mask)
        # bits 64..74 of every lane are clear, so after the shift each
        # lane's low 64 bits hold the top 53 bits of its word
        words = self._unpack((z >> 11).to_bytes(self._size, "little"))
        # scaled in C as drawn; ``mul`` takes a fast call, ``_UNIT.__mul__``
        # builds an argument tuple per draw
        self.random = map(mul, repeat(_UNIT), words).__next__
        return self
