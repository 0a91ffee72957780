"""Per-trial random streams: splitmix64, one stream per trial.

Trial i of master seed m starts from the state s = ``derive_trial_seed(m,
i)`` and draws the splitmix64 sequence of that state (Steele, Lea &
Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014):
draw j is ``mix(s + (j+1)*GAMMA mod 2**64) >> 11``, times 2**-53, where
``mix`` is the splitmix64 finalizer below.  Trials are therefore mutually
independent, an ensemble's statistics do not depend on the order in which
trials execute, and draw j does not depend on how many draws a caller
asks for.

Draws are computed per block of trials, not per trial: one Python int
holds one 128-bit lane per trial state, or per draw, each lane is masked
to 64 bits before every multiply, so that no product carries into the
next lane, and the lanes are unpacked little-endian on every host.  A
block holds about ``BLOCK_DRAWS`` draws; no draw depends on the block it
falls in.
"""

from __future__ import annotations

import struct
from itertools import repeat
from operator import mul
from typing import Iterable, Iterator, Protocol

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_UNIT = 2.0**-53
# draws per block: big enough to spread the per-block Python calls over
# many trials, small enough that the block's ints stay cheap to allocate
# (about 80 KB at the peak; four times as many draws take 300 KB and no
# less time)
BLOCK_DRAWS = 256


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
    """What a lottery draws from: a trial's stream, or a test's stand-in."""

    def random(self) -> float: ...


class _Stream:
    __slots__ = ("random",)


def _lanes(values: Iterable[int]) -> int:
    # built from bytes: summing shifted ints would take time quadratic in
    # the lane count
    return int.from_bytes(b"".join(v.to_bytes(16, "little") for v in values), "little")


def trial_streams(master_seed: int, n: int, start: int, stop: int) -> Iterator[Draws]:
    """The streams of trials ``start``..``stop - 1``, in order, each holding
    its trial's first ``n`` draws: ``random()`` returns them as floats in
    [0, 1), each ``k * 2**-53`` with k the word's top 53 bits, then raises
    ``StopIteration``.  One object is yielded for every trial, so it holds
    a trial's draws only until the next is yielded.

    A block of ``max(1, BLOCK_DRAWS // n)`` trials (fewer if the span is
    shorter) mixes its trial states in one int, copies that int once per
    draw, adds each draw's Weyl offset and mixes again.  Its draws lie
    draw-major: trial t takes every ``trials``-th float from the t-th on.
    """
    _check(master_seed)
    trials = max(1, min(BLOCK_DRAWS // max(n, 1), stop - start))
    ones = _lanes(repeat(1, trials))
    state_mask = _MASK * ones
    steps = _lanes(t * _GOLDEN & _MASK for t in range(trials))
    weyl = _lanes((j + 1) * _GOLDEN & _MASK for j in range(n) for _ in range(trials))
    draw_mask = _lanes(repeat(_MASK, trials * n))
    unpack = struct.Struct("<" + "Q8x" * (trials * n)).unpack
    size = 16 * trials
    stream = _Stream()
    for first in range(start, stop, trials):
        # lane t: the state of trial first + t
        c = (master_seed + (first + 1) * _GOLDEN) & _MASK
        states = _mix((c * ones + steps) & state_mask, state_mask) & state_mask
        # lane j * trials + t: draw j of trial first + t
        copies = states.to_bytes(size, "little") * n
        z = _mix((int.from_bytes(copies, "little") + weyl) & draw_mask, draw_mask)
        # bits 64..74 of every lane are clear, so after the shift each
        # lane's low 64 bits hold the top 53 bits of its word
        words = unpack((z >> 11).to_bytes(size * n, "little"))
        # ``mul`` takes a fast call, ``_UNIT.__mul__`` builds an argument
        # tuple per draw
        floats = [*map(mul, repeat(_UNIT), words)]
        for t in range(min(trials, stop - first)):
            stream.random = iter(floats[t::trials]).__next__
            yield stream
