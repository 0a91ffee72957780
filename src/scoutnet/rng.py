"""Per-trial random streams: splitmix64, one stream per trial.

Trial i of master seed m starts from the state s = ``mix(m + (i+1)*GAMMA
mod 2**64)`` and draws the splitmix64 sequence of that state (Steele, Lea
& Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014):
draw j is ``mix(s + (j+1)*GAMMA mod 2**64) >> 11``, times 2**-53, where
``mix`` is the splitmix64 finalizer below and GAMMA the golden-ratio
constant.  Trials are therefore mutually independent, an ensemble's
statistics do not depend on the order in which trials execute, and draw
j does not depend on how many draws a caller asks for.  ``trial_blocks``
is the only way the package draws.

The draws are computed a block of trials at a time: one Python int holds one
128-bit lane per trial state, or per draw, each lane is masked to 64
bits before every multiply, so that no product carries into the next
lane, and the lanes are unpacked little-endian on every host.  A block
lies draw-major, for the reverse half's column kernel: draw j of trial t
is ``floats[j * trials + t]``.  A trial of n draws gets a block of
``max(MIN_TRIALS, BLOCK_DRAWS // n)`` trials, so a block holds about
``BLOCK_DRAWS`` draws, or ``MIN_TRIALS`` trials' worth when n is large.
The blocks cover a span exactly: what is left after its full blocks is
one shorter block.  No draw depends on the block it falls in.
"""

from __future__ import annotations

import struct
from itertools import repeat
from operator import mul
from typing import Iterable, Iterator

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_UNIT = 2.0**-53
# draws per block: the reverse half's column kernel runs each lottery once
# per block, so a block must hold enough trials to spread its per-node
# Python calls; counting 20480 trials of the 1,1,2 star (a 2-core Xeon,
# CPython 3.11, medians of 40 interleaved runs) took 0.74 us per trial at
# 1024, 0.76 at 512 and 2048, and 0.80 at 256 and 4096
BLOCK_DRAWS = 1024
# the floor on a block's trials, for lattices of many draw nodes: on grid
# 30x30 (841 draw nodes) blocks of 16 trials counted winners about as
# fast as the former per-trial kernel, blocks of 32 about 5-25 % faster,
# at a tracemalloc peak of 3.1 and 6.3 MB
MIN_TRIALS = 32


def _mix(z: int, mask: int) -> int:
    """The splitmix64 finalizer, applied to every 64-bit lane of ``z``;
    ``mask`` holds all ones in each lane's low 64 bits.  Each lane of the
    result holds its word in its low 64 bits and, above them, bits shifted
    down from the next lane."""
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)


def check_seed(master_seed: int) -> None:
    """Raise ``ValueError`` unless the master seed lies in [0, 2**64)."""
    # the mix reduces the seed mod 2**64, so another value would silently
    # run some in-range seed's streams
    if not 0 <= master_seed <= _MASK:
        raise ValueError(f"master seed must lie in [0, 2**64), got {master_seed}")


def _lanes(values: Iterable[int], copies: int = 1) -> int:
    """One lane per value, each value ``copies`` times in a row."""
    # built from bytes: summing shifted ints would take time quadratic in
    # the lane count
    lanes = b"".join(v.to_bytes(16, "little") * copies for v in values)
    return int.from_bytes(lanes, "little")


def trial_blocks(
    master_seed: int, n: int, start: int, stop: int
) -> Iterator[tuple[list[float], int]]:
    """The first ``n`` draws of trials ``start``..``stop - 1``, a block of
    trials at a time: each block is ``(floats, trials)``, where draw j of
    the block's trial t is ``floats[j * trials + t]``, a float in [0, 1),
    ``k * 2**-53`` with k the word's top 53 bits.  A block holds
    ``max(MIN_TRIALS, BLOCK_DRAWS // n)`` trials, or the span's length if
    that is shorter; the span's remainder after its full blocks is one
    last, shorter block, so the blocks' trials sum to the span.

    A block mixes its trial states in one int, copies that int once per
    draw, adds each draw's Weyl offset and mixes again.
    """
    check_seed(master_seed)
    trials = max(1, min(max(MIN_TRIALS, BLOCK_DRAWS // max(n, 1)), stop - start))
    tail = (stop - start) % trials
    ones = _lanes([1], trials)
    state_mask = _MASK * ones
    # lane t holds t, and t * _GOLDEN, below 2**128, carries into no other
    # lane
    ramp = struct.Struct("<" + "Q8x" * trials).pack(*range(trials))
    steps = _GOLDEN * int.from_bytes(ramp, "little") & state_mask
    weyl = _lanes(((j + 1) * _GOLDEN & _MASK for j in range(n)), trials)
    draw_mask = _lanes([_MASK], trials * n)
    unpack = struct.Struct("<" + "Q8x" * (trials * n)).unpack
    size = 16 * trials
    for first in range(start, stop - tail, trials):
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
        yield [*map(mul, repeat(_UNIT), words)], trials
    if tail:
        yield from trial_blocks(master_seed, n, stop - tail, stop)
