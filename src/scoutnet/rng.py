"""Per-trial random streams: splitmix64, one stream per trial.

Trial i of master seed m starts from the state s = ``mix(m + (i+1)*GAMMA
mod 2**64)`` and draws the splitmix64 sequence of that state (Steele, Lea
& Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014):
draw j is the 53-bit word k = ``mix(s + (j+1)*GAMMA mod 2**64) >> 11``,
where ``mix`` is the splitmix64 finalizer below and GAMMA the golden-ratio
constant.  Trials are therefore mutually independent, an ensemble's
statistics do not depend on the order in which trials execute, and draw
j does not depend on how many draws a caller asks for.  Word k stands
for the uniform u = k * ``_UNIT``, k * 2**-53 in [0, 1).

The draws are computed a block of trials at a time, in one generator,
``_draw_lanes``: one Python int holds one 128-bit lane per trial, and
each lane is masked to 64 bits before every multiply, so that no product
carries into the next lane.  A block mixes its trial states in one int,
then each row of its draws in an int of its own: row j, draw j of every
trial of the block, is the mixed states plus draw j's Weyl offset, mixed
again.  So an int holds one row, at most ``MAX_TRIALS`` lanes, however
many draws a trial takes; a block of one trial, ``run_trial``'s, pays
one mix per draw.  The states are built once per span and carried from
block to block, one lane-wise add of ``trials * GAMMA`` and a mask per
block.  A shifted lane holds its word in bits 0..52 and has bits 53..85
clear; above them are bits of the next lane.
Two readers share the generator.  ``trial_blocks`` unpacks the lanes,
little-endian on every host, into a block's words, draw-major for the
reverse half's column kernel: draw j of trial t is ``words[j * trials +
t]``.  A block holds the words, not their uniforms: a lottery places its
word among its word cuts, and the engine forms u only where the
confirmation walk draws.
``count_first_words`` unpacks nothing: it counts each trial's first word
against a lottery's sorted word cuts with a few whole-int operations per
cut on the block's one row, which bits 53..85 being clear allows.  A
trial of n draws gets a block of ``block_trials(n)`` trials: about
``BLOCK_DRAWS`` draws' worth, but at least ``MIN_TRIALS`` trials, where n
is large, and at most ``MAX_TRIALS``, where n is small.  The blocks cover
a span exactly: what is left after its full blocks is one shorter block.
No draw depends on the block it falls in.
"""

from __future__ import annotations

import struct
from operator import sub
from typing import Iterator, Sequence

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# the uniform of word k is k * _UNIT, exact for every k below 2**53
_UNIT = 2.0**-53
# draws per block: the reverse half's column kernel runs each lottery once
# per block, so a block must hold enough trials to spread its per-node
# Python calls, and mixing a row of draws costs about as much per lane at
# 32 lanes as at 256.  Counting 1000 trials of slit 7x9 (39 draw nodes; a
# 2-core Xeon, CPython 3.11.7, medians of 5 interleaved rounds, each the
# best of 7) took 13.4, 12.8, 12.1, 11.3, 11.4 and 11.2 ms in naive mode,
# and 14.2, 13.2, 12.4, 11.9, 12.0 and 12.1 ms in aggregate mode, in blocks
# of 32, 64, 96, 128, 192 and 256 trials; 5000 draws give it 128.  Drawing
# 1024 of its trials' 39 draws (medians of 11 rounds) took 6.6, 6.6, 6.9
# and 8.6 ms with a block's rows in one int, at 32, 64, 128 and 256
# trials, and 7.0, 6.9, 6.5 and 6.7 ms row by row
BLOCK_DRAWS = 5000
# the floor on a block's trials, for lattices of many draw nodes, set by
# their peak memory: counting 100 trials of grid 30x30 (column detectors,
# wavelength 0.73, 841 draw nodes; same box, aggregate mode, medians of 5
# rounds) took 104, 87 and 74 ms in blocks of 16, 32 and 64 trials, at a
# tracemalloc peak of 1.7, 3.2 and 5.6 MB; its one-int blocks of 32, before
# rows were mixed apart, peaked at 5.4 MB
MIN_TRIALS = 32
# the most trials in a block, the lanes of one row: counting the first
# words of 20000 trials of the 1,1,2 star (medians of 12 interleaved
# rounds, each the best of 15) took 0.32 us per trial in rows of 512 and
# 1024 lanes, 0.34 at 2048 and 0.38 at 4096
MAX_TRIALS = 1024


def _mix(z: int, mask: int) -> int:
    """The splitmix64 finalizer, applied to every 64-bit lane of ``z``;
    ``mask`` holds all ones in each lane's low 64 bits.  Each lane of the
    result holds its word in bits 0..63, has bits 64..96 clear, and holds
    bits shifted down from the next lane above them."""
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)


def check_seed(master_seed: int) -> None:
    """Raise ``ValueError`` unless the master seed lies in [0, 2**64)."""
    # the mix reduces the seed mod 2**64, so another value would silently
    # run some in-range seed's streams
    if not 0 <= master_seed <= _MASK:
        raise ValueError(f"master seed must lie in [0, 2**64), got {master_seed}")


def _ones(lanes: int) -> int:
    """An int of ``lanes`` lanes, each holding 1."""
    # built from bytes: summing shifted ints would take time quadratic in
    # the lane count
    return int.from_bytes((1).to_bytes(16, "little") * lanes, "little")


def block_trials(n: int) -> int:
    """The trials in a full block of trials of ``n`` draws each: about
    ``BLOCK_DRAWS`` draws, but no fewer than ``MIN_TRIALS`` trials and no
    more than ``MAX_TRIALS``."""
    return max(MIN_TRIALS, min(MAX_TRIALS, BLOCK_DRAWS // max(n, 1)))


def _draw_lanes(
    master_seed: int, n: int, start: int, stop: int
) -> Iterator[tuple[list[int], int]]:
    """The first ``n`` draws of trials ``start``..``stop - 1``, a block of
    trials at a time.  Each block is ``(rows, trials)``: row j, an int of
    ``trials`` lanes, holds draw j of each of the block's trials.  Lane t
    of row j holds draw j of the block's trial t, the top 53 bits of its
    splitmix64 word, in bits 0..52, and has bits 53..85 clear; the bits
    above them come from the next lane.  A block holds
    ``block_trials(n)`` trials, or the span's length if that is shorter;
    the span's remainder after its full blocks is one last, shorter
    block, so the blocks' trials sum to the span.

    A block mixes its trial states in one int, then each row in its own
    int: the mixed states plus the row's Weyl offset, mixed again.  The
    states are built once and carried from block to block: the next
    block starts ``trials`` trials later, so every lane adds ``trials *
    GAMMA`` and is masked.
    """
    check_seed(master_seed)
    trials = max(1, min(block_trials(n), stop - start))
    tail = (stop - start) % trials
    ones = _ones(trials)
    mask = _MASK * ones
    # lane t holds t, and t * _GOLDEN, below 2**128, carries into no other
    # lane
    ramp = struct.Struct("<" + "Q8x" * trials).pack(*range(trials))
    steps = _GOLDEN * int.from_bytes(ramp, "little") & mask
    advance = (trials * _GOLDEN & _MASK) * ones
    weyl = [((j + 1) * _GOLDEN & _MASK) * ones for j in range(n)]
    # lane t: the state of trial start + t, before its mix
    c = (master_seed + (start + 1) * _GOLDEN) & _MASK
    states = (c * ones + steps) & mask
    for _ in range((stop - start) // trials):
        # unmasked: adding the Weyl offset carries into bit 64 at most, and
        # the mask after the add clears what the next lane shifted down
        mixed = _mix(states, mask)
        yield [_mix((mixed + w) & mask, mask) >> 11 for w in weyl], trials
        states = (states + advance) & mask
    if tail:
        yield from _draw_lanes(master_seed, n, stop - tail, stop)


def trial_blocks(
    master_seed: int, n: int, start: int, stop: int
) -> Iterator[tuple[list[int], int]]:
    """The first ``n`` draws of trials ``start``..``stop - 1``, in the
    blocks of ``_draw_lanes``: each block is ``(words, trials)``, where
    draw j of the block's trial t is ``words[j * trials + t]``, the top 53
    bits of its splitmix64 word, an int in [0, 2**53).  Each row is
    unpacked on its own, and the rows' words joined in draw order."""
    unpack, size = None, 0
    for rows, trials in _draw_lanes(master_seed, n, start, stop):
        if trials != size:
            unpack, size = struct.Struct("<" + "Q8x" * trials).unpack, trials
        words: list[int] = []
        for w in rows:
            # each lane's low 64 bits hold its word
            words += unpack(w.to_bytes(16 * trials, "little"))
        yield words, trials


def count_first_words(
    master_seed: int, cuts: Sequence[int], start: int, stop: int
) -> list[int]:
    """How many of trials ``start``..``stop - 1`` have their first word w
    at each index ``bisect_right(cuts, w)``: a list of ``len(cuts) + 1``
    counts.  The cuts are sorted and lie in [0, 2**53].

    No word is unpacked.  Each lane of a block of ``_draw_lanes`` holds
    its word in bits 0..52 and has bits 53..85 clear, so adding ``2**53 -
    cut`` to every lane sets bit 53 of the lanes whose word is at least
    the cut, and carries no further; ``bit_count`` of the sum masked to
    bit 53 counts them.  A cut's lane constant is built once per block
    size.
    """
    above = [0] * len(cuts)
    size = 0
    for (w,), trials in _draw_lanes(master_seed, 1, start, stop):
        if trials != size:
            size = trials
            ones = _ones(trials)
            carry = ones << 53
            offsets = [((1 << 53) - cut) * ones for cut in cuts]
        for i, offset in enumerate(offsets):
            above[i] += ((w + offset) & carry).bit_count()
    return [*map(sub, [max(stop - start, 0), *above], [*above, 0])]
