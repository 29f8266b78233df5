"""Deterministic, counter-splittable PRNG for reproducible experiments.

Every random draw in this package (stego position selection, channel noise,
experiment data/messages) comes from SplitMix64 so that two independent
implementations given the same seeds produce bit-identical traces.

The scheme, fixed here for interoperability:

* ``mix64`` is the SplitMix64 finalizer (Steele/Lea/Flood constants).
* A stream seeded with ``s`` outputs ``mix64(s + i * GOLDEN)`` for
  i = 1, 2, ... (the state advances by the 64-bit golden ratio).
* Substream ``i`` of seed ``s`` is a new stream seeded with
  ``fork(s, i) = mix64(s + (i + 1) * GOLDEN)``.
* A bounded draw is ``next_u64() % bound``, whose modulo bias is below
  bound / 2^64.  A power-of-two bound up to 2^64 has none; every other
  bound used here is at most n*m = 1,048,560 < 2^20 (``single_bit`` at
  m = 16), so its bias is below 2^-44.

The values are the contract, not the way they are computed.  Draw i of a
stream seeded with s depends on s + i * GOLDEN alone, so
``SplitMix64.draws`` computes the next ``count`` draws of a stream at
state t in one pass over a big int (SIMD within a register, Warren's
*Hacker's Delight*): the j-th of them, j = 1 .. count, sits in lane j - 1,
128 bits wide, which starts as t + j * GOLDEN.  There is one finalizer,
``_finalize``.  It takes lanes that already hold 64-bit values and masks
every lane to its low 64 bits before each multiply and at the end; 64 bits
of headroom keep a 64 x 64-bit product inside its lane.  ``mix64``,
``fork`` and ``next_u64`` are its one-lane case, on values they mask
themselves.  The lanes are then read back as ``below`` would reduce them,
so ``draws`` returns exactly the values of ``count`` calls of ``below``
and leaves the same state.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def _finalize(z: int, mask: int) -> int:
    """The SplitMix64 finalizer on every lane of z that mask keeps; each
    lane must already hold a value below 2^64."""
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    return (z ^ (z >> 31)) & mask


def mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanche one 64-bit word."""
    return _finalize(z & MASK64, MASK64)


def fork(seed: int, index: int) -> int:
    """Seed for the index-th substream of ``seed`` (counter-based split)."""
    return _finalize((seed + (index + 1) * GOLDEN) & MASK64, MASK64)


# A trial draws its data and its message, two counts per geometry; eight
# keeps a few geometries warm.  At RS(255,223) the entry for 223 draws
# holds three 3.5 KB ints.
_LANE_CACHE_SIZE = 8


@lru_cache(maxsize=_LANE_CACHE_SIZE)
def _lanes(count: int) -> tuple[int, int, int]:
    """(ones, ramp, mask) for count 128-bit lanes: lane j holds 1, the
    64-bit value (j + 1) * GOLDEN and 2^64 - 1 respectively."""
    ones = int.from_bytes(b"\x01".ljust(16, b"\x00") * count, "little")
    ramp = int.from_bytes(b"".join(
        ((j * GOLDEN) & MASK64).to_bytes(16, "little") for j in range(1, count + 1)
    ), "little")
    return ones, ramp, ones * MASK64


class SplitMix64:
    """Sequential SplitMix64 stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return _finalize(self._state, MASK64)

    def below(self, bound: int) -> int:
        """Uniform draw in [0, bound)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound

    def draws(self, count: int, bound: int) -> list[int]:
        """``[self.below(bound) for _ in range(count)]``, computed as the
        lanes of one int, and the state those calls would leave."""
        if type(count) is not int or count < 0:
            raise ValueError(f"count must be an int >= 0, got {count!r}")
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        ones, ramp, mask = _lanes(count)
        # state * ones + ramp can carry past bit 64 of a lane.
        z = _finalize((self._state * ones + ramp) & mask, mask)
        self._state = (self._state + count * GOLDEN) & MASK64
        power_of_two = bound & (bound - 1) == 0 and bound <= 1 << 64
        if power_of_two:
            z &= ones * (bound - 1)
        lanes = array("Q", z.to_bytes(16 * count, "little"))
        if sys.byteorder == "big":
            lanes.byteswap()
        values = lanes[0::2].tolist()
        return values if power_of_two else [v % bound for v in values]
