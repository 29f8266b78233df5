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

``_draws(states, count, bound)`` is the many-stream form, and ``draws``
its one-state case: for each state s it gives the ``count`` values that
``SplitMix64(s).below(bound)`` would return, in one ``_finalize`` pass
over ``len(states) * count`` lanes.  Lane i * count + j, for draw j + 1
of stream i, starts as s_i + (j + 1) * GOLDEN.  One little-endian
``struct`` pack puts state i in lane i * count, whatever the number of
streams, and one multiply by a cached int with 1 in lanes 0 .. count - 1
copies it into its ``count`` lanes; the ramp and masks are the
one-stream ones, repeated.  The lanes are read back with one cached
``struct`` record, so no format here depends on the host's byte order.
The RSSTEG01 keys in ``container`` take their forks from one stream and
their positions from many.
"""

from __future__ import annotations

import struct
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


# A trial draws its data and its message, two counts per geometry, and an
# RSSTEG01 file its forks and its key size; eight keeps a few geometries
# warm.  An entry holds its lanes repeated over every stream: about
# 0.2 MB for a block of 1,024 two-draw keys, 1.5 MB for 1,024 keys at
# stego 16 and 5.6 MB at stego 63, the largest packed key at m = 12.
# A call's peak is about twice its entry, cached or not: 0.45 MB for the
# two-draw block and 13 MB at stego 63 (tracemalloc).
_LANE_CACHE_SIZE = 8


@lru_cache(maxsize=_LANE_CACHE_SIZE)
def _lanes(count: int, streams: int) -> tuple[int, int, int, int, struct.Struct, struct.Struct]:
    """(ones, ramp, mask, copies, column, record) for ``streams`` runs of
    count 128-bit lanes: lane j of each run holds 1, the 64-bit value
    (j + 1) * GOLDEN and 2^64 - 1 respectively, and ``copies`` is the
    ``ones`` of one run.  ``column`` packs state i into lane i * count of
    a little-endian int, and ``record`` reads the low 64 bits of every
    lane from little-endian bytes."""
    copies = int.from_bytes(b"\x01".ljust(16, b"\x00") * count, "little")
    ramp = b"".join(((j * GOLDEN) & MASK64).to_bytes(16, "little")
                    for j in range(1, count + 1))
    ones = int.from_bytes(copies.to_bytes(16 * count, "little") * streams, "little")
    column = struct.Struct("<" + f"{16 * count - 8}x".join("Q" * streams))
    record = struct.Struct("<" + "Q8x" * (count * streams))
    return ones, int.from_bytes(ramp * streams, "little"), ones * MASK64, copies, column, record


def _draws(states, count: int, bound: int) -> list[int]:
    """For each state s of ``states``, in order, the ``count`` values of
    ``[SplitMix64(s).below(bound) for _ in range(count)]``, concatenated.
    Every state must lie in [0, 2^64); count and bound are not checked."""
    if not count:
        return []
    ones, ramp, mask, copies, column, record = _lanes(count, len(states))
    spread = int.from_bytes(column.pack(*states), "little") * copies
    # A state plus the ramp can carry past bit 64 of a lane.
    z = _finalize((spread + ramp) & mask, mask)
    power_of_two = bound & (bound - 1) == 0 and bound <= 1 << 64
    if power_of_two:
        z &= ones * (bound - 1)
    values = record.unpack(z.to_bytes(record.size, "little"))
    return list(values) if power_of_two else [v % bound for v in values]


def _bad_bound(bound) -> ValueError:
    """The error for a bound that is not an int (bools included) or not
    positive, which ``below`` and ``draws`` refuse alike."""
    return ValueError(f"bound must be an int, got {bound!r}" if type(bound) is not int
                      else f"bound must be positive, got {bound}")


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
        if type(bound) is not int or bound <= 0:
            raise _bad_bound(bound)
        return self.next_u64() % bound

    def draws(self, count: int, bound: int) -> list[int]:
        """``[self.below(bound) for _ in range(count)]``, computed as the
        lanes of one int, and the state those calls would leave."""
        if type(count) is not int or count < 0:
            raise ValueError(f"count must be an int >= 0, got {count!r}")
        if type(bound) is not int or bound <= 0:
            raise _bad_bound(bound)
        values = _draws((self._state,), count, bound)
        self._state = (self._state + count * GOLDEN) & MASK64
        return values
