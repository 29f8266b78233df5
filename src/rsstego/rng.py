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
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanche one 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def fork(seed: int, index: int) -> int:
    """Seed for the index-th substream of ``seed`` (counter-based split)."""
    return mix64((seed + (index + 1) * GOLDEN) & MASK64)


class SplitMix64:
    """Sequential SplitMix64 stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def below(self, bound: int) -> int:
        """Uniform draw in [0, bound)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound
