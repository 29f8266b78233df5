"""Seedable noisy-channel models.

Three noise shapes, each a deterministic function of the caller's seed:

* single_symbol - one uniformly random position XORed with a uniformly
  random nonzero delta (the decoder corrects whole symbols, so this is the
  natural "single error" model);
* single_bit    - one uniformly random bit flip, for sensitivity checks;
* burst         - a contiguous window of ``burst_bits`` bits at a uniformly
  random bit offset, each bit flipped with probability 1/2 and at least one
  flip forced (an all-zero flip pattern is redrawn).

Bits are numbered MSB-first within each symbol, matching the container
packing: global bit b lives in symbol b // m, mask 1 << (m - 1 - b % m).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .rng import SplitMix64
from .rs import Codeword

MODES = ("none", "single_symbol", "single_bit", "burst")


@dataclass(frozen=True)
class ChannelSpec:
    """Noise model selector; burst_bits only matters in burst mode."""

    mode: str = "none"
    burst_bits: int = 6

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.burst_bits < 1:
            raise ValueError(f"burst_bits must be >= 1, got {self.burst_bits}")


@dataclass(frozen=True)
class ErrorEvent:
    """Realized noise: which symbols changed and by what XOR delta."""

    affected_positions: frozenset[int]
    deltas: Mapping[int, int]
    bit_offset: int | None = None


def max_affected_symbols(spec: ChannelSpec, m: int) -> int:
    """Worst-case number of symbols one noise event can change."""
    if spec.mode == "none":
        return 0
    if spec.mode in ("single_symbol", "single_bit"):
        return 1
    # a w-bit window starting mid-symbol spans the most symbols
    return (spec.burst_bits + m - 2) // m + 1


def apply_noise(
    codeword: Codeword, spec: ChannelSpec, seed: int
) -> tuple[Codeword, ErrorEvent]:
    """Apply one noise event drawn from SplitMix64(seed)."""
    params = codeword.params
    m = params.field.m
    n = params.n
    rng = SplitMix64(seed)
    symbols = list(codeword.symbols)

    if spec.mode == "none":
        event = ErrorEvent(frozenset(), {})

    elif spec.mode == "single_symbol":
        pos = rng.below(n)
        delta = 1 + rng.below(params.field.q - 1)
        symbols[pos] ^= delta
        event = ErrorEvent(frozenset({pos}), {pos: delta})

    elif spec.mode == "single_bit":
        bit = rng.below(n * m)
        pos, r = divmod(bit, m)
        delta = 1 << (m - 1 - r)
        symbols[pos] ^= delta
        event = ErrorEvent(frozenset({pos}), {pos: delta})

    else:  # burst
        w = spec.burst_bits
        total = n * m
        if w > total:
            raise ValueError(f"burst of {w} bits exceeds the {total}-bit codeword")
        offset = rng.below(total - w + 1)
        # ceil(w / 64) draws, lowest bits first; for w <= 64 this is the
        # single draw below(1 << w).
        pattern = 0
        while pattern == 0:
            for shift in range(0, w, 64):
                pattern |= rng.next_u64() << shift
            pattern &= (1 << w) - 1
        deltas: dict[int, int] = {}
        for r in range(w):
            if (pattern >> (w - 1 - r)) & 1:
                pos, rr = divmod(offset + r, m)
                deltas[pos] = deltas.get(pos, 0) | (1 << (m - 1 - rr))
        for pos, delta in deltas.items():
            symbols[pos] ^= delta
        event = ErrorEvent(frozenset(deltas), deltas, bit_offset=offset)

    # Every delta is below q, so the noisy word needs no second check.
    return Codeword._of(params, symbols), event
