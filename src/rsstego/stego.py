"""Hide a secret message inside a codeword's error-correction budget.

Embedding overwrites the symbols at key-selected positions with message
symbols; to the RS decoder those substitutions are ordinary errors, so as
long as substitutions plus genuine channel errors stay within t, the
carrier data always survives.  Extraction reads the raw received values at
the key positions (a channel error landing on a stego position therefore
corrupts that message symbol) and decodes the rest normally.

``check_budget`` is the one check of that invariant: keys and embeddings
refuse more than t substitutions, and an experiment also reserves its
channel's worst case.  ``check_key`` is the one check of a key against a
geometry, run by ``embed`` and ``extract`` alike.

By default positions are drawn from the parity block only, keeping the
visible data symbols untouched; pass pool="any" to allow every position.
``check_key_request`` validates the pool and the position count, for a key
and for an experiment config alike.
Position selection is a pure function of (seed, geometry, count) via
SplitMix64, so both endpoints derive the same key from a shared seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .rng import SplitMix64
from .rs import (
    CodeParams,
    Codeword,
    DecodeResult,
    LengthMismatchError,
    decode,
)

SecretMessage = Sequence[int]


class BudgetExceededError(ValueError):
    """Stego substitutions plus worst-case channel errors would exceed t."""


def check_budget(params: CodeParams, stego_count: int, channel_symbols: int) -> None:
    """Raise unless stego_count + channel_symbols <= t."""
    if stego_count + channel_symbols > params.t:
        raise BudgetExceededError(
            f"{stego_count} stego symbols + {channel_symbols} worst-case channel "
            f"symbols > t = {params.t}"
        )


def check_key_request(params: CodeParams, count: int, pool: str) -> int:
    """Raise unless pool is "parity" or "any" and count is an int >= 0;
    return the number of positions in the pool."""
    if pool == "parity":
        size = params.n_parity
    elif pool == "any":
        size = params.n
    else:
        raise ValueError(f"pool must be 'parity' or 'any', got {pool!r}")
    if not isinstance(count, int):
        raise ValueError(f"count must be an int, got {count!r}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return size


@dataclass(frozen=True)
class StegoKey:
    """Shared secret: where the message symbols live inside a codeword."""

    positions: tuple[int, ...]
    seed: int | None = None

    def __len__(self) -> int:
        return len(self.positions)


def check_key(params: CodeParams, key: StegoKey) -> None:
    """Raise unless the key's positions are distinct, lie in [0, n) and
    stay within the stego budget."""
    if len(set(key.positions)) != len(key.positions):
        raise ValueError("stego positions must be distinct")
    for pos in key.positions:
        if not 0 <= pos < params.n:
            raise ValueError(f"position {pos} outside [0, {params.n})")
    check_budget(params, len(key.positions), 0)


def derive_positions(
    params: CodeParams, seed: int, count: int, *, pool: str = "parity"
) -> StegoKey:
    """Deterministically pick ``count`` distinct hiding positions.

    Draws ``next_u64() % pool_size`` from SplitMix64(seed), keeping first
    occurrences, until ``count`` distinct indices are collected.  The pool
    is the parity block by default ("parity") or the whole codeword
    ("any").
    """
    size = check_key_request(params, count, pool)
    # Both pools hold at least n - k >= t positions, so the draw terminates.
    check_budget(params, count, 0)
    rng = SplitMix64(seed)
    positions: list[int] = []
    seen = set()
    while len(positions) < count:
        idx = rng.below(size)
        if idx not in seen:
            seen.add(idx)
            positions.append(idx)
    return StegoKey(positions=tuple(positions), seed=seed)


def embed(clean: Codeword, key: StegoKey, message: SecretMessage) -> Codeword:
    """Substitute the symbols at the key positions with message symbols.

    A message symbol equal to the clean symbol is fine: it produces a
    zero-magnitude "error" and extraction still reads it back, because
    extraction reads received values rather than deltas.
    """
    params = clean.params
    if len(message) != len(key.positions):
        raise LengthMismatchError(
            f"message has {len(message)} symbols for {len(key.positions)} positions"
        )
    check_key(params, key)
    q = params.field.q
    symbols = list(clean.symbols)
    for pos, sym in zip(key.positions, message):
        if not 0 <= sym < q:
            raise ValueError(f"message symbol {sym} outside GF({q})")
        symbols[pos] = sym
    return Codeword._of(params, symbols)


class ExtractResult(NamedTuple):
    data: list[int]
    message: list[int]
    diagnostics: DecodeResult


def extract(received: Codeword, key: StegoKey, params: CodeParams) -> ExtractResult:
    """Read the message at the key positions, then RS-decode the carrier.

    The message symbols are the received (pre-correction) values, so a
    channel error on a stego position corrupts that message symbol even
    though the carrier data still decodes.  The key is checked as
    ``embed`` checks it.
    """
    check_key(params, key)
    diagnostics = decode(params, received)
    message = [received.symbols[p] for p in key.positions]
    return ExtractResult(
        data=diagnostics.corrected.data,
        message=message,
        diagnostics=diagnostics,
    )
