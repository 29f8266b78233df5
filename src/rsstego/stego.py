"""Hide a secret message inside a codeword's error-correction budget.

Embedding overwrites the symbols at key-selected positions with message
symbols; to the RS decoder those substitutions are ordinary errors, so as
long as substitutions plus genuine channel errors stay within t, the
carrier data always survives.  Extraction reads the raw received values at
the key positions (a channel error landing on a stego position therefore
corrupts that message symbol) and decodes the rest normally.

``check_budget`` is the one check of that invariant: keys and embeddings
refuse more than t substitutions, and an experiment also reserves its
channel's worst case.  ``check_key_request`` runs it last, for every key
that is asked for.  ``check_key`` runs it for a key that comes from
outside; it is the one check of a key against a geometry, run by
``embed`` and ``extract`` alike.  ``_substitute`` is the substitution
rule on a symbol list and checks nothing.  ``embed`` calls it after its
checks, and ``container`` calls it, with the keys it has just derived
(distinct, in the parity block and within t by construction) and
message symbols that are m-bit fields of bytes, on each codeword it
lays out.  ``container`` reads the message back from its payload at the
same positions and decodes with ``rs._error_pattern``, so it calls
neither ``extract`` nor a core of it.

By default positions are drawn from the parity block only, keeping the
visible data symbols untouched; pass pool="any" to allow every position.
``check_key_request`` validates the pool, the position count and its
budget, for a key, an ``RSSTEG01`` payload and an experiment config alike.
Position selection is a pure function of (seed, geometry, count) via
SplitMix64, so both endpoints derive the same key from a shared seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .rng import SplitMix64
from .rs import (
    CodeParams,
    Codeword,
    DecodeResult,
    _field_symbols,
    _received,
    decode,
)

SecretMessage = Iterable[int]


class BudgetExceededError(ValueError):
    """Stego substitutions plus worst-case channel errors would exceed t."""


def check_budget(params: CodeParams, stego_count: int, channel_symbols: int) -> None:
    """Raise unless stego_count + channel_symbols <= t."""
    if stego_count + channel_symbols > params.t:
        raise BudgetExceededError(
            f"{stego_count} stego symbols + {channel_symbols} worst-case channel "
            f"symbols > t = {params.t}"
        )


def check_key_request(params: CodeParams, count: int, pool: str, name: str,
                      channel_symbols: int = 0) -> int:
    """Raise unless pool is "parity" or "any", count is an int (not a
    bool) >= 0, named as the caller's parameter ``name``, and count plus
    ``channel_symbols`` stays within t (``check_budget``); return the
    number of positions in the pool."""
    if pool == "parity":
        size = params.n_parity
    elif pool == "any":
        size = params.n
    else:
        raise ValueError(f"pool must be 'parity' or 'any', got {pool!r}")
    if type(count) is not int:
        raise ValueError(f"{name} must be an int, got {count!r}")
    if count < 0:
        raise ValueError(f"{name} must be non-negative, got {count}")
    check_budget(params, count, channel_symbols)
    return size


@dataclass(frozen=True)
class StegoKey:
    """Shared secret: where the message symbols live inside a codeword."""

    positions: tuple[int, ...]


def check_key(params: CodeParams, key: StegoKey) -> None:
    """Raise unless the key is a ``StegoKey`` whose positions are distinct
    ints in [0, n) and stay within the stego budget."""
    if not isinstance(key, StegoKey):
        raise ValueError(f"key must be a StegoKey, got {key!r}")
    for pos in key.positions:
        if type(pos) is not int or not 0 <= pos < params.n:
            raise ValueError(f"position {pos!r} is not an int in [0, {params.n})")
    if len(set(key.positions)) != len(key.positions):
        raise ValueError("stego positions must be distinct")
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
    size = check_key_request(params, count, pool, "count")
    # Both pools hold at least n - k >= t >= count positions, so the draw
    # terminates.
    rng = SplitMix64(seed)
    positions: dict[int, None] = {}   # insertion-ordered: first occurrences
    while len(positions) < count:
        positions[rng.below(size)] = None
    return StegoKey(positions=tuple(positions))


def embed(clean: Codeword, key: StegoKey, message: SecretMessage) -> Codeword:
    """Substitute the symbols at the key positions with message symbols.

    The stego word differs from the clean word by an error pattern, message
    symbol XOR clean symbol at each key position: it is the pattern the
    decoder later removes.  A message symbol equal to the clean symbol is
    fine: it produces a zero-magnitude "error" and extraction still reads
    it back, because extraction reads received values rather than deltas.
    The key is checked first; then ``message`` may be any iterable of one
    symbol per key position (else ``LengthMismatchError``), each an integer
    in [0, q) (else ``ValueError``).
    """
    params = clean.params
    check_key(params, key)
    message = _field_symbols(message, len(key.positions), params.field.q, "message symbol")
    symbols = clean.symbols.copy()
    _substitute(symbols, key.positions, message)
    return Codeword._of(params, symbols)


def _substitute(symbols: list[int], positions: tuple[int, ...], message: list[int]) -> None:
    """The substitution rule, in place: the symbol at each key position p
    becomes its message symbol s.  Nothing is checked: ``embed`` checks
    first, and ``container`` passes keys from its key rule and m-bit
    symbols."""
    for p, s in zip(positions, message):
        symbols[p] = s


class ExtractResult(NamedTuple):
    data: list[int]
    message: list[int]
    diagnostics: DecodeResult


def extract(received, key: StegoKey, params: CodeParams) -> ExtractResult:
    """Read the message at the key positions, then RS-decode the carrier.

    The message symbols are the received (pre-correction) values, so a
    channel error on a stego position corrupts that message symbol even
    though the carrier data still decodes.  The key is checked as
    ``embed`` checks it, and the received word as ``decode`` checks it: a
    ``Codeword`` of this geometry is used as it is, and a raw sequence is
    checked like a new ``Codeword``.
    """
    check_key(params, key)
    word = _received(params, received)
    diagnostics = decode(params, word)
    return ExtractResult(data=diagnostics.corrected.data,
                         message=[word.symbols[p] for p in key.positions],
                         diagnostics=diagnostics)
