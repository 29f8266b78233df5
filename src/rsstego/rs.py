"""Systematic Reed-Solomon codec over GF(2^m).

The code has length n = q - 1 and corrects t = (n - k) // 2 symbol errors.
A codeword stores its parity block in positions [0, n-k) and its data block
in positions [n-k, n), with the vectors indexed from the top: data symbol i
sits at position n-1-i and parity symbol j at position n-k-1-j.
``Codeword.data`` and ``Codeword.parity`` are the one definition of that
layout; read the blocks through them rather than hard-coding positions.

Encoding divides by the generator polynomial

    g(x) = prod_{j=1..n-k} (x + alpha^j).

Position i holds the coefficient of x^i, so the data block is
D(x) = sum_i d_i x^(n-1-i) and the parity block is D(x) mod g(x): every
codeword is a multiple of g, with roots alpha^1 .. alpha^(n-k) and zero
syndromes (Blahut, "Algebraic Codes for Data Transmission", ch. 5).  A
systematic encoding on fixed information positions is unique, so this is
the same map as parity = data x A for the k x (n-k) Cauchy matrix on the
evaluation points alpha^(n-1-i) of the data and alpha^(n-1-k-j) of the
parity positions; ``tests/oracles.py`` builds that matrix directly.

The encoder is a linear-feedback shift register on one big int: one 8-bit
lane per parity position (16-bit when m > 8), position 0 in the top lane.
Each data symbol d, d_0 first, shifts the register one lane down, which
multiplies the remainder by x, and XORs in the entry of a q-entry table
picked by d plus the symbol that left the low lane: that symbol times
g(x) + x^(n-k).  Multiplying by a constant is GF(2)-linear, so the table
is the m rows alpha^b * g and every XOR of them, q XORs and no field
multiplication.  It is built with the cached generator, and a codeword's
parity costs k lookups and one ``int.to_bytes``.

Decoding first re-encodes the received data block.  That gives a
codeword c, and the error word e = r + c is zero on the data positions.
When e = 0 the word is clean.  When 0 < wt(e) <= t, c itself is the
answer: codewords are at least n - k + 1 > 2t apart, so the c with
d(r, c) = wt(e) <= t is the unique codeword within distance t, the one
any bounded-distance decoder returns, and its error pattern is e on its
support.  This is the common case for stego words, whose hidden
symbols sit in the parity block by default, and it needs no syndromes
and no field multiplication.

Otherwise the decoder is classical syndrome decoding from all n - k
syndromes: Berlekamp-Massey for the minimal error-locator polynomial, a
Chien scan over the q - 1 nonzero elements for the error positions, and
Forney's formula for the magnitudes.  It fails in exactly two places: the
locator's length L exceeds t, or the scan finds other than L roots, which
also refuses a locator of degree below L, since it has fewer roots.  A
success needs no re-check of the corrected word:

    the locator has L <= t distinct roots X_l^-1 and generates S_1..S_(n-k),
    so S_j = sum_l Y_l X_l^j for every j with Forney's values Y_l: removing
    them zeroes every S_j, and no Y_l is 0, else a shorter LFSR would do

(Massey 1969, "Shift-register synthesis and BCH decoding"; Forney 1965,
"On decoding BCH codes").  A claimed success is therefore always a valid
codeword; beyond t errors the result is either a flagged failure or a
miscorrection to some other valid codeword.  Because the locator generates
the whole syndrome sequence, the coefficients L .. n-k-1 of S(x) * loc(x)
vanish, so Forney's omega keeps only its first L terms; and a degree-L
locator has at most L roots, so the Chien scan stops at the L-th.

Syndromes are linear and vanish on codewords, so S_j(r) = S_j(e): they
come from the parity remainder, and the n - k Horner passes run over the
n - k parity positions instead of all n.  ``syndromes`` re-encodes the data
block of the word it is given, unless that block is all zero, since zero
data re-encodes to zero parity; ``decode`` hands it e, so a decode
re-encodes once.  The Chien scan stays in the log domain: with the
locator's nonzero terms kept as (log c_j, j), position i is in error iff
the XOR of alpha^(log c_j - i*j) over those terms is zero, one table
lookup per term and position and no multiplication.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .galois import GF2m


class LengthMismatchError(ValueError):
    """Sequence length disagrees with the code geometry."""


class DegenerateParamsError(ValueError):
    """The (n, k) geometry does not describe a usable RS code."""


# ----------------------------------------------------------------------
# code geometry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CodeParams:
    """RS(n, k) geometry over a given field; n must equal q - 1."""

    field: GF2m
    n: int
    k: int

    def __post_init__(self):
        if self.n != self.field.q - 1:
            raise DegenerateParamsError(
                f"n must be q-1 = {self.field.q - 1}, got {self.n}"
            )
        if not 0 < self.k < self.n:
            raise DegenerateParamsError(f"need 0 < k < n, got k={self.k}, n={self.n}")
        if self.t < 1:
            raise DegenerateParamsError(
                f"RS({self.n},{self.k}) corrects t={self.t} < 1 symbols"
            )

    @property
    def t(self) -> int:
        """Correctable symbol errors."""
        return (self.n - self.k) // 2

    @property
    def n_parity(self) -> int:
        """Length of the parity block, which fills positions [0, n - k)."""
        return self.n - self.k


class Codeword:
    """One n-symbol vector split into a parity block and a data block.

    A word is checked once, when it enters the library:
    ``Codeword(params, symbols)`` raises ``LengthMismatchError`` unless
    there are n symbols and ``ValueError`` for a symbol outside [0, q).
    ``decode`` and ``syndromes`` use a ``Codeword`` of their own geometry as
    it is, and the words the library computes from checked symbols
    (``encode``, ``embed``, ``apply_noise``, ``decode``) are built without a
    second check.  Mutating ``symbols`` afterwards is unsupported.
    """

    __slots__ = ("params", "symbols")

    def __init__(self, params: CodeParams, symbols: Iterable[int]):
        symbols = list(symbols)
        if len(symbols) != params.n:
            raise LengthMismatchError(
                f"codeword needs {params.n} symbols, got {len(symbols)}"
            )
        q = params.field.q
        for s in symbols:
            if not 0 <= s < q:
                raise ValueError(f"symbol {s} outside GF({q})")
        self.params = params
        self.symbols = symbols

    @classmethod
    def _of(cls, params: CodeParams, symbols: list[int]) -> "Codeword":
        """Wrap n symbols already known to lie in [0, q), without a check."""
        word = cls.__new__(cls)
        word.params, word.symbols = params, symbols
        return word

    @property
    def data(self) -> list[int]:
        """Data symbols in vector order (d_0 first): positions n-1 down to n-k."""
        p = self.params
        return self.symbols[p.n - 1:p.n_parity - 1:-1]

    @property
    def parity(self) -> list[int]:
        """Parity symbols in vector order: positions n-k-1 down to 0."""
        return self.symbols[self.params.n_parity - 1::-1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Codeword):
            return NotImplemented
        return self.params == other.params and self.symbols == other.symbols

    def __repr__(self) -> str:
        return f"Codeword({self.symbols})"


# ----------------------------------------------------------------------
# encoder
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CauchyGenerator:
    """Precomputed systematic encoder: the LFSR that divides by g(x).

    ``table[s]`` packs s * (g(x) + x^(n-k)), the low n-k coefficients of
    s * g(x), one lane per parity position with position 0 in the top
    lane.  It is exported as ``CauchyGenerator`` because its parity map
    is the Cauchy matrix of the module docstring (see ``build_cauchy``).
    """

    lanes: struct.Struct   # big-endian lanes of lane_bits, position 0 first
    lane_bits: int         # 8, or 16 when m > 8
    table: tuple[int, ...]  # q entries


# The generator holds q packed vectors of n-k lanes: about 0.02 MB at
# RS(255,223), 0.4 MB at RS(4095,4063) and 6.8 MB at RS(65535,65503).
# Callers use one or a few geometries at a time; eight keeps those warm and
# bounds what a caller cycling through many geometries keeps alive.
CAUCHY_CACHE_SIZE = 8


@lru_cache(maxsize=CAUCHY_CACHE_SIZE)
def build_cauchy(params: CodeParams) -> CauchyGenerator:
    """Build the encoder of the given geometry.

    Its parity map is the k x (n-k) Cauchy matrix of the module docstring
    (row i is ``encode(params, e_i).parity``), hence the name, which the
    benchmark and its cache statistics also use.  g(x) comes from n-k
    products in the log domain.  No coefficient of a partial product
    prod_{i <= j} (x + alpha^i) is zero, so each has a log: it is a
    codeword of the RS code it generates, whose minimum distance j + 1 is
    its number of coefficients.
    """
    f, n_parity = params.field, params.n_parity
    exp, log = f._exp, f._log   # exp is doubled: no modulo below
    g = [1]   # ascending coefficients of prod_{i <= j} (x + alpha^i)
    for j in range(1, n_parity + 1):
        scaled = [exp[log[c] + j] for c in g]   # alpha^j * g
        g = [scaled[0], *(a ^ b for a, b in zip(g, scaled[1:])), 1]
    width = 8 if f.m <= 8 else 16
    lanes = struct.Struct(f">{n_parity}{'B' if width == 8 else 'H'}")
    table = [0]
    for b in range(f.m):   # alpha^b * g, then every XOR of those rows
        row = int.from_bytes(lanes.pack(*[exp[log[c] + b] for c in g[:-1]]), "big")
        table += [t ^ row for t in table]
    return CauchyGenerator(lanes=lanes, lane_bits=width, table=tuple(table))


def encode(params: CodeParams, data: Sequence[int]) -> Codeword:
    """Systematic encode: the k data symbols appear verbatim in the codeword."""
    if len(data) != params.k:
        raise LengthMismatchError(f"need {params.k} data symbols, got {len(data)}")
    q = params.field.q
    for d in data:
        if not 0 <= d < q:
            raise ValueError(f"data symbol {d} outside GF({q})")
    return Codeword._of(params, [*_parity(build_cauchy(params), data), *reversed(data)])


def _parity(gen: CauchyGenerator, data: Iterable[int]) -> tuple[int, ...]:
    """Parity block of k in-range data symbols, in position order 0 .. n-k-1.

    One LFSR step per data symbol, d_0 first: the register holds the
    remainder so far, shifting it multiplies by x, and the coefficient that
    leaves the low lane plus d picks the multiple of g to add back.
    """
    width, table = gen.lane_bits, gen.table
    low = (1 << width) - 1
    rem = 0
    for d in data:
        rem = (rem >> width) ^ table[(rem & low) ^ d]
    lanes = gen.lanes
    return lanes.unpack(rem.to_bytes(lanes.size, "big"))


# ----------------------------------------------------------------------
# decoder
# ----------------------------------------------------------------------
def _received(params: CodeParams, received) -> Codeword:
    """The received-word rule of ``decode`` and ``syndromes``: a ``Codeword``
    of this geometry is used as it is, anything else is checked as a new
    ``Codeword``."""
    if isinstance(received, Codeword) and (
        received.params is params or received.params == params
    ):
        return received
    return Codeword(params, received)


def syndromes(params: CodeParams, received) -> list[int]:
    """S_j = v(alpha^j) for j = 1 .. n-k; all zero iff v is a codeword.

    Computed from the parity remainder (see the module docstring): the data
    block is re-encoded and its parity XORed into the received parity.  A
    word whose data block is all zero is its own remainder and skips the
    re-encode.  A ``Codeword`` of this geometry is not checked again.  A
    raw sequence, or a ``Codeword`` of another geometry, is checked like a
    new ``Codeword``: the wrong length raises ``LengthMismatchError`` and a
    symbol outside [0, q) ``ValueError``.
    """
    received = _received(params, received)
    f, data = params.field, received.data
    remainder = received.symbols[:params.n_parity]
    if any(data):   # zero data re-encodes to zero parity
        parity = _parity(build_cauchy(params), data)
        remainder = [a ^ b for a, b in zip(parity, remainder)]
    return [
        f.poly_eval(remainder, f.alpha_pow(j)) for j in range(1, params.n_parity + 1)
    ]


@dataclass
class DecodeResult:
    """Outcome of one decode; ``failure`` means more than t errors detected."""

    corrected: Codeword
    error_positions: tuple[int, ...] = ()
    error_magnitudes: dict[int, int] = dc_field(default_factory=dict)
    failure: bool = False


def _berlekamp_massey(f: GF2m, synd: Sequence[int]) -> tuple[list[int], int]:
    """Minimal LFSR for synd: the error locator (ascending coeffs,
    loc[0] = 1, degree at most the length, zero high coefficients kept)
    and its length L."""
    loc = [1]
    prev = [1]
    length = 0
    gap = 1
    prev_disc = 1
    for idx, s in enumerate(synd):
        disc = s
        for i in range(1, min(length, len(loc) - 1) + 1):
            if loc[i] and synd[idx - i]:
                disc ^= f.mul(loc[i], synd[idx - i])
        if disc == 0:
            gap += 1
            continue
        scale = f.div(disc, prev_disc)
        new = list(loc) + [0] * max(0, len(prev) + gap - len(loc))
        for i, p in enumerate(prev):
            if p:
                new[i + gap] ^= f.mul(scale, p)
        if 2 * length <= idx:
            prev = loc
            prev_disc = disc
            length = idx + 1 - length
            gap = 1
        else:
            gap += 1
        loc = new
    return loc, length


def decode(params: CodeParams, received) -> DecodeResult:
    """Correct up to t symbol errors.

    The data block is re-encoded first.  If the re-encoded codeword is
    within distance t of the received word it is the answer, with the
    differing parity positions as the errors (see the module docstring).
    Otherwise the n - k syndromes go through Berlekamp-Massey, Chien and
    Forney.  Both paths return the same result for every word.

    The received word is taken as ``syndromes`` takes it: a ``Codeword`` of
    this geometry is used as it is and not copied, and anything else of the
    wrong length raises ``LengthMismatchError`` or, with a symbol outside
    [0, q), ``ValueError``.  Any word of n in-range symbols never raises.
    Failure is flagged in two places, after Berlekamp-Massey and after the
    Chien scan; a failed result holds the received word.  A success is a
    new valid codeword within distance t, and beyond t errors it may be a
    miscorrection to another valid codeword.
    """
    word = _received(params, received)
    symbols = word.symbols
    parity = _parity(build_cauchy(params), word.data)
    error = [a ^ b for a, b in zip(parity, symbols)]   # e = r + c; 0 on the data
    support = [i for i, e in enumerate(error) if e]
    if len(support) <= params.t:
        return DecodeResult(
            corrected=Codeword._of(params, [*parity, *symbols[params.n_parity:]]),
            error_positions=tuple(support),
            error_magnitudes={i: error[i] for i in support},
        )

    f = params.field
    failed = DecodeResult(corrected=word, failure=True)
    # S(e) = S(r); e holds n in-range symbols, so it is not checked again.
    synd = syndromes(params, Codeword._of(params, [*error, *[0] * params.k]))
    loc, length = _berlekamp_massey(f, synd)
    if length > params.t:
        return failed

    # Chien scan: position i is in error iff loc(alpha^-i) = 0, summed in
    # the log domain over the locator's nonzero terms c_j x^j.  Positions
    # come out in ascending order; a locator of degree d <= L has at most
    # d roots, so L roots also means degree L.
    n, exp, log = params.n, f._exp, f._log
    terms = [(log[c], j) for j, c in enumerate(loc) if c]
    positions = []
    for i in range(n):
        value = 0
        for log_c, j in terms:
            value ^= exp[(log_c - i * j) % n]
        if not value:
            positions.append(i)
            if len(positions) == length:
                break
    if len(positions) != length:
        return failed

    # Forney with first consecutive root alpha^1:
    #   Y = omega(X^-1) / loc'(X^-1),  omega = S(x) * loc(x) mod x^L,
    # since loc generates every S_j, the terms L .. n-k-1 of S * loc vanish.
    # loc has distinct roots, so loc' does not vanish at them.
    omega = [0] * length
    for i, c in enumerate(loc[:length]):
        for j, s in enumerate(synd[:length - i]):
            if c and s:
                omega[i + j] ^= f.mul(c, s)
    # In characteristic 2 the formal derivative keeps the odd powers only.
    deriv = [c if j % 2 else 0 for j, c in enumerate(loc)][1:]

    corrected = list(word.symbols)
    magnitudes: dict[int, int] = {}
    for i in positions:
        x_inv = f.alpha_pow(-i)
        y = f.div(f.poly_eval(omega, x_inv), f.poly_eval(deriv, x_inv))
        magnitudes[i] = y
        corrected[i] ^= y
    return DecodeResult(
        corrected=Codeword._of(params, corrected),
        error_positions=tuple(positions),
        error_magnitudes=magnitudes,
    )
