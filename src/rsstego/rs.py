"""Systematic Reed-Solomon codec over GF(2^m).

The code has length n = q - 1 and corrects t = (n - k) // 2 symbol errors.
A codeword stores its parity block in positions [0, n-k) and its data block
in positions [n-k, n), with the vectors indexed from the top: data symbol i
sits at position n-1-i and parity symbol j at position n-k-1-j.
``Codeword.data`` and ``Codeword.parity`` read a word's blocks by that
layout, and ``_codeword`` is the one place that lays a word out; the
``RSSTEG01`` payload loop reads the same blocks as slices of its payload.
``_field_symbols`` is the one check of a symbol sequence's length and
range, for ``Codeword``, ``encode`` and ``stego.embed``: it runs where
symbols enter the library, and symbols the library made itself skip it
(the private cores, and the ``RSSTEG01`` payload of ``container``).
``Codeword._xor`` is the one place where a word's symbols change by an
error pattern, position -> delta: the decoder's correction, the
``RSSTEG01`` extract's correction of a data block, and the channel's
noise (``channel.apply_noise``).  The hidden message differs from
the clean word by such a pattern too, but it is written as a substitution,
by ``stego._substitute``, for ``stego.embed`` and the ``RSSTEG01`` payload
alike, with no pattern built.

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
parity costs k lookups.  ``_parity`` returns the register as one int, and
``_codeword`` reads its lanes back with one ``int.to_bytes`` and lays out
the word, for ``encode`` and the ``RSSTEG01`` payload alike.

Decoding first re-encodes the received data block.  That gives a
codeword c, and the error word e = r + c is zero on the data positions.
When e = 0 the word is clean.  When 0 < wt(e) <= t, c itself is the
answer: codewords are at least n - k + 1 > 2t apart, so the c with
d(r, c) = wt(e) <= t is the unique codeword within distance t, the one
any bounded-distance decoder returns, and its error pattern is e on its
support.  This is the common case for stego words, whose hidden
symbols sit in the parity block by default, and it needs no syndromes
and no field multiplication.

``_error_pattern`` is that verdict, taken from a word's data block and
parity block alone: the error pattern, or None when decoding fails.
``decode`` wraps it in a ``DecodeResult``, and the ``RSSTEG01`` payload
loop calls it on slices of the payload, with the generator it looked up
once.

Otherwise the decoder is classical syndrome decoding from all n - k
syndromes: Berlekamp-Massey for the minimal error-locator polynomial, a
Chien scan over the q - 1 nonzero elements for the error positions, and
Forney's values for the magnitudes.  It fails in exactly two places: the
locator's length L exceeds t, or the scan finds other than L roots, which
also refuses a locator of degree below L, since it has fewer roots.
Berlekamp-Massey stops at the first step whose length would exceed t: L
never decreases, so that is the verdict of a check at the end.  Until
then deg loc <= L <= t (Massey 1969), so the locator lives in t + 1
slots.  A success needs no re-check of the corrected word:

    the locator has L <= t distinct roots X_l^-1 and generates S_1..S_(n-k),
    so S_j = sum_l Y_l X_l^j for every j with Forney's values Y_l: removing
    them zeroes every S_j, and no Y_l is 0, else a shorter LFSR would do

(Massey 1969, "Shift-register synthesis and BCH decoding"; Forney 1965,
"On decoding BCH codes").  A claimed success is therefore always a valid
codeword; beyond t errors the result is either a flagged failure or a
miscorrection to some other valid codeword.  A locator of degree at most
L has at most L roots, so a scan that finds L of them has found them all.

Forney's value at the error locator X is Y = omega(X^-1) / loc'(X^-1) with
omega = S(x) * loc(x) mod x^(n-k).  Berlekamp-Massey already holds a
polynomial that gives the same value without omega: its correction term
B = x^gap * prev / prev_disc, the multiple of the last replaced locator
that its next step would scale by the discrepancy.  At every root of loc,
omega(X^-1) * B(X^-1) = X^-(n-k), so

    Y = X^-(n-k) / (B(X^-1) * loc'(X^-1))

(Horiguchi 1989, "High-speed decoding of BCH codes using a new
error-evaluation algorithm").  These are Forney's values, so the argument
above holds as it stands, and B(X^-1) is never 0.

Either path yields the error pattern, a map from position to nonzero
magnitude (``DecodeResult.error_magnitudes``), and the corrected word is
the received word XOR that pattern, built by ``Codeword._xor``.  A failure
returns the received word itself and an empty pattern.

The syndrome path runs in the log domain, without ``GF2m.mul``: a
product is one lookup in the doubled exp table at the sum of two logs.
Syndromes are linear and vanish on codewords, so S_j(r) = S_j(e): they
come from the parity remainder e_0 .. e_(n-k-1).  ``_remainder`` is the
one place that computes it, for ``_error_pattern`` and ``syndromes``
alike: the LFSR register of the re-encoded data block XOR the received
parity block packed into the same lanes, one int XOR, read back as n - k
lanes.  ``syndromes`` skips it for a word whose data block is all zero,
since zero data re-encodes to zero parity.  The syndrome path hands
``syndromes`` the word e, whose data block is zero, so a decode
re-encodes exactly once.

Both the syndromes and the Chien scan evaluate a sparse polynomial, given
as log terms (log c, j), at the points alpha^1 .. alpha^count, and both go
through one evaluator, ``_evaluate``, which takes one C-level step per term
rather than one per term and point.  The term c x^j at alpha^s is
exp[log c + j*s] = run[log c + j*s], where the "exp run" is exp[0 .. n)
repeated: for s = 1 .. count that is one strided slice,
run[log c + j : log c + j + j*count : j].  Each slice becomes an int with
``int.from_bytes``, the ints are XORed, and the lanes are read back once;
a constant term is its value repeated.  The syndromes take the
remainder's terms (log e_i, i) with count n - k.  The Chien scan takes the
locator's terms (log c_j, j) with count n: alpha^s = alpha^-(n-s), so lane
s - 1 stands for position n - s, which is in error iff the lane is zero.
The furthest lane read is log c + j*count, and with log c < n, i < n-k
and j <= t it lies below n + max((n-k-1)(n-k), t*n), the run's length:
217 lanes at RS(31,19), 4,335 at RS(255,223) and 34,799 at RS(2047,2015),
never more than the q (n-k) lanes of the encoder's table.  A lane is one
byte of a ``bytes`` run when m <= 8 and one item of an ``array('H')`` run
when m > 8, the encoder's 8/16 split (a ``bytes`` slice converts a little
faster than an ``array('B')`` one).  The run is built by the first
``syndromes`` call of a geometry and cached like the encoder but apart
from it, so ``build_cauchy`` and the words that never reach the syndrome
path do not pay for it.

Berlekamp-Massey keeps the locator as values and adds the log of a
coefficient to the log of a syndrome, or of the scale disc / prev_disc,
for each product; the syndromes' logs are taken once, and it hands back
B as log terms.  B(X^-1) and loc'(X^-1) are log-term sums at the L error
positions only, which Forney reads as the Chien scan finds them, and a
magnitude is alpha to -(n-k) log X minus their logs.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from operator import index
from typing import Iterable, Iterator, Mapping, Sequence

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
    """RS(n, k) geometry over a given field: the field a ``GF2m``, n and k
    ints (not bools), n = q - 1 and 0 < k <= n - 2, so that t >= 1.  This
    is the one rule of which (m, n, k) is a code; the ``RSSTEG01`` header
    takes it as it stands and adds only m >= 3."""

    field: GF2m
    n: int
    k: int

    def __post_init__(self):
        if not isinstance(self.field, GF2m):
            raise DegenerateParamsError(f"field must be a GF2m, got {self.field!r}")
        if type(self.n) is not int or type(self.k) is not int:
            raise DegenerateParamsError(f"n and k must be ints, got {self.n!r}, {self.k!r}")
        if self.n != self.field.q - 1:
            raise DegenerateParamsError(
                f"n must be q-1 = {self.field.q - 1}, got {self.n}"
            )
        if not 0 < self.k <= self.n - 2:
            raise DegenerateParamsError(
                f"need 0 < k <= n - 2 (t >= 1), got k={self.k}, n={self.n}")

    @property
    def t(self) -> int:
        """Correctable symbol errors."""
        return (self.n - self.k) // 2

    @property
    def n_parity(self) -> int:
        """Length of the parity block, which fills positions [0, n - k)."""
        return self.n - self.k


def _field_symbols(symbols: Iterable, count: int, q: int, what: str) -> list[int]:
    """The one entry check of a symbol sequence: ``count`` ints in [0, q).

    ``ValueError`` for an input that is not iterable (``None``, an int),
    ``LengthMismatchError`` for any other count, ``ValueError`` for a symbol
    that ``operator.index`` refuses (a float, a str) or one outside the
    range.  A list of in-range ints is returned as it is, not copied; any
    other input comes back as a new list of ``int``.
    """
    if type(symbols) is not list:
        try:
            symbols = list(symbols)
        except TypeError:
            raise ValueError(f"{what}s must be iterable, got {symbols!r}") from None
    if len(symbols) != count:
        raise LengthMismatchError(f"need {count} {what}s, got {len(symbols)}")
    for s in symbols:
        if type(s) is not int or not 0 <= s < q:
            break
    else:
        return symbols
    out = []
    for s in symbols:
        try:
            s = index(s)
        except TypeError:
            raise ValueError(f"{what} {s!r} is not an integer") from None
        if not 0 <= s < q:
            raise ValueError(f"{what} {s} outside GF({q})")
        out.append(s)
    return out


class Codeword:
    """One n-symbol vector split into a parity block and a data block.

    A word is checked once, when it enters the library:
    ``Codeword(params, symbols)`` hands any iterable to ``_field_symbols``,
    the entry check that ``encode`` and ``embed`` share for input from
    outside, and keeps a copy of what it returns.  The check raises
    ``LengthMismatchError`` unless there are n symbols and ``ValueError``
    for an input that is not iterable or a symbol that is not an integer or
    lies outside [0, q).  Ints, bools and numpy integers pass and are stored
    as ``int``.
    ``decode`` and ``syndromes`` use a ``Codeword`` of their own geometry as
    it is, and the words the library computes from checked symbols
    (``encode``, ``embed``, and ``_xor`` for ``apply_noise`` and ``decode``)
    are built by ``_of``, without a second check.  An ``RSSTEG01`` payload,
    whose symbols are m-bit fields by construction, builds a ``Codeword``
    only for a word whose error pattern reaches its data block, by ``_of``,
    to correct it with ``_xor``: ``container`` lays out and decodes its
    words as symbol lists and payload slices, through ``_codeword`` and
    ``_error_pattern``.
    Mutating ``symbols`` afterwards is unsupported.
    """

    __slots__ = ("params", "symbols")

    def __init__(self, params: CodeParams, symbols: Iterable[int]):
        self.params = params
        self.symbols = _field_symbols(symbols, params.n, params.field.q, "symbol").copy()

    @classmethod
    def _of(cls, params: CodeParams, symbols: list[int]) -> "Codeword":
        """Wrap n symbols already known to lie in [0, q), without a check."""
        word = cls.__new__(cls)
        word.params, word.symbols = params, symbols
        return word

    def _xor(self, pattern: Mapping[int, int]) -> "Codeword":
        """A new word: this one XOR an error pattern, position -> delta in
        [0, q).  The one place where a word's symbols change by a pattern
        (see the module docstring)."""
        symbols = self.symbols.copy()
        for pos, delta in pattern.items():
            symbols[pos] ^= delta
        return Codeword._of(self.params, symbols)

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


def encode(params: CodeParams, data: Iterable[int]) -> Codeword:
    """Systematic encode: the k data symbols appear verbatim in the codeword.

    ``data`` is any iterable of k symbols, checked by the ``Codeword``
    rule: ``LengthMismatchError`` for another count and ``ValueError`` for
    a symbol that is not an integer in [0, q); integer types other than
    ``int`` are stored as ``int``.
    """
    data = _field_symbols(data, params.k, params.field.q, "data symbol")
    return Codeword._of(params, _codeword(build_cauchy(params), data))


def _codeword(gen: CauchyGenerator, data: Sequence[int]) -> list[int]:
    """The n symbols of the codeword of k data symbols already known to lie
    in [0, q): the layout rule, parity in positions [0, n-k), then the data
    reversed."""
    lanes = gen.lanes
    return [*lanes.unpack(_parity(gen, data).to_bytes(lanes.size, "big")), *reversed(data)]


def _parity(gen: CauchyGenerator, data: Iterable[int]) -> int:
    """Parity block of k in-range data symbols, packed as ``gen.lanes``
    packs it: position 0 in the top lane.

    One LFSR step per data symbol, d_0 first: the register holds the
    remainder so far, shifting it multiplies by x, and the coefficient that
    leaves the low lane plus d picks the multiple of g to add back.
    """
    width, table = gen.lane_bits, gen.table
    low = (1 << width) - 1
    rem = 0
    for d in data:
        rem = (rem >> width) ^ table[(rem & low) ^ d]
    return rem


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
    symbol that is not an integer in [0, q) ``ValueError``.
    """
    word = _received(params, received)
    data, remainder = word.data, word.symbols[:params.n_parity]
    if any(data):   # zero data re-encodes to zero parity
        remainder = _remainder(build_cauchy(params), data, remainder)
    log = params.field._log
    terms = [(log[e], i) for i, e in enumerate(remainder) if e]
    return list(_evaluate(params, terms, params.n_parity))


def _remainder(gen: CauchyGenerator, data: Sequence[int],
               parity: Sequence[int]) -> tuple[int, ...]:
    """The parity remainder e_0 .. e_(n-k-1) of a received word, from its
    data block (d_0 first) and its parity block (position order): the
    re-encoded parity XOR the received parity, as one packed int.  So
    e = r + c for the re-encoded codeword c, and e is zero on the data
    positions."""
    lanes = gen.lanes
    rem = _parity(gen, data) ^ int.from_bytes(lanes.pack(*parity), "big")
    return lanes.unpack(rem.to_bytes(lanes.size, "big"))


@lru_cache(maxsize=CAUCHY_CACHE_SIZE)
def _exp_run(params: CodeParams) -> bytes | array:
    """exp[0 .. n) repeated over n + max((n-k-1)(n-k), t*n) lanes, one byte
    each when m <= 8 and an ``array('H')`` lane when m > 8.

    ``_evaluate`` reads exp[l + j*s] with l < n, for s <= n-k at j < n-k
    (syndromes) and for s <= n at j <= t (the Chien scan): all fall inside
    it.  Built by the first ``syndromes`` call of a geometry, never by
    ``build_cauchy``.
    """
    n, n_parity = params.n, params.n_parity
    size = n + max((n_parity - 1) * n_parity, params.t * n)
    exp = params.field._exp[:n]
    reps = -(-size // n)
    if params.field.m <= 8:
        return (bytes(exp) * reps)[:size]
    run = array("H", exp) * reps
    del run[size:]
    return run


def _evaluate(params: CodeParams, terms: Iterable, count: int) -> bytes | array:
    """The count lanes of sum c alpha^(j*s) for s = 1 .. count, over the
    log terms (log c, j): one byte each when m <= 8, else an ``array('H')``.

    Term c x^j at alpha^s is exp[log c + j*s], so the term is the slice
    run[log c + j : log c + j + j*count : j] of the exp run, and a constant
    term is its value repeated.  The slices are XORed as ints and the lanes
    are read back once.
    """
    run = _exp_run(params)
    acc = 0
    for log_c, j in terms:
        start = log_c + j
        row = run[start:start + j * count:j] if j else run[start:start + 1] * count
        acc ^= int.from_bytes(row, "little")
    if params.field.m <= 8:
        return acc.to_bytes(count, "little")
    return array("H", acc.to_bytes(2 * count, "little"))


@dataclass
class DecodeResult:
    """Outcome of one decode; ``failure`` means more than t errors detected.

    ``error_magnitudes`` is the error pattern, position -> nonzero XOR
    magnitude: ``corrected`` is the received word XOR it.  A failure holds
    the received word and an empty pattern.
    """

    corrected: Codeword
    error_magnitudes: dict[int, int] = dc_field(default_factory=dict)
    failure: bool = False

    @property
    def error_positions(self) -> tuple[int, ...]:
        """The corrected positions in ascending order."""
        return tuple(sorted(self.error_magnitudes))


def _berlekamp_massey(
    f: GF2m, synd: Sequence[int], log_synd: Sequence[int], t: int
) -> tuple[list[int], int, list[tuple[int, int]]] | None:
    """Minimal LFSR for synd, or None once its length L exceeds t.

    Returns the error locator (t + 1 ascending coefficients, loc[0] = 1,
    degree at most L), L, and the correction term B = x^gap * prev /
    prev_disc as log terms (log b, j), which Forney reads.  log_synd holds
    the syndromes' logs, read only where the syndrome is nonzero; products
    are sums of logs.
    """
    n, exp, log = f.q - 1, f._exp, f._log
    loc = [1] + [0] * t
    prev = loc
    length = 0
    gap = 1
    log_prev_disc = 0
    for idx, s in enumerate(synd):
        disc = s
        for i in range(1, length + 1):
            c = loc[i]
            if c and synd[idx - i]:
                disc ^= exp[log[c] + log_synd[idx - i]]
        if disc:
            grow = 2 * length <= idx
            if grow and idx + 1 - length > t:
                return None   # L never decreases, so this is the final verdict
            log_disc = log[disc]
            log_scale = (log_disc - log_prev_disc) % n   # disc / prev_disc
            new = loc.copy() if grow else loc
            # deg x^gap * prev <= the new length <= t: every term has a slot.
            for i, p in enumerate(prev, gap):
                if p:
                    new[i] ^= exp[log_scale + log[p]]
            if grow:
                prev, log_prev_disc = loc, log_disc
                length, gap = idx + 1 - length, 0
            loc = new
        gap += 1
    correction = [((log[p] - log_prev_disc) % n, j)
                  for j, p in enumerate(prev, gap) if p]
    return loc, length, correction


def decode(params: CodeParams, received) -> DecodeResult:
    """Correct up to t symbol errors.

    The data block is re-encoded first.  If the re-encoded codeword is
    within distance t of the received word, the differing parity positions
    are the error pattern (see the module docstring).  Otherwise the n - k
    syndromes go through Berlekamp-Massey, Chien and Forney.  Both paths
    give the same pattern for every word, and the corrected word is the
    received word XOR that pattern.

    The received word is taken as ``syndromes`` takes it: a ``Codeword`` of
    this geometry is used as it is and not copied, and anything else of the
    wrong length raises ``LengthMismatchError`` or, with a symbol that is
    not an integer in [0, q), ``ValueError``.  Any word of n in-range
    integer symbols never raises.
    Failure is flagged in two places, after Berlekamp-Massey and after the
    Chien scan; a failed result holds the received word.  A success is a
    new valid codeword within distance t, and beyond t errors it may be a
    miscorrection to another valid codeword.
    """
    word = _received(params, received)
    pattern = _error_pattern(params, build_cauchy(params), word.data,
                             word.symbols[:params.n_parity])
    if pattern is None:
        return DecodeResult(corrected=word, failure=True)
    return DecodeResult(corrected=word._xor(pattern), error_magnitudes=pattern)


def _error_pattern(params: CodeParams, gen: CauchyGenerator, data: Sequence[int],
                   parity: Sequence[int]) -> dict[int, int] | None:
    """The decoder's verdict on the received word with data block ``data``
    (d_0 first) and parity block ``parity`` (position order): its error
    pattern, position -> nonzero magnitude in ascending position order, or
    None when decoding fails.  The data block is re-encoded once; up to t
    nonzero remainder lanes are the pattern (the re-encoding shortcut), and
    more go to the syndrome path."""
    error = _remainder(gen, data, parity)   # e = r + c; 0 on the data
    pattern = {i: e for i, e in enumerate(error) if e}
    if len(pattern) <= params.t:
        return pattern
    return _syndrome_pattern(params, error)


def _syndrome_pattern(params: CodeParams, error: Sequence[int]) -> dict[int, int] | None:
    """The error pattern of a word whose parity remainder is ``error`` (its
    n - k low symbols; the data block is zero), from Berlekamp-Massey, Chien
    and Forney, in ascending position order; None when decoding fails."""
    f = params.field
    # S(e) = S(r); e holds n in-range symbols, so it is not checked again.
    synd = syndromes(params, Codeword._of(params, [*error, *[0] * params.k]))
    n, exp, log = params.n, f._exp, f._log
    log_synd = [log[s] for s in synd]   # log[0] is a placeholder, never read
    found = _berlekamp_massey(f, synd, log_synd, params.t)
    if found is None:
        return None
    loc, length, correction = found

    # Chien scan: position i is in error iff loc(alpha^-i) = 0.  Lane s-1
    # holds loc(alpha^s) = loc(alpha^-(n-s)), so reversed, lane i stands for
    # position i.  A locator of degree d <= L has at most d roots, so L
    # zeros also means degree L.
    terms = [(log[c], j) for j, c in enumerate(loc) if c]
    values = _evaluate(params, terms, n)[::-1]
    if values.count(0) != length:
        return None

    # Forney's value with first consecutive root alpha^1, in Horiguchi's form
    #   Y = X^-(n-k) / (B(X^-1) * loc'(X^-1))
    # for the correction term B.  loc has distinct roots, so loc' does not
    # vanish at them, and omega(X^-1) * B(X^-1) = X^-(n-k) (module
    # docstring), so neither does B: both values have logs.
    # In characteristic 2 the formal derivative keeps the odd powers only:
    # c_j x^j becomes c_j x^(j-1) for odd j.
    deriv_terms = [(log_c, j - 1) for log_c, j in terms if j % 2]
    pattern, i = {}, -1
    for _ in range(length):
        i = values.index(0, i + 1)
        b = d = 0
        for log_c, j in correction:
            b ^= exp[(log_c - i * j) % n]
        for log_c, j in deriv_terms:
            d ^= exp[(log_c - i * j) % n]
        pattern[i] = exp[(-params.n_parity * i - log[b] - log[d]) % n]
    return pattern
