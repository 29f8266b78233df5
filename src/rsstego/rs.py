"""Systematic Reed-Solomon codec over GF(2^m).

The code has length n = q - 1 and corrects t = (n - k) // 2 symbol errors.
A codeword stores its parity block in positions [0, n-k) and its data block
in positions [n-k, n), with the vectors indexed from the top: data symbol i
sits at position n-1-i and parity symbol j at position n-k-1-j.
``Codeword.data`` and ``Codeword.parity`` are the one definition of that
layout; read the blocks through them rather than hard-coding positions.

Encoding is parity = data x A for a k x (n-k) Cauchy matrix

    A[i][j] = u_i * v_j / (x_i + y_j)

where x_i = alpha^(n-1-i) and y_j = alpha^(n-1-k-j) are the evaluation
points of the data and parity positions, and u_i, v_j are the Lagrange
normalization products

    u_i = 1 / prod_{l != i} (x_i + x_l),    v_j = prod_l (y_j + x_l).

Equivalently the codeword is the evaluation of the unique degree < k
polynomial through the data points, so every codeword has roots
alpha^1 .. alpha^(n-k) and zero syndromes.  The data and parity points
together are all of GF(2^m)*, so prod_{z != 0} (X + z) = X^n + 1.  Its
derivative at x_i is the product over the other points,
prod_{z != 0, x_i} (x_i + z), and equals n * x_i^(n-1) = 1 / x_i because
n is odd.  Hence

    u_i = x_i * prod_j (x_i + y_j),

which costs n-k products instead of k-1, and ``build_cauchy`` runs in
O(k(n-k)) like the matrix itself (the standard Cauchy-RS normalisation;
Bloemer et al. 1995, Plank & Xu 2006).

Multiplying by a constant is GF(2)-linear, so the encoder never multiplies
symbols.  For each matrix row the generator keeps lookup tables of packed
parity vectors, one 8-bit lane per parity symbol (16-bit when m > 8): the
entry for a chunk of data bits is that chunk times the whole row.  A data
symbol contributes one table entry per chunk of its bits, and a codeword's
parity is the XOR of those k * ceil(m / chunk) big ints, split back into
lanes by one ``int.to_bytes``.  The tables are derived from the matrix by
multiplying every lane by alpha at once, on first use, and live on the
cached generator.

Decoding first re-encodes the received data block with the encoder
tables.  That gives a codeword c, and the error word e = r + c is zero on
the data positions.  When e = 0 the word is clean.  When 0 < wt(e) <= t,
c itself is the answer: codewords are at least n - k + 1 > 2t apart, so
the c with d(r, c) = wt(e) <= t is the unique codeword within distance t,
the one any bounded-distance decoder returns, and its error pattern is e
on its support.  This is the common case for stego words, whose hidden
symbols sit in the parity block by default, and it needs no syndromes
and no field multiplication.

Otherwise the decoder is classical syndrome decoding from all n - k
syndromes: Berlekamp-Massey for the minimal error-locator polynomial, a
Chien scan over the q - 1 nonzero elements for the error positions, and
Forney's formula for the magnitudes.  It fails in exactly two places: the
locator's length L exceeds t or differs from its degree, or the scan finds
other than L roots.  A success needs no re-check of the corrected word:

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
from functools import cached_property, lru_cache
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
    """Precomputed systematic generator: parity = data x matrix.

    Only the matrix is kept; the evaluation points x, y and the normalisers
    u, v it is built from are locals of ``build_cauchy``.
    """

    field: GF2m
    matrix: tuple[tuple[int, ...], ...]   # k rows, n-k columns

    @cached_property
    def lanes(self) -> struct.Struct:
        """Byte layout of a packed parity vector: one big-endian lane per
        parity symbol, 8 bits wide (16 when m > 8), lane n-k-1 first."""
        n_parity = len(self.matrix[0])
        return struct.Struct(f">{n_parity}{'B' if self.field.m <= 8 else 'H'}")

    @property
    def chunk_bits(self) -> int:
        """Data bits looked up at once: 2^chunk_bits table entries per chunk.

        Narrower chunks above m = 8 keep the tables within about twice the
        memory of the matrix, whose entries there are no longer cached
        small ints.
        """
        return 4 if self.field.m <= 8 else 2

    @cached_property
    def tables(self) -> tuple[list[int], ...]:
        """Per data row i, flat lookup tables of packed parity vectors.

        Entry (c << chunk_bits) | b holds the n-k products
        (b << (c * chunk_bits)) * matrix[i][j] for chunk c of the data
        bits, parity symbol j in lane j.  Multiplying by a constant is
        GF(2)-linear, so data symbol d contributes the XOR of one entry per
        chunk of its bits.  Built on first use by ``encode`` or
        ``syndromes``, so a generator that only answers set-up questions
        never pays for it.
        """
        f = self.field
        m, width, pack = f.m, self.chunk_bits, self.lanes.pack
        top = int.from_bytes(pack(*[1 << (m - 1)] * len(self.matrix[0])), "big")
        low = f.primitive_poly ^ f.q
        tables = []
        for row in self.matrix:
            r = int.from_bytes(pack(*reversed(row)), "big")
            basis = []   # row * alpha^b for b = 0 .. m-1, every lane at once
            for _ in range(m):
                basis.append(r)
                hi = r & top
                r = ((r ^ hi) << 1) ^ ((hi >> (m - 1)) * low)
            flat = []
            for lo in range(0, m, width):
                table = [0]
                for b in basis[lo:lo + width]:
                    table += [t ^ b for t in table]
                flat += table
            tables.append(flat)
        return tuple(tables)


# A generator with its encoder tables takes about 9 MB at RS(4095,4063).
# Callers use one or a few geometries at a time; eight keeps those warm and
# bounds what a caller cycling through many geometries keeps alive.
CAUCHY_CACHE_SIZE = 8


@lru_cache(maxsize=CAUCHY_CACHE_SIZE)
def build_cauchy(params: CodeParams) -> CauchyGenerator:
    """Build the Cauchy generator matrix for the given geometry."""
    f = params.field
    n, k = params.n, params.k
    exp, log = f._exp, f._log
    x = tuple(exp[n - 1 - i] for i in range(k))
    y = tuple(exp[n - 1 - k - j] for j in range(n - k))

    # Work in logs (base alpha, modulo the group order n).
    log_v = [sum(log[yj ^ xi] for xi in x) % n for yj in y]
    matrix = []
    for i, xi in enumerate(x):
        log_den = [log[xi ^ yj] for yj in y]
        log_u = (n - 1 - i + sum(log_den)) % n   # u_i = x_i * prod_j (x_i + y_j)
        matrix.append(tuple(
            exp[(log_u + lv - ld) % n] for lv, ld in zip(log_v, log_den)
        ))
    return CauchyGenerator(field=f, matrix=tuple(matrix))


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

    XORs one table entry per chunk of each data symbol's bits, then splits
    the packed vector into lanes; lane n-k-1 comes first, and parity symbol
    j sits at position n-k-1-j.
    """
    width = gen.chunk_bits
    mask = (1 << width) - 1
    acc = 0
    for row, d in zip(gen.tables, data):
        offset = 0
        while d:
            acc ^= row[offset | (d & mask)]
            d >>= width
            offset += mask + 1
    lanes = gen.lanes
    return lanes.unpack(acc.to_bytes(lanes.size, "big"))


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
    re-encode; any other word builds, on the first call for a geometry,
    the encoder tables of its cached generator, as ``encode`` does.  A
    ``Codeword`` of this geometry is not checked again.  A raw sequence, or
    a ``Codeword`` of another geometry, is checked like a new ``Codeword``:
    the wrong length raises ``LengthMismatchError`` and a symbol outside
    [0, q) ``ValueError``.
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
    """Minimal LFSR (error locator, ascending coeffs, loc[0] = 1) for synd."""
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
    while not loc[-1]:   # loc[0] = 1 stops the trim
        loc.pop()
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
    if length > params.t or len(loc) - 1 != length:
        return failed

    # Chien scan: position i is in error iff loc(alpha^-i) = 0, summed in
    # the log domain over the locator's nonzero terms c_j x^j.  Positions
    # come out in ascending order; a degree-L locator has at most L roots.
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
    for i, c in enumerate(loc):
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
