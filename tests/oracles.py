"""Independent reference implementations used only to check the library.

Everything here deliberately avoids the code paths under test: powers of
alpha and inverses are built from ``field.mul`` alone, the powers of x by
shift and reduce without the field's tables, polynomial helpers are
local, syndromes are literal power sums, and the brute-force decoder
enumerates error-position subsets and solves the syndrome system by
Gaussian elimination instead of Berlekamp-Massey.  The encoder, a
shift register over packed multiples of g(x), is checked against the
Cauchy matrix of Lagrange interpolation, built with one field
multiplication per product, and against long division by g(x) with one
field multiplication per term.  The bit-packing references read one big
int per byte string, or loop once per symbol and byte.
``rssteg01_container`` writes an RSSTEG01 container from the README's
payload rule, without the CLI.  The codeword layout is stated position
by position, the Hamming metric lives here because only tests use it,
and the expected ``%DS_M`` of a channel is an exact sum over its noise
events.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from rsstego import (
    CodeParams,
    GF2m,
    LengthMismatchError,
    derive_positions,
    embed,
    encode,
    fork,
    pack_container,
)


# ----------------------------------------------------------------------
# Hamming utilities
# ----------------------------------------------------------------------
def hamming_weight(x: Iterable) -> int:
    """Number of nonzero entries."""
    return sum(1 for a in x if a != 0)


def hamming_distance(x: Sequence, y: Sequence) -> int:
    """Number of positions in which two equal-length sequences differ."""
    if len(x) != len(y):
        raise LengthMismatchError(f"length mismatch: {len(x)} != {len(y)}")
    return sum(1 for a, b in zip(x, y) if a != b)


# ----------------------------------------------------------------------
# codeword layout, position by position
# ----------------------------------------------------------------------
def data_positions(params):
    """Codeword position of each data symbol: d_i sits at n-1-i."""
    return tuple(params.n - 1 - i for i in range(params.k))


def parity_positions(params):
    """Codeword position of each parity symbol: p_j sits at n-k-1-j."""
    return tuple(params.n - params.k - 1 - j for j in range(params.n - params.k))


# ----------------------------------------------------------------------
# GF(2) polynomial factor search (integers as coefficient bitmasks)
# ----------------------------------------------------------------------
def gf2_clmul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def gf2_is_irreducible_oracle(poly: int, m: int) -> bool:
    """Enumerate factor pairs (a, b) with deg a + deg b = m, deg >= 1 each."""
    if poly.bit_length() - 1 != m:
        return False
    for a in range(2, 1 << m):
        da = a.bit_length() - 1
        if da < 1 or da >= m:
            continue
        db = m - da
        for b in range(1 << db, 1 << (db + 1)):
            if gf2_clmul(a, b) == poly:
                return False
    return True


def powers_of_x(poly: int, m: int) -> list[int]:
    """x^0 .. x^(2^m - 2) modulo poly, by shift and reduce."""
    out, val = [], 1
    for _ in range((1 << m) - 1):
        out.append(val)
        val <<= 1
        if val >> m:
            val ^= poly
    return out


# ----------------------------------------------------------------------
# powers and inverses from field.mul alone
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _alpha_powers(field):
    """alpha^0 .. alpha^(q-2) by repeated multiplication by alpha = 2."""
    out = [1]
    for _ in range(field.q - 2):
        out.append(field.mul(out[-1], 2))
    return out


def alpha_pow(field, e: int) -> int:
    """alpha^e for any integer e; negative exponents wrap."""
    powers = _alpha_powers(field)
    return powers[e % len(powers)]


def inverse(field, a: int) -> int:
    """1 / a = a^(q-2), by square and multiply, since a^(q-1) = 1."""
    if a == 0:
        raise ZeroDivisionError("zero has no inverse")
    out, e = 1, field.q - 2
    while e:
        if e & 1:
            out = field.mul(out, a)
        a = field.mul(a, a)
        e >>= 1
    return out


# ----------------------------------------------------------------------
# generator-polynomial remainder encoder (self-contained poly helpers)
# ----------------------------------------------------------------------
def _poly_mul(field, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] ^= field.mul(ai, bj)
    return out


def _poly_rem(field, a, b):
    a = list(a)
    db = len(b) - 1
    inv_lead = inverse(field, b[-1])
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            c = field.mul(a[i], inv_lead)
            for j in range(db + 1):
                a[i - db + j] ^= field.mul(c, b[j])
    return a[:db]


def generator_poly(params):
    """g(x) with roots alpha^1 .. alpha^(n-k), ascending coefficients."""
    f = params.field
    g = [1]
    for j in range(1, params.n - params.k + 1):
        g = _poly_mul(f, g, [alpha_pow(f, j), 1])
    return g


def remainder_encode(params, data):
    """Systematic encode via division by g(x); data symbol i at position n-1-i."""
    f = params.field
    n, k = params.n, params.k
    msg = [0] * n
    for i, d in enumerate(data):
        msg[n - 1 - i] = d
    rem = _poly_rem(f, msg, generator_poly(params))
    cw = list(msg)
    for i, c in enumerate(rem):
        cw[i] ^= c
    return cw


# ----------------------------------------------------------------------
# literal syndrome sums (power sums of the received word)
# ----------------------------------------------------------------------
def direct_syndromes(params, symbols):
    """S_j = sum_i v_i * alpha^(i*j) for j = 1 .. n-k, one per root of g(x)."""
    f = params.field
    out = []
    for j in range(1, params.n - params.k + 1):
        s = 0
        for i, v in enumerate(symbols):
            s ^= f.mul(v, alpha_pow(f, i * j))
        out.append(s)
    return out


# ----------------------------------------------------------------------
# brute-force minimal-error decoder
# ----------------------------------------------------------------------
def _gauss_solve(field, rows, rhs):
    """Solve the square system rows * y = rhs; None if singular."""
    size = len(rows)
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = inverse(field, aug[col][col])
        aug[col] = [field.mul(inv, x) for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x ^ field.mul(factor, y) for x, y in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]


def brute_force_decode(params, symbols):
    """Smallest error set consistent with every syndrome equation.

    Enumerates position subsets of size v = 0..t, solves the first v power
    sum equations for the magnitudes and keeps a solution only if the
    remaining n-k - v equations hold too.  Returns (corrected_symbols,
    {position: magnitude}) or None when no codeword lies within distance t.
    """
    f = params.field
    synd = direct_syndromes(params, symbols)
    if not any(synd):
        return list(symbols), {}
    for v in range(1, params.t + 1):
        for subset in combinations(range(params.n), v):
            # position i is the locator alpha^i, so x^j = alpha^(i*j)
            rows = [[alpha_pow(f, i * j) for i in subset] for j in range(1, v + 1)]
            mags = _gauss_solve(f, rows, synd[:v])
            if mags is None or any(y == 0 for y in mags):
                continue
            ok = True
            for j in range(v + 1, params.n - params.k + 1):
                s = 0
                for i, y in zip(subset, mags):
                    s ^= f.mul(y, alpha_pow(f, i * j))
                if s != synd[j - 1]:
                    ok = False
                    break
            if ok:
                corrected = list(symbols)
                for pos, y in zip(subset, mags):
                    corrected[pos] ^= y
                return corrected, dict(zip(subset, mags))
    return None


# ----------------------------------------------------------------------
# direct Cauchy generator and scalar matrix-product encoder
# ----------------------------------------------------------------------
def cauchy_reference(params):
    """(x, y, u, v, matrix) of the systematic encoder's parity map.

    The codeword is the evaluation of the unique degree < k polynomial
    through the data points, so parity = data x A for the k x (n-k)
    Cauchy matrix

        A[i][j] = u_i * v_j / (x_i + y_j)

    where x_i = alpha^(n-1-i) and y_j = alpha^(n-1-k-j) are the evaluation
    points of the data and parity positions, and u_i, v_j are the Lagrange
    normalization products

        u_i = 1 / prod_{l != i} (x_i + x_l),    v_j = prod_l (y_j + x_l).

    u_i is computed here as that O(k^2) product.  A shorter form exists:
    the data and parity points together are all of GF(2^m)*, so
    prod_{z != 0} (X + z) = X^n + 1.  Its derivative at x_i is the product
    over the other points, prod_{z != 0, x_i} (x_i + z), and equals
    n * x_i^(n-1) = 1 / x_i because n is odd.  Hence

        u_i = x_i * prod_j (x_i + y_j),

    n-k products instead of k-1 (the standard Cauchy-RS normalisation;
    Bloemer et al. 1995, Plank & Xu 2006).  Row i of A is the parity of
    the unit data vector e_i, ``encode(params, e_i).parity``.
    """
    f = params.field
    n, k = params.n, params.k
    x = [alpha_pow(f, n - 1 - i) for i in range(k)]
    y = [alpha_pow(f, n - 1 - k - j) for j in range(n - k)]
    u = []
    for i in range(k):
        prod = 1
        for l in range(k):
            if l != i:
                prod = f.mul(prod, x[i] ^ x[l])
        u.append(inverse(f, prod))
    v = []
    for yj in y:
        prod = 1
        for xl in x:
            prod = f.mul(prod, yj ^ xl)
        v.append(prod)
    matrix = [
        [f.mul(f.mul(u[i], v[j]), inverse(f, x[i] ^ y[j])) for j in range(n - k)]
        for i in range(k)
    ]
    return x, y, u, v, matrix


def scalar_encode(params, matrix, data):
    """Codeword symbols for parity = data x matrix, one mul per entry."""
    f = params.field
    n, k = params.n, params.k
    symbols = [0] * n
    for i, d in enumerate(data):
        symbols[n - 1 - i] = d
    for j in range(n - k):
        p = 0
        for i in range(k):
            p ^= f.mul(data[i], matrix[i][j])
        symbols[n - k - 1 - j] = p
    return symbols


# ----------------------------------------------------------------------
# bit packing references
# ----------------------------------------------------------------------
def bigint_to_symbols(data, m, count):
    """The first `count` m-bit symbols of data read MSB-first as one big
    int, with zero bits past its end."""
    shift = count * m - len(data) * 8
    acc = int.from_bytes(data, "big")
    acc = acc << shift if shift >= 0 else acc >> -shift
    return [(acc >> (m * (count - 1 - i))) & ((1 << m) - 1) for i in range(count)]


def bitloop_pack_symbols(symbols, m):
    """m-bit symbols packed MSB-first, one loop pass per symbol, with the
    last byte zero-padded."""
    acc = 0
    nbits = 0
    out = bytearray()
    for s in symbols:
        acc = (acc << m) | s
        nbits += m
        while nbits >= 8:
            nbits -= 8
            out.append((acc >> nbits) & 0xFF)
            acc &= (1 << nbits) - 1   # keep only unwritten bits: linear time
    if nbits:
        out.append((acc << (8 - nbits)) & 0xFF)
    return bytes(out)


def bitloop_unpack_symbols(data, m):
    """Every whole m-bit symbol of data read MSB-first, one loop pass per
    byte; trailing bits short of a symbol are dropped."""
    out = []
    acc = 0
    nbits = 0
    for byte in data:
        acc = (acc << 8) | byte
        nbits += 8
        while nbits >= m:
            nbits -= m
            out.append(acc >> nbits)
            acc &= (1 << nbits) - 1
    return out


# ----------------------------------------------------------------------
# RSSTEG01 payload rule
# ----------------------------------------------------------------------
def rssteg01_container(data, message, m, k, stego, seed):
    """The container ``rsstego embed`` writes, from the README's rule: the
    codeword count is max(ceil(data symbols / k), ceil(message symbols /
    stego)), the carrier is zero-padded to that grid, and codeword i hides
    the next min(stego, remaining) message symbols at
    derive_positions(params, fork(seed, i), count)."""
    params = CodeParams(GF2m(m), (1 << m) - 1, k)
    data_symbols = bigint_to_symbols(data, m, -(-len(data) * 8 // m))
    remaining = bigint_to_symbols(message, m, -(-len(message) * 8 // m))
    count = -(-len(data_symbols) // k)
    if remaining:
        count = max(count, -(-len(remaining) // stego))
    data_symbols += [0] * (count * k - len(data_symbols))
    keys = rssteg01_keys(params, seed, stego, len(remaining), count)
    payload = []
    for i, key in enumerate(keys):
        hidden, remaining = remaining[:stego], remaining[stego:]
        clean = encode(params, data_symbols[i * k:(i + 1) * k])
        payload += embed(clean, key, hidden).symbols
    return pack_container(m, params.n, k, len(message), seed, payload)


def rssteg01_keys(params, seed, stego, symbols, codewords):
    """The README's key of each of ``codewords`` codewords, one scalar
    ``derive_positions`` call each: codeword i hides the next min(stego,
    remaining) of ``symbols`` message symbols at derive_positions(params,
    fork(seed, i), count)."""
    return [derive_positions(params, fork(seed, i), min(stego, max(0, symbols - i * stego)))
            for i in range(codewords)]


# ----------------------------------------------------------------------
# exact expected %DS_M
# ----------------------------------------------------------------------
def _noise_events(params, channel):
    """(probability, affected positions) for every noise event."""
    n, m = params.n, params.field.m
    if channel.mode == "none":
        return [(Fraction(1), ())]
    if channel.mode in ("single_symbol", "single_bit"):
        return [(Fraction(1, n), (pos,)) for pos in range(n)]
    w = channel.burst_bits
    offsets = n * m - w + 1
    weight = Fraction(1, offsets * ((1 << w) - 1))
    events = []
    for offset in range(offsets):
        for pattern in range(1, 1 << w):
            flipped = [offset + r for r in range(w) if pattern >> (w - 1 - r) & 1]
            events.append((weight, tuple({bit // m for bit in flipped})))
    return events


def expected_pct_decoded_secret(params, channel, pool):
    """Exact long-run %DS_M of a budget-respecting experiment.

    The data always decodes, and a message symbol is lost iff the noise
    event changes its position.  A uniform key of any size puts each pool
    position under a given message symbol with probability 1/|pool|, so
    the expected loss is the mean over the pool of P(position affected),
    whatever the stego count.
    """
    pool_positions = set(
        parity_positions(params) if pool == "parity" else range(params.n)
    )
    lost = sum(
        p * len(pool_positions.intersection(affected))
        for p, affected in _noise_events(params, channel)
    )
    return 100 * (1 - lost / len(pool_positions))
