"""Arithmetic in GF(2^m), the field the RS codec works over.

Field elements are plain ints in [0, 2^m): the binary digits are the
coefficients of a polynomial over GF(2), reduced modulo the fixed
polynomial ``DEFAULT_PRIMITIVE_POLY[m]``.  There is one field per m because
an ``RSSTEG01`` container stores only m: a word written under any other
modulus could not be read back.  Addition is XOR, written inline by callers
(characteristic 2, so addition and subtraction coincide), and
multiplication goes through log/antilog tables built from the primitive
element alpha = x (the int 2).  The tables cost 3 * 2^m ints of memory,
which is why m is capped at 16.

Nothing checks the moduli at run time; a test does, for every m.  If the
powers alpha^0 .. alpha^(q-2) visit every nonzero residue exactly once, x
has order q - 1 in GF(2)[x]/(p).  Every nonzero residue is then a power of
x, hence a unit, so the ring is a field and p is irreducible as well as
primitive.

The codec reads ``_exp`` and ``_log`` itself: the encoder XORs packed
multiples of g(x), and the decoder multiplies by adding logs and
evaluates polynomials in ``rs._evaluate``, which saves a method call per
product.  ``mul`` is the field's one public arithmetic method: the tests
and the demos build powers of alpha, inverses and polynomial evaluation
from it, and the benchmark counts its calls.
"""

from __future__ import annotations

from types import MappingProxyType

# The modulus of GF(2^m), one per degree: irreducible, with x primitive.
DEFAULT_PRIMITIVE_POLY = MappingProxyType({
    2: 0b111,               # x^2 + x + 1
    3: 0b1011,              # x^3 + x + 1
    4: 0b10011,             # x^4 + x + 1
    5: 0b100101,            # x^5 + x^2 + 1
    6: 0b1000011,           # x^6 + x + 1
    7: 0b10001001,          # x^7 + x^3 + 1
    8: 0b100011101,         # x^8 + x^4 + x^3 + x^2 + 1
    9: 0x211,               # x^9 + x^4 + 1
    10: 0x409,              # x^10 + x^3 + 1
    11: 0x805,              # x^11 + x^2 + 1
    12: 0x1053,             # x^12 + x^6 + x^4 + x + 1
    13: 0x201B,             # x^13 + x^4 + x^3 + x + 1
    14: 0x4443,             # x^14 + x^10 + x^6 + x + 1
    15: 0x8003,             # x^15 + x + 1
    16: 0x1100B,            # x^16 + x^12 + x^3 + x + 1
})


class GF2m:
    """The finite field GF(2^m), 2 <= m <= 16.

    The modulus is ``DEFAULT_PRIMITIVE_POLY[m]``, kept as ``primitive_poly``:
    an ``RSSTEG01`` container stores only m, so a word can be read back
    under one field per m.  A field is a function of m and compares and
    hashes by m.  The modulus is not checked here.  A test checks that
    alpha = x has order q - 1 modulo it, so every nonzero residue is a
    power of x, hence a unit: the modulus is irreducible and primitive.
    """

    __slots__ = ("m", "q", "primitive_poly", "_exp", "_log")

    def __init__(self, m: int):
        if not 2 <= m <= 16:
            raise ValueError(f"m must be in [2, 16], got {m}")
        self.m = m
        self.q = 1 << m
        self.primitive_poly = poly = DEFAULT_PRIMITIVE_POLY[m]

        # exp table doubled so a sum of two logs needs no modulo.
        order = self.q - 1
        exp = [0] * (2 * order)
        log = [0] * self.q
        val = 1
        for i in range(order):
            exp[i] = val
            log[val] = i
            val <<= 1
            if val & self.q:
                val ^= poly
        for i in range(order, 2 * order):
            exp[i] = exp[i - order]
        self._exp = exp
        self._log = log

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, primitive_poly=0x{self.primitive_poly:x})"

    # The tables are a function of m: m is the value.
    def __eq__(self, other) -> bool:
        if not isinstance(other, GF2m):
            return NotImplemented
        return self.m == other.m

    def __hash__(self) -> int:
        return hash(self.m)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]
