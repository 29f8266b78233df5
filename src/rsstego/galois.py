"""Arithmetic in GF(2^m) and polynomials over it: what the RS codec uses.

Field elements are plain ints in [0, 2^m): the binary digits are the
coefficients of a polynomial over GF(2), reduced modulo an irreducible
polynomial of degree m.  Addition is XOR, written inline by callers
(characteristic 2, so addition and subtraction coincide); multiplication
and division go through log/antilog tables built from the primitive
element alpha = x (the int 2), and ``div(1, a)`` is the inverse of a.  The
tables cost 2 * 2^m ints of memory, which is why m is capped at 16.

Polynomials over the field are lists of ints, index = power of x; the
empty list is the zero polynomial.  The codec needs one operation on them,
the Horner evaluation ``poly_eval``, which computes the syndromes and the
Forney values.  The decoder builds its polynomials inline, and the Chien
scan sums the locator's terms in logs instead.
"""

from __future__ import annotations

from typing import Sequence

# Default irreducible polynomials with x primitive, one per degree.
DEFAULT_PRIMITIVE_POLY: dict[int, int] = {
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
}


class ReduciblePolynomialError(ValueError):
    """The modulus factors over GF(2), so the quotient ring is not a field."""


class NonPrimitiveGeneratorError(ValueError):
    """x does not generate the multiplicative group of the field."""


def _gf2_mod(a: int, b: int) -> int:
    """Remainder of carry-less division of a by b (bits = GF(2) coefficients)."""
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def gf2_is_irreducible(poly: int, m: int) -> bool:
    """Trial division by every GF(2) polynomial of degree 1..m//2."""
    if poly <= 0 or poly.bit_length() - 1 != m:
        return False
    for d in range(2, 1 << (m // 2 + 1)):
        if _gf2_mod(poly, d) == 0:
            return False
    return True


class GF2m:
    """The finite field GF(2^m), 2 <= m <= 16.

    Construction validates the modulus (irreducible of degree m, checked by
    trial division) and that alpha = x is primitive (its powers must visit
    every nonzero element exactly once while the tables are built).
    """

    __slots__ = ("m", "q", "primitive_poly", "alpha", "_exp", "_log")

    def __init__(self, m: int, primitive_poly: int | None = None):
        if not 2 <= m <= 16:
            raise ValueError(f"m must be in [2, 16], got {m}")
        if primitive_poly is None:
            primitive_poly = DEFAULT_PRIMITIVE_POLY[m]
        # bit_length ignores the sign, and trial division never ends on a
        # negative int, so the sign is tested first.
        if not (isinstance(primitive_poly, int) and primitive_poly > 0
                and primitive_poly.bit_length() - 1 == m):
            raise ValueError(
                f"modulus {primitive_poly!r} is not a positive int of degree {m}"
            )
        if not gf2_is_irreducible(primitive_poly, m):
            raise ReduciblePolynomialError(
                f"0x{primitive_poly:x} is reducible over GF(2)"
            )
        self.m = m
        self.q = 1 << m
        self.primitive_poly = primitive_poly
        self.alpha = 2

        # exp table doubled so mul/div never need an explicit modulo.
        order = self.q - 1
        exp = [0] * (2 * order)
        log = [0] * self.q
        val = 1
        for i in range(order):
            if val == 1 and i > 0:
                raise NonPrimitiveGeneratorError(
                    f"x has order {i} < {order} modulo 0x{primitive_poly:x}"
                )
            exp[i] = val
            log[val] = i
            val <<= 1
            if val & self.q:
                val ^= primitive_poly
        for i in range(order, 2 * order):
            exp[i] = exp[i - order]
        self._exp = exp
        self._log = log

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, primitive_poly=0x{self.primitive_poly:x})"

    # The tables are a function of (m, primitive_poly): that pair is the value.
    def __eq__(self, other) -> bool:
        if not isinstance(other, GF2m):
            return NotImplemented
        return (self.m, self.primitive_poly) == (other.m, other.primitive_poly)

    def __hash__(self) -> int:
        return hash((self.m, self.primitive_poly))

    # ------------------------------------------------------------------
    # element arithmetic (addition is XOR)
    # ------------------------------------------------------------------
    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def div(self, a: int, b: int) -> int:
        """a / b; div(1, b) is the inverse of b."""
        if b == 0:
            raise ZeroDivisionError("division by zero field element")
        if a == 0:
            return 0
        return self._exp[self._log[a] - self._log[b] + self.q - 1]

    def alpha_pow(self, e: int) -> int:
        """alpha^e for any integer e (negative exponents wrap)."""
        return self._exp[e % (self.q - 1)]

    # ------------------------------------------------------------------
    # polynomials (coefficient lists, ascending powers)
    # ------------------------------------------------------------------
    def poly_eval(self, p: Sequence[int], x: int) -> int:
        """Horner evaluation of p at x; the zero polynomial evaluates to 0.

        The accumulator is multiplied by x in the log domain: one addition
        of logs per coefficient.
        """
        if x == 0:   # _log[0] is a placeholder (it equals _log[1]), not a log
            return p[0] if p else 0
        exp, log = self._exp, self._log
        log_x = log[x]
        acc = 0
        for c in reversed(p):
            if acc:
                acc = exp[log[acc] + log_x]
            acc ^= c
        return acc
