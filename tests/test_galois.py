"""Field construction, arithmetic axioms and polynomial helpers."""

import random

import pytest

from rsstego import (
    DEFAULT_PRIMITIVE_POLY,
    CodeParams,
    GF2m,
    NonPrimitiveGeneratorError,
    ReduciblePolynomialError,
    encode,
)
from oracles import eval_term_by_term, gf2_is_irreducible_oracle


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def test_gf32_default_poly_builds():
    f = GF2m(5, 0b100101)  # x^5 + x^2 + 1
    assert f.q == 32
    assert gf2_is_irreducible_oracle(0b100101, 5)


def test_gf8_default_poly_builds():
    f = GF2m(3, 0b1011)  # x^3 + x + 1: no root in GF(2), degree 3 => irreducible
    assert f.q == 8
    assert gf2_is_irreducible_oracle(0b1011, 3)


def test_reducible_poly_rejected():
    # x^3 + 1 = (x + 1)(x^2 + x + 1)
    with pytest.raises(ReduciblePolynomialError):
        GF2m(3, 0b1001)


def test_rejects_wrong_degree():
    with pytest.raises(ValueError):
        GF2m(3, 0b10011)  # degree 4 modulus for m=3


def test_rejects_unsupported_m():
    with pytest.raises(ValueError):
        GF2m(1)
    with pytest.raises(ValueError):
        GF2m(17)


def test_non_primitive_generator_rejected():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but x has order 5 in GF(16)*
    assert gf2_is_irreducible_oracle(0b11111, 4)
    with pytest.raises(NonPrimitiveGeneratorError):
        GF2m(4, 0b11111)


def test_construction_matches_irreducibility_oracle_exhaustive_m3():
    """Every degree-3 modulus: builds iff irreducible (x is then primitive)."""
    for poly in range(0b1000, 0b10000):
        irreducible = gf2_is_irreducible_oracle(poly, 3)
        try:
            GF2m(3, poly)
            built = True
        except (ReduciblePolynomialError, NonPrimitiveGeneratorError):
            built = False
        # |GF(8)*| = 7 is prime, so x is automatically primitive when the
        # modulus is irreducible: built iff irreducible
        assert built == irreducible


@pytest.mark.parametrize("m", sorted(DEFAULT_PRIMITIVE_POLY))
def test_all_default_polys_valid(m):
    f = GF2m(m)
    assert f.alpha_pow(f.q - 1) == 1


def test_fields_compare_by_value():
    """Fields with the same (m, modulus) are equal, and so is what they build."""
    a, b = GF2m(5), GF2m(5)
    assert a == b
    assert hash(a) == hash(b)
    assert a != GF2m(5, 0b101001)  # x^5 + x^3 + 1, another primitive modulus
    assert a != GF2m(4)
    assert a != 5
    pa, pb = CodeParams(a, 31, 19), CodeParams(b, 31, 19)
    assert pa == pb
    assert hash(pa) == hash(pb)
    assert encode(pa, list(range(19))) == encode(pb, list(range(19)))


# ----------------------------------------------------------------------
# table invariants
# ----------------------------------------------------------------------
@pytest.mark.parametrize("m", [3, 5])
def test_multiplicative_group_cyclic(m):
    f = GF2m(m)
    powers = {f.alpha_pow(i) for i in range(f.q - 1)}
    assert powers == set(range(1, f.q))
    for i in range(1, f.q - 1):
        assert f.alpha_pow(i) != 1


# ----------------------------------------------------------------------
# element arithmetic
# ----------------------------------------------------------------------
def test_mul_inverse(gf8, gf32):
    for f in (gf8, gf32):
        for a in range(1, f.q):
            assert f.mul(a, f.div(1, a)) == 1


def test_inv_zero_raises(gf8):
    with pytest.raises(ZeroDivisionError):
        gf8.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        gf8.div(3, 0)


def test_gf8_alpha_power_product(gf8):
    # alpha^3 * alpha^5 = alpha^8 = alpha^(8 mod 7) = alpha
    a3, a5 = gf8.alpha_pow(3), gf8.alpha_pow(5)
    assert gf8.mul(a3, a5) == gf8.alpha_pow(1) == 2


def test_gf8_exp_table_golden(gf8):
    assert [gf8.alpha_pow(i) for i in range(7)] == [1, 2, 4, 3, 6, 7, 5]


def test_field_axioms_exhaustive_gf8(gf8):
    f = gf8
    for a in range(8):
        for b in range(8):
            assert f.mul(a, b) == f.mul(b, a)
            for c in range(8):
                assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
                assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


def test_field_axioms_random_gf32(gf32):
    rnd = random.Random(5)
    for _ in range(2000):
        a, b, c = (rnd.randrange(32) for _ in range(3))
        assert gf32.mul(a, gf32.mul(b, c)) == gf32.mul(gf32.mul(a, b), c)
        assert gf32.mul(a, b ^ c) == gf32.mul(a, b) ^ gf32.mul(a, c)
        assert gf32.mul(b, c) == gf32.mul(c, b)


def test_pow(gf32):
    """alpha_pow takes any integer exponent, negative ones included."""
    rnd = random.Random(17)
    for _ in range(100):
        e = rnd.randrange(-50, 200)
        expected = 1
        for _ in range(e % 31):
            expected = gf32.mul(expected, gf32.alpha)
        assert gf32.alpha_pow(e) == expected


# ----------------------------------------------------------------------
# polynomials
# ----------------------------------------------------------------------
def test_poly_eval_constant(gf32):
    for c in (0, 1, 17):
        assert gf32.poly_eval([c], 9) == c
    assert gf32.poly_eval([], 9) == 0  # zero polynomial


def test_poly_eval_char2_identity(gf8):
    # p(x) = x^2 + 1 at x = 1: 1 XOR 1 = 0
    assert gf8.poly_eval([1, 0, 1], 1) == 0


def test_poly_eval_matches_term_by_term(gf32):
    """Log-domain Horner at x = 0 (no log), 1, alpha and random x, m = 2..16."""
    rnd = random.Random(23)
    for f in (GF2m(2), gf32, GF2m(8), GF2m(16)):
        assert f.poly_eval([], 0) == 0
        for _ in range(50):
            p = [rnd.randrange(f.q) for _ in range(6)]
            for x in (0, 1, f.alpha, rnd.randrange(f.q)):
                assert f.poly_eval(p, x) == eval_term_by_term(f, p, x)
