"""Field construction, arithmetic axioms and polynomial helpers."""

import random

import pytest

from rsstego import DEFAULT_PRIMITIVE_POLY, CodeParams, GF2m, encode
from oracles import eval_term_by_term, gf2_is_irreducible_oracle


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def test_gf32_default_poly_builds():
    f = GF2m(5)
    assert f.q == 32
    assert f.primitive_poly == 0b100101  # x^5 + x^2 + 1
    assert gf2_is_irreducible_oracle(f.primitive_poly, 5)


def test_gf8_default_poly_builds():
    f = GF2m(3)
    assert f.q == 8
    # x^3 + x + 1: no root in GF(2), degree 3 => irreducible
    assert f.primitive_poly == 0b1011
    assert gf2_is_irreducible_oracle(f.primitive_poly, 3)


def test_rejects_unsupported_m():
    with pytest.raises(ValueError):
        GF2m(1)
    with pytest.raises(ValueError):
        GF2m(17)


@pytest.mark.parametrize("m", range(2, 17))
def test_all_default_polys_valid(m):
    """alpha = x has order q - 1 modulo DEFAULT_PRIMITIVE_POLY[m], so every
    nonzero residue is a power of x, hence a unit: the modulus is
    irreducible as well as primitive.  Nothing checks it at run time."""
    f = GF2m(m)
    assert f.primitive_poly == DEFAULT_PRIMITIVE_POLY[m]
    assert f.primitive_poly.bit_length() - 1 == m
    assert {f.alpha_pow(i) for i in range(f.q - 1)} == set(range(1, f.q))
    assert all(f.alpha_pow(i) != 1 for i in range(1, f.q - 1))
    if m <= 8:   # the factor search costs about m * 2^m products
        assert gf2_is_irreducible_oracle(f.primitive_poly, m)


def test_modulus_table_is_read_only():
    assert sorted(DEFAULT_PRIMITIVE_POLY) == list(range(2, 17))
    with pytest.raises(TypeError):
        DEFAULT_PRIMITIVE_POLY[5] = 0b101001


def test_fields_compare_by_value():
    """Fields with the same m are equal, and so is what they build."""
    a, b = GF2m(5), GF2m(5)
    assert a == b
    assert hash(a) == hash(b)
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
            expected = gf32.mul(expected, 2)
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
            for x in (0, 1, 2, rnd.randrange(f.q)):
                assert f.poly_eval(p, x) == eval_term_by_term(f, p, x)
