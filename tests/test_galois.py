"""Field construction, the exp table and the arithmetic axioms of ``mul``."""

import random

import pytest

from rsstego import DEFAULT_PRIMITIVE_POLY, CodeParams, GF2m, encode
from oracles import alpha_pow, gf2_is_irreducible_oracle, inverse, powers_of_x


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
    irreducible as well as primitive.  Nothing checks it at run time.  The
    powers checked are the codec's own exp table, compared with shift and
    reduce, which does not use the tables."""
    f = GF2m(m)
    assert f.primitive_poly == DEFAULT_PRIMITIVE_POLY[m]
    assert f.primitive_poly.bit_length() - 1 == m
    powers = f._exp[:f.q - 1]
    assert powers == powers_of_x(f.primitive_poly, m)
    assert set(powers) == set(range(1, f.q))   # q - 1 distinct powers
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
# element arithmetic
# ----------------------------------------------------------------------
def test_mul_inverse(gf8, gf32):
    for f in (gf8, gf32):
        for a in range(1, f.q):
            assert f.mul(a, inverse(f, a)) == 1


def test_gf8_alpha_power_product(gf8):
    # alpha^3 * alpha^5 = alpha^8 = alpha^(8 mod 7) = alpha
    a3, a5 = alpha_pow(gf8, 3), alpha_pow(gf8, 5)
    assert gf8.mul(a3, a5) == alpha_pow(gf8, 1) == 2


def test_gf8_exp_table_golden(gf8):
    assert gf8._exp[:7] == [1, 2, 4, 3, 6, 7, 5]


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
