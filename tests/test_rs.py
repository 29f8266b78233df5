"""Encoder/decoder contracts: Cauchy generator, syndromes, BM/Chien/Forney."""

import random
from collections import Counter
from dataclasses import fields
from fractions import Fraction
import tracemalloc
from itertools import combinations, product
from math import comb

import pytest

from rsstego import (
    CodeParams,
    Codeword,
    DecodeResult,
    DegenerateParamsError,
    GF2m,
    LengthMismatchError,
    build_cauchy,
    decode,
    derive_positions,
    embed,
    encode,
    extract,
    syndromes,
)
from rsstego import rs
from oracles import (
    alpha_pow,
    brute_force_decode,
    cauchy_reference,
    data_positions,
    direct_syndromes,
    generator_poly,
    hamming_distance,
    hamming_weight,
    mds_weights,
    miscorrection_probability,
    parity_positions,
    remainder_encode,
    scalar_encode,
    wilson_interval,
)


# ----------------------------------------------------------------------
# hamming utilities
# ----------------------------------------------------------------------
def test_hamming_identity():
    assert hamming_distance("0000", "0000") == 0
    assert hamming_distance([0, 0, 0, 0], [0, 0, 0, 0]) == 0


def test_hamming_all_differ():
    assert hamming_distance("10101", "01010") == 5


def test_hamming_length_mismatch():
    with pytest.raises(LengthMismatchError):
        hamming_distance("101", "10")


def test_hamming_weight_of_xor():
    """d(x, y) = weight(x XOR y), plus the metric axioms."""
    rnd = random.Random(3)
    for _ in range(500):
        nbits = rnd.randrange(1, 40)
        x = [rnd.randrange(2) for _ in range(nbits)]
        y = [rnd.randrange(2) for _ in range(nbits)]
        z = [rnd.randrange(2) for _ in range(nbits)]
        d = hamming_distance(x, y)
        assert d == hamming_weight([a ^ b for a, b in zip(x, y)])
        assert d == hamming_distance(y, x)
        assert d == 0 or x != y
        assert hamming_distance(x, z) <= d + hamming_distance(y, z)


# ----------------------------------------------------------------------
# geometry
# ----------------------------------------------------------------------
def test_params_validation(gf8, gf32):
    with pytest.raises(DegenerateParamsError):
        CodeParams(field=gf8, n=8, k=3)  # n != q - 1
    with pytest.raises(DegenerateParamsError):
        CodeParams(field=gf8, n=7, k=7)
    with pytest.raises(DegenerateParamsError):
        CodeParams(field=gf8, n=7, k=6)  # t = 0
    # A geometry that is not exactly an int: 19.0 == 19 and hashes alike,
    # so it would share the int geometry's generator cache entry.
    for n, k in ((31, 19.0), (31.0, 19), (31, True), ("31", 19), (31, "19")):
        with pytest.raises(DegenerateParamsError):
            CodeParams(field=gf32, n=n, k=k)
    # A field that is not a GF2m has no q to check n against.
    for field in (None, 5, "GF(32)"):
        with pytest.raises(DegenerateParamsError, match="field must be a GF2m"):
            CodeParams(field=field, n=31, k=19)


def test_layout_accessors(rs7):
    assert rs7.t == 2
    assert rs7.n_parity == 4
    assert data_positions(rs7) == (6, 5, 4)
    assert parity_positions(rs7) == (3, 2, 1, 0)
    rnd = random.Random(2)
    for m in range(2, 9):
        n = (1 << m) - 1
        for k in sorted({1, n // 2, n - 2}):
            params = CodeParams(field=GF2m(m), n=n, k=k)
            word = Codeword(params, [rnd.randrange(n + 1) for _ in range(n)])
            assert word.data == [word.symbols[p] for p in data_positions(params)]
            assert word.parity == [word.symbols[p] for p in parity_positions(params)]


def test_codeword_length_checked(rs7):
    with pytest.raises(LengthMismatchError):
        Codeword(rs7, [0] * 6)
    with pytest.raises(ValueError):
        Codeword(rs7, [0] * 6 + [9])  # symbol outside GF(8)


class _Index:
    """An integer type that is not int, as numpy's are: it has __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("bad", [1.0, 1.5, "1"], ids=repr)
def test_non_integer_symbols_rejected(rs31, bad):
    """A symbol that operator.index refuses raises ValueError wherever a word
    or a message enters the library, so it never reaches a codeword."""
    for check in (Codeword, decode, syndromes):
        for word in ([bad] + [0] * 30, [0] * 30 + [bad]):
            with pytest.raises(ValueError, match="not an integer"):
                check(rs31, word)
    for data in ([bad] + [0] * 18, [0] * 18 + [bad]):
        with pytest.raises(ValueError, match="not an integer"):
            encode(rs31, data)
    key = derive_positions(rs31, 1, 2)
    with pytest.raises(ValueError, match="not an integer"):
        embed(encode(rs31, [0] * 19), key, [2, bad])


def test_integer_symbols_are_stored_as_int(rs31):
    word = Codeword(rs31, [True, _Index(5)] + [0] * 29)
    assert word.symbols[:2] == [1, 5]
    key = derive_positions(rs31, 1, 2)
    stego = embed(encode(rs31, [0] * 19), key, [True, _Index(7)])
    assert [stego.symbols[p] for p in key.positions] == [1, 7]
    clean = encode(rs31, [_Index(3), True] + [0] * 17)
    assert clean.data[:2] == [3, 1]
    assert clean == encode(rs31, [3, 1] + [0] * 17)
    for w in (word, stego, clean):
        assert all(type(s) is int for s in w.symbols)


@pytest.mark.parametrize("call", [
    lambda p, clean, key: decode(p, None),
    lambda p, clean, key: syndromes(p, 3.5),
    lambda p, clean, key: encode(p, 5),
    lambda p, clean, key: embed(clean, key, None),
    lambda p, clean, key: extract(None, key, p),
    lambda p, clean, key: Codeword(p, None),
], ids=["decode", "syndromes", "encode", "embed", "extract", "Codeword"])
def test_a_value_that_is_not_iterable_raises_value_error(rs31, call):
    """The entry check refuses a word, a data block or a message that is
    not iterable with ``ValueError``, not ``list()``'s ``TypeError``."""
    clean = encode(rs31, [0] * 19)
    with pytest.raises(ValueError, match="must be iterable"):
        call(rs31, clean, derive_positions(rs31, 1, 2))


@pytest.mark.parametrize("entry", ["Codeword", "encode", "embed"])
def test_no_caller_list_ends_up_inside_a_word(rs31, entry):
    """The entry check hands a list of in-range ints back as it is, so each
    entry point must copy it: changing the caller's list afterwards leaves
    the returned word as it was."""
    clean = encode(rs31, list(range(19)))
    key = derive_positions(rs31, 1, 2)
    symbols, make = {
        "Codeword": (list(range(31)), lambda s: Codeword(rs31, s)),
        "encode": (list(range(19)), lambda s: encode(rs31, s)),
        "embed": ([5, 9], lambda s: embed(clean, key, s)),
    }[entry]
    word = make(symbols)
    before = list(word.symbols)
    symbols[:] = [1] * len(symbols)
    symbols.append(1)
    assert word.symbols == before
    assert clean == encode(rs31, list(range(19)))


# ----------------------------------------------------------------------
# Cauchy generator
# ----------------------------------------------------------------------
def generator_matrix(params):
    """The encoder's parity map as a k x (n-k) matrix: row i is the parity
    of the unit data vector e_i."""
    k = params.k
    return [encode(params, [int(j == i) for j in range(k)]).parity for i in range(k)]


def test_cauchy_evaluation_points_rs7(rs7, gf8):
    """The matrix is the one built from x_i = alpha^(6-i), y_j = alpha^(3-j)."""
    x, y, _, _, matrix = cauchy_reference(rs7)
    assert x == [alpha_pow(gf8, 6 - i) for i in range(3)]
    assert y == [alpha_pow(gf8, 3 - j) for j in range(4)]
    assert generator_matrix(rs7) == matrix


@pytest.mark.parametrize("fixture", ["rs7", "rs31"])
def test_cauchy_entries_nonzero(fixture, request):
    params = request.getfixturevalue(fixture)
    matrix = generator_matrix(params)
    assert all(all(entry != 0 for entry in row) for row in matrix)
    assert matrix == cauchy_reference(params)[4]


def test_build_cauchy_cache_is_bounded_and_keyed_by_value():
    build_cauchy.cache_clear()
    generators = {id(build_cauchy(CodeParams(GF2m(5), 31, 19))) for _ in range(52)}
    info = build_cauchy.cache_info()
    assert len(generators) == 1
    assert (info.misses, info.currsize) == (1, 1)
    assert isinstance(info.maxsize, int)
    for k in range(1, 30):  # 29 distinct RS(31, k) geometries
        build_cauchy(CodeParams(GF2m(5), 31, k))
    assert build_cauchy.cache_info().currsize <= info.maxsize < 29
    # The exp run that syndromes builds is cached apart, by the same rules.
    rs._exp_run.cache_clear()
    for _ in range(52):
        syndromes(CodeParams(GF2m(5), 31, 19), [1] * 31)
    info = rs._exp_run.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert isinstance(info.maxsize, int)
    for k in range(1, 30):
        syndromes(CodeParams(GF2m(5), 31, k), [1] * 31)
    assert rs._exp_run.cache_info().currsize <= info.maxsize < 29
    build_cauchy.cache_clear()
    rs._exp_run.cache_clear()


def test_encoder_keeps_under_1_mb_alive_at_m12():
    """build_cauchy plus one encode at RS(4095,4063): the cached generator
    is one q-entry table of packed parity vectors, about 0.4 MB."""
    params = CodeParams(field=GF2m(12), n=4095, k=4063)
    data = [random.Random(12).randrange(4096) for _ in range(params.k)]
    build_cauchy.cache_clear()
    tracemalloc.start()
    try:
        encode(params, data)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        build_cauchy.cache_clear()
    assert retained < 1 << 20


# One geometry per m = 3..12: high-rate codes while the O(k^2) reference
# stays cheap, then low-rate ones; m = 9..12 use 16-bit parity lanes.
ORACLE_GEOMETRIES = [
    (3, 3), (4, 7), (5, 19), (6, 47), (7, 99), (8, 223), (9, 479),
    (10, 50), (11, 40), (12, 30),
]


@pytest.mark.parametrize("m, k", ORACLE_GEOMETRIES)
def test_cauchy_and_encode_match_direct_references(m, k):
    params = CodeParams(field=GF2m(m), n=(1 << m) - 1, k=k)
    matrix = cauchy_reference(params)[4]
    assert generator_matrix(params) == matrix
    rnd = random.Random(m)
    q = 1 << m
    for data in ([q - 1] * k, *([rnd.randrange(q) for _ in range(k)] for _ in range(3))):
        assert encode(params, data).symbols == scalar_encode(params, matrix, data)


def test_cauchy_zero_syndromes_exhaustive_rs7(rs7):
    for data in product(range(8), repeat=3):
        assert not any(syndromes(rs7, encode(rs7, list(data))))


# ----------------------------------------------------------------------
# encoder
# ----------------------------------------------------------------------
def test_encode_zero_data(rs7):
    assert encode(rs7, [0, 0, 0]).symbols == [0] * 7


def test_encode_rejects_bad_input(rs7):
    with pytest.raises(LengthMismatchError):
        encode(rs7, [1, 2])
    with pytest.raises(ValueError):
        encode(rs7, [1, 2, 8])


def test_encode_is_systematic(rs31):
    rnd = random.Random(7)
    data = [rnd.randrange(32) for _ in range(19)]
    word = encode(rs31, data)
    assert word.data == data
    assert [word.symbols[p] for p in data_positions(rs31)] == data
    assert word.parity == [word.symbols[p] for p in parity_positions(rs31)]


def test_encode_linearity(rs7, gf8):
    rnd = random.Random(13)
    for _ in range(100):
        d1 = [rnd.randrange(8) for _ in range(3)]
        d2 = [rnd.randrange(8) for _ in range(3)]
        lhs = [a ^ b for a, b in zip(encode(rs7, d1), encode(rs7, d2))]
        rhs = encode(rs7, [a ^ b for a, b in zip(d1, d2)]).symbols
        assert lhs == rhs


def test_encode_golden_rs7(rs7):
    # (1, 0, 0) -> oracle-verified codeword; parity first, data from the top
    word = encode(rs7, [1, 0, 0])
    assert word.symbols == [7, 6, 1, 6, 0, 0, 1]
    assert word.symbols == remainder_encode(rs7, [1, 0, 0])


def test_cauchy_agrees_with_remainder_oracle_rs7(rs7):
    for data in product(range(8), repeat=3):
        assert encode(rs7, list(data)).symbols == remainder_encode(rs7, list(data))


def test_cauchy_agrees_with_remainder_oracle_rs31(rs31):
    rnd = random.Random(19)
    for _ in range(100):
        data = [rnd.randrange(32) for _ in range(19)]
        assert encode(rs31, data).symbols == remainder_encode(rs31, data)


# ----------------------------------------------------------------------
# syndromes
# ----------------------------------------------------------------------
def test_syndromes_zero_for_codewords(rs31):
    rnd = random.Random(29)
    for _ in range(50):
        data = [rnd.randrange(32) for _ in range(19)]
        assert not any(syndromes(rs31, encode(rs31, data)))


def test_syndromes_of_single_error(rs31, gf32):
    """S_j = e * alpha^(i*j) when only position i is corrupted."""
    rnd = random.Random(31)
    for _ in range(25):
        data = [rnd.randrange(32) for _ in range(19)]
        pos = rnd.randrange(31)
        delta = rnd.randrange(1, 32)
        received = list(encode(rs31, data))
        received[pos] ^= delta
        got = syndromes(rs31, received)
        expect = [gf32.mul(delta, alpha_pow(gf32, pos * j)) for j in range(1, 13)]
        assert got == expect


def test_syndromes_match_direct_sum_oracle(rs7, rs31):
    rnd = random.Random(37)
    for params in (rs7, rs31, CodeParams(field=GF2m(8), n=255, k=223)):
        q = params.field.q
        for _ in range(25):
            data = [rnd.randrange(q) for _ in range(params.k)]
            received = list(encode(params, data))
            for pos in rnd.sample(range(params.n), rnd.randrange(0, params.t + 1)):
                received[pos] ^= rnd.randrange(1, q)
            assert syndromes(params, received) == direct_syndromes(params, received)


# Two geometries per m where the field allows: t = 1, and t = m, which from
# m = 4 on leaves an odd number n-k = 2m+1 of parity symbols (m = 3 gives
# RS(7,1)).  m = 2 has only RS(3,1), whose data slice stops at n-k = 2.
RANDOM_WORD_GEOMETRIES = [
    (m, k) for m in range(2, 11)
    for k in sorted({(1 << m) - 3, max(1, (1 << m) - 2 - 2 * m)})
]


@pytest.mark.parametrize("m, k", RANDOM_WORD_GEOMETRIES)
def test_syndromes_of_random_words_match_direct_sum_oracle(m, k):
    """Uniform in-range words, far from any codeword as a rule."""
    params = CodeParams(field=GF2m(m), n=(1 << m) - 1, k=k)
    rnd = random.Random(1000 * m + k)
    q = params.field.q
    words = [[q - 1] * params.n, *([rnd.randrange(q) for _ in range(params.n)]
                                   for _ in range(5))]
    for received in words:
        assert syndromes(params, received) == direct_syndromes(params, received)


# ----------------------------------------------------------------------
# decoder
# ----------------------------------------------------------------------
def test_decode_clean_word(rs31):
    word = encode(rs31, list(range(19)))
    result = decode(rs31, word)
    assert not result.failure
    assert result.corrected == word
    assert result.error_positions == ()
    assert result.error_magnitudes == {}


def test_decode_single_flip(rs31):
    word = encode(rs31, list(range(19)))
    received = list(word)
    received[11] ^= 21
    result = decode(rs31, received)
    assert not result.failure
    assert result.corrected == word
    assert result.error_positions == (11,)
    assert result.error_magnitudes == {11: 21}


def test_decode_checks_only_the_received_word(rs31, codeword_inits):
    """A raw received list is checked once; the corrected word is not."""
    word = encode(rs31, list(range(19)))
    received = list(word)
    received[11] ^= 21
    codeword_inits.clear()
    result = decode(rs31, received)
    assert result.corrected == word
    assert len(codeword_inits) == 1


def test_decode_and_syndromes_trust_a_codeword_of_their_geometry(
    rs31, codeword_inits
):
    """No check for a Codeword of equal params, on either decode path, nor
    for the error word the syndrome path hands to ``syndromes``."""
    word = encode(rs31, list(range(19)))
    symbols = list(word)
    symbols[3] ^= 9
    symbols[27] ^= 1   # a data-block error: the syndrome path
    received = Codeword(rs31, symbols)
    equal_params = CodeParams(field=GF2m(5), n=31, k=19)
    codeword_inits.clear()
    for params in (rs31, equal_params):
        for r, errors in ((word, ()), (received, (3, 27))):
            result = decode(params, r)
            assert result.corrected == word
            assert result.error_positions == errors
            assert any(syndromes(params, r)) == bool(errors)
    assert codeword_inits == []


def test_decode_encodes_the_data_block_once(rs31, monkeypatch):
    """One re-encode, for the syndromes; the corrected word is not re-checked."""
    word = encode(rs31, list(range(19)))
    received = list(word)
    received[3] ^= 9
    received[27] ^= 1
    calls = []
    parity = rs._parity

    def counting_parity(*args):
        calls.append(args)
        return parity(*args)

    monkeypatch.setattr(rs, "_parity", counting_parity)
    assert decode(rs31, received).corrected == word
    assert len(calls) == 1


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call; return the log."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_decode_parity_only_errors_skip_syndrome_decoding(rs31, monkeypatch):
    """Up to t errors in the parity block: the re-encoded word is the answer,
    found without Berlekamp-Massey or any field multiplication.  One error
    in the data block takes the syndrome path, which multiplies by adding
    logs and so calls ``GF2m.mul`` no more than the shortcut does."""
    bm_calls = _counting(monkeypatch, rs, "_berlekamp_massey")
    mul_calls = _counting(monkeypatch, GF2m, "mul")
    word = encode(rs31, list(range(19)))
    received = list(word)
    magnitudes = {0: 5, 4: 17, 7: 1, 8: 30, 9: 2, 11: 31}   # t = 6 in [0, 12)
    for pos, y in magnitudes.items():
        received[pos] ^= y
    result = decode(rs31, received)
    assert result.corrected == word
    assert result.error_positions == tuple(magnitudes)
    assert result.error_magnitudes == magnitudes
    assert (bm_calls, mul_calls) == ([], [])

    received[0] ^= magnitudes[0]
    received[rs31.n_parity] ^= 1   # still six errors, one of them in the data
    result = decode(rs31, received)
    assert not result.failure and result.corrected == word
    assert len(bm_calls) == 1 and mul_calls == []


def test_decode_syndrome_path_calls_syndromes_and_parity_once(rs31, monkeypatch):
    """The slow path still goes through the public ``syndromes`` and still
    re-encodes only once: ``_error_pattern`` re-encodes the data block, and
    ``syndromes`` evaluates the error word's own terms with no re-encode."""
    word = encode(rs31, list(range(19)))
    synd_calls = _counting(monkeypatch, rs, "syndromes")
    parity_calls = _counting(monkeypatch, rs, "_parity")
    received = list(word)
    received[2] ^= 7
    received[20] ^= 3
    result = decode(rs31, received)
    assert result.corrected == word
    assert result.error_magnitudes == {2: 7, 20: 3}
    assert (len(synd_calls), len(parity_calls)) == (1, 1)


@pytest.mark.parametrize("m", range(2, 9))
def test_syndromes_never_re_encode(m, monkeypatch):
    """``syndromes`` sums the received word's own terms: no ``_parity`` and
    no ``build_cauchy`` call, for words with zero data and words with data,
    and the syndromes still equal the literal power sums."""
    n = (1 << m) - 1
    params = CodeParams(field=GF2m(m), n=n, k=max(1, n - 2 * m))
    parity_calls = _counting(monkeypatch, rs, "_parity")
    cauchy_calls = _counting(monkeypatch, rs, "build_cauchy")
    rnd = random.Random(80 + m)
    q = params.field.q
    for _ in range(5):
        parity = [rnd.randrange(1, q) for _ in range(params.n_parity)]
        for data in ([0] * params.k, [rnd.randrange(q) for _ in range(params.k)]):
            received = parity + data
            assert syndromes(params, received) == direct_syndromes(params, received)
    assert (parity_calls, cauchy_calls) == ([], [])


@pytest.mark.parametrize("k", [3, 9, 11])
@pytest.mark.parametrize("placement", ["parity", "data", "mixed"])
def test_decode_matches_brute_force_by_error_placement(k, placement):
    """RS(7,3), RS(15,9) and RS(15,11) with at most t errors in the parity
    block only (the re-encoding shortcut), the data block only, or both."""
    m = 3 if k == 3 else 4
    params = CodeParams(field=GF2m(m), n=(1 << m) - 1, k=k)
    q, t = params.field.q, params.t
    parity, data = range(params.n_parity), range(params.n_parity, params.n)
    rnd = random.Random(f"{k}-{placement}")
    for _ in range(15):
        if placement == "mixed":
            weight = rnd.randrange(2, t + 1)
            split = rnd.randrange(1, weight)
            positions = rnd.sample(parity, split) + rnd.sample(data, weight - split)
        else:
            positions = rnd.sample(parity if placement == "parity" else data,
                                   rnd.randrange(1, t + 1))
        word = encode(params, [rnd.randrange(q) for _ in range(k)])
        received = list(word)
        for pos in positions:
            received[pos] ^= rnd.randrange(1, q)
        corrected, magnitudes = brute_force_decode(params, received)
        result = decode(params, received)
        assert not result.failure
        assert result.corrected.symbols == corrected == word.symbols
        assert result.error_magnitudes == magnitudes
        assert result.error_positions == tuple(sorted(positions))


def test_decode_result_stores_only_its_pattern(rs7):
    assert [f.name for f in fields(DecodeResult)] == [
        "corrected", "error_magnitudes", "failure"
    ]
    result = DecodeResult(encode(rs7, [1, 2, 3]), {5: 1, 0: 6})
    assert result.error_positions == (0, 5)
    assert not result.failure


@pytest.mark.parametrize("m, k", [(5, 19), (8, 223)])
def test_decode_corrected_xor_pattern_is_the_received_word(m, k, monkeypatch):
    """On the re-encoding shortcut (parity-block errors), on the syndrome
    path (a data-block error) and on failure (random words), the corrected
    word XOR ``error_magnitudes`` is the received word."""
    params = CodeParams(field=GF2m(m), n=(1 << m) - 1, k=k)
    n, t, q = params.n, params.t, params.field.q
    synd_calls = _counting(monkeypatch, rs, "syndromes")
    rnd = random.Random(m)

    def check(received, *, slow, failure):
        before = len(synd_calls)
        result = decode(params, received)
        assert len(synd_calls) - before == slow
        assert result.failure == failure
        pattern = result.error_magnitudes
        assert [s ^ pattern.get(i, 0) for i, s in enumerate(result.corrected)] == received
        assert result.error_positions == tuple(sorted(pattern))
        assert 0 not in pattern.values()
        return result

    def corrupt(word, positions):
        received = list(word)
        for pos in positions:
            received[pos] ^= rnd.randrange(1, q)
        return received

    for _ in range(10):
        word = encode(params, [rnd.randrange(q) for _ in range(k)])
        parity_errors = rnd.sample(range(params.n_parity), rnd.randint(0, t))
        received = corrupt(word, parity_errors)
        assert check(received, slow=0, failure=False).corrected == word

        data_error = rnd.randrange(params.n_parity, n)
        others = rnd.sample([p for p in range(n) if p != data_error], rnd.randint(0, t - 1))
        received = corrupt(word, [data_error, *others])
        result = check(received, slow=1, failure=False)
        assert result.corrected == word
        assert result.error_positions == tuple(sorted([data_error, *others]))

        received = [rnd.randrange(q) for _ in range(n)]
        assert check(received, slow=1, failure=True).corrected.symbols == received


def test_decode_failure_returns_the_received_word(rs7):
    rnd = random.Random(61)
    failures = 0
    for _ in range(200):
        received = [rnd.randrange(8) for _ in range(7)]
        result = decode(rs7, received)
        if result.failure:
            failures += 1
            assert result.corrected.symbols == received
            assert (result.error_positions, result.error_magnitudes) == ((), {})
    assert failures


# One geometry per m = 3..11 with t = m - 1 (RS(7,3) up to RS(2047,2027)).
@pytest.mark.parametrize("m", range(3, 12))
def test_decode_returns_exact_error_patterns(m):
    n = (1 << m) - 1
    t = m - 1
    params = CodeParams(field=GF2m(m), n=n, k=n - 2 * t)
    rnd = random.Random(70 + m)
    q = params.field.q
    # Both ends of the codeword and of the parity/data boundary, then
    # random patterns of every weight up to t.
    patterns = [[0, n - 1, params.n_parity - 1, params.n_parity][:t]]
    patterns += [rnd.sample(range(n), weight) for weight in range(t + 1)]
    for positions in patterns:
        word = encode(params, [rnd.randrange(q) for _ in range(params.k)])
        received = list(word)
        magnitudes = {p: rnd.randrange(1, q) for p in positions}
        for p, y in magnitudes.items():
            received[p] ^= y
        result = decode(params, received)
        assert not result.failure
        assert result.corrected == word
        assert result.error_positions == tuple(sorted(positions))
        assert result.error_magnitudes == magnitudes


# One geometry per m = 11..16 with n - k = 6 (t = 3), RS(2047,2041) up to
# RS(65535,65529).  Data-block errors take the syndrome path, and the Chien
# scan and Forney's formula then work with logs and positions up to n - 1,
# the range where an index could leave the doubled exp table.
@pytest.mark.parametrize("m", range(11, 17))
def test_syndrome_path_at_large_m(m):
    n = (1 << m) - 1
    params = CodeParams(field=GF2m(m), n=n, k=n - 6)
    rnd = random.Random(90 + m)
    q = params.field.q
    word = encode(params, [rnd.randrange(q) for _ in range(params.k)])
    data_block = range(params.n_parity, n)
    # t errors in the data block, the top position among them; then one
    # data-block and one parity-block error.
    for positions in ([n - 1, *rnd.sample(data_block[:-1], params.t - 1)],
                      [rnd.choice(data_block), rnd.randrange(params.n_parity)]):
        received = list(word)
        magnitudes = {p: rnd.randrange(1, q) for p in positions}
        for p, y in magnitudes.items():
            received[p] ^= y
        if len(positions) == params.t:
            assert syndromes(params, received) == direct_syndromes(params, received)
        result = decode(params, received)
        assert not result.failure
        assert result.corrected == word
        assert result.error_magnitudes == magnitudes


# One low-rate and one high-rate geometry per lane width: byte lanes for
# m <= 8, array('H') lanes for m > 8.
EXP_RUN_GEOMETRIES = [(4, 3), (8, 223), (9, 5), (11, 2015)]


@pytest.mark.parametrize("m, k", EXP_RUN_GEOMETRIES)
def test_exp_run_reaches_the_last_syndrome_and_chien_terms(m, k):
    """A slice that runs past the end of the exp run comes back short without
    an error, so the terms that reach furthest into it are pinned: the
    syndromes' top term i = n-1 with log v = n-1, in a word with a nonzero
    data block, the parity block's top term i = n-k-1 with log v = n-1 in
    a word with zero data, and a locator term of degree j = t with
    log c = n-1."""
    n = (1 << m) - 1
    params = CodeParams(field=GF2m(m), n=n, k=k)
    f, t, n_parity = params.field, params.t, params.n_parity
    assert len(rs._exp_run(params)) == n * (n_parity + 1)
    rnd = random.Random(m)
    q = f.q

    received = [rnd.randrange(q) for _ in range(n - 1)] + [alpha_pow(f, n - 1)]
    synd = syndromes(params, received)
    assert len(synd) == n_parity
    assert synd == direct_syndromes(params, received)

    received = [rnd.randrange(q) for _ in range(n_parity - 1)]
    received += [alpha_pow(f, n - 1)] + [0] * k   # zero data: the remainder
    synd = syndromes(params, received)
    assert len(synd) == n_parity
    assert synd == direct_syndromes(params, received)

    # The locator's x^t coefficient is the product of alpha^p over the t
    # positions, so positions summing to n - 1 mod n give it log n - 1.  One
    # data-block position sends the decode down the syndrome path.
    while True:
        positions = [rnd.randrange(n_parity, n), *rnd.sample(range(n), t - 2)]
        positions.append((n - 1 - sum(positions)) % n)
        if len(set(positions)) == t:
            break
    word = encode(params, [rnd.randrange(q) for _ in range(k)])
    received = list(word)
    magnitudes = {p: rnd.randrange(1, q) for p in positions}
    for p, y in magnitudes.items():
        received[p] ^= y
    result = decode(params, received)
    assert len(result.corrected.symbols) == n
    assert result.corrected == word
    assert result.error_magnitudes == magnitudes


@pytest.mark.parametrize("m, k", [(5, 19), (11, 2015)])
def test_syndrome_path_lists_magnitudes_in_ascending_position_order(m, k):
    """The Chien scan finds positions from the top down; ``decode`` still
    keys ``error_magnitudes`` in ascending position order, with byte lanes
    (m = 5) and array('H') lanes (m = 11).  A data-block error forces the
    syndrome path: r + c then has at least n-k+1-L > t nonzero parity
    symbols for L <= t errors."""
    n = (1 << m) - 1
    params = CodeParams(field=GF2m(m), n=n, k=k)
    rnd = random.Random(k)
    for errors in range(1, params.t + 1):
        word = encode(params, [rnd.randrange(1 << m) for _ in range(k)])
        positions = {rnd.randrange(params.n_parity, n)}
        while len(positions) < errors:
            positions.add(rnd.randrange(n))
        received = list(word)
        for p in positions:
            received[p] ^= rnd.randrange(1, 1 << m)
        result = decode(params, received)
        assert result.corrected == word
        assert list(result.error_magnitudes) == sorted(positions)


def test_decode_all_double_errors_rs7(rs7):
    """Every <= 2 symbol corruption of one codeword decodes back."""
    word = encode(rs7, [3, 5, 1])
    for p1, p2 in combinations(range(7), 2):
        for d1 in range(1, 8):
            for d2 in range(1, 8):
                received = list(word)
                received[p1] ^= d1
                received[p2] ^= d2
                result = decode(rs7, received)
                assert not result.failure
                assert result.corrected == word
                assert result.error_positions == (p1, p2)
                assert result.error_magnitudes == {p1: d1, p2: d2}


def test_decode_magnitudes_reconstruct_received(rs31):
    rnd = random.Random(41)
    for _ in range(50):
        data = [rnd.randrange(32) for _ in range(19)]
        received = list(encode(rs31, data))
        for pos in rnd.sample(range(31), rnd.randrange(0, 7)):
            received[pos] ^= rnd.randrange(1, 32)
        result = decode(rs31, received)
        assert not result.failure
        rebuilt = list(result.corrected)
        for pos, mag in result.error_magnitudes.items():
            rebuilt[pos] ^= mag
        assert rebuilt == received


def test_decode_beyond_capacity_never_crashes(rs7, rs15_10):
    """t+1 corrupted symbols: flagged failure or a valid miscorrection."""
    rnd = random.Random(43)
    for params, data in ((rs7, [2, 7, 4]), (rs15_10, list(range(10)))):
        word = encode(params, data)
        for _ in range(300):
            received = list(word)
            for pos in rnd.sample(range(params.n), params.t + 1):
                received[pos] ^= rnd.randrange(1, params.field.q)
            result = decode(params, received)
            if params.n_parity > 2 * params.t:
                # distance 2t + 2: no codeword lies within t of the word
                assert result.failure
            if not result.failure:
                # miscorrection is allowed, silent invalidity is not
                corrected = result.corrected
                assert corrected.symbols == remainder_encode(params, corrected.data)
                assert len(result.error_positions) <= params.t


def test_decode_agrees_with_brute_force_on_garbage(rs7):
    rnd = random.Random(47)
    for _ in range(150):
        received = [rnd.randrange(8) for _ in range(7)]
        result = decode(rs7, received)
        oracle = brute_force_decode(rs7, received)
        if oracle is None:
            assert result.failure
        else:
            corrected, magnitudes = oracle
            assert not result.failure
            assert result.corrected.symbols == corrected
            assert result.error_magnitudes == magnitudes


# Decode depends on a word only through its parity remainder, so the words
# with zero data and every possible parity block cover every coset of the
# code.  Odd n - k: RS(7,2), RS(7,4) and RS(15,12).
COSET_GEOMETRIES = [(2, 1), (3, 2), (3, 3), (3, 4), (3, 5), (4, 12), (4, 13), (5, 29)]


@pytest.mark.parametrize("m, k", COSET_GEOMETRIES)
def test_decode_contract_on_every_coset(m, k):
    """A success is a codeword by the remainder oracle and at most t symbols
    from the received word; exactly the error patterns of weight <= t
    succeed, one per coset."""
    params = CodeParams(field=GF2m(m), n=(1 << m) - 1, k=k)
    n, q, t = params.n, params.field.q, params.t
    successes = 0
    for parity in product(range(q), repeat=params.n_parity):
        received = [*parity, *[0] * k]
        result = decode(params, received)
        corrected = result.corrected
        if result.failure:
            assert corrected.symbols == received
            continue
        successes += 1
        assert corrected.symbols == remainder_encode(params, corrected.data)
        assert len(result.error_positions) <= t
        assert result.error_positions == tuple(sorted(result.error_magnitudes))
        rebuilt = list(corrected)
        for pos, y in result.error_magnitudes.items():
            assert y
            rebuilt[pos] ^= y
        assert rebuilt == received
    assert successes == sum(comb(n, w) * (q - 1) ** w for w in range(t + 1))


@pytest.mark.parametrize("m, k, miscorrects", [
    (5, 27, True), (5, 26, False), (8, 251, True), (8, 250, False),
])
def test_decode_contract_beyond_t(m, k, miscorrects):
    """300 seeded words with t + 1 to n - k errors each, where the cosets are
    too many to enumerate.  A failure returns the received word; a success
    is a codeword by the remainder oracle, within t of the received word,
    and the received word is the corrected one XOR the pattern.  The odd
    n - k of RS(31,26) and RS(255,250) check Forney's X^-(n-k) at n - k
    != 2t; at even n - k some of these words miscorrect."""
    params = CodeParams(field=GF2m(m), n=(1 << m) - 1, k=k)
    n, q, t = params.n, params.field.q, params.t
    rnd = random.Random(2000 + k)
    miscorrections = 0
    for _ in range(300):
        sent = encode(params, [rnd.randrange(q) for _ in range(k)])
        received = list(sent)
        for pos in rnd.sample(range(n), rnd.randint(t + 1, params.n_parity)):
            received[pos] ^= rnd.randrange(1, q)
        result = decode(params, received)
        corrected = result.corrected
        if result.failure:
            assert corrected.symbols == received
            continue
        miscorrections += 1   # sent is more than t from the received word
        assert corrected.symbols == remainder_encode(params, corrected.data)
        assert hamming_distance(corrected.symbols, received) <= t
        rebuilt = list(corrected)
        for pos, y in result.error_magnitudes.items():
            rebuilt[pos] ^= y
        assert rebuilt == received
    assert miscorrections > 0 or not miscorrects


def test_mds_weights_count_every_codeword(rs7):
    """The MDS weight distribution sums to q^k for every geometry, and at
    RS(7,3) it is the weight histogram of all 512 codewords."""
    for m, k in ((3, 3), (4, 10), (5, 27), (8, 223)):
        assert sum(mds_weights((1 << m) - 1, k, 1 << m)) == (1 << m) ** k
    histogram = Counter(hamming_weight(encode(rs7, list(data)))
                        for data in product(range(8), repeat=3))
    assert mds_weights(7, 3, 8) == [histogram[w] for w in range(8)]


@pytest.mark.parametrize("weight, successes", [(3, 42), (4, 588)])
def test_decode_miscorrection_rate_beyond_t_is_exact(weight, successes):
    """Every error pattern of weight 3 and 4 on the zero codeword of RS(7,3),
    t = 2: on each support, exactly 42 of the 7^3 and 588 of the 7^4
    patterns decode as a success, 6/49 and 12/49 overall, which is the
    law of ``miscorrection_probability``.  RS codes are MDS, so the
    miscorrection rate beyond t does not depend on where the errors sit.
    Each success is a codeword within t of the received word."""
    params = CodeParams(field=GF2m(3), n=7, k=3)
    n, q, t = params.n, params.field.q, params.t
    assert miscorrection_probability(params, weight) == Fraction(successes, 7 ** weight)
    for support in combinations(range(n), weight):
        count = 0
        for magnitudes in product(range(1, q), repeat=weight):
            received = [0] * n
            for pos, y in zip(support, magnitudes):
                received[pos] = y
            result = decode(params, received)
            if result.failure:
                continue
            count += 1
            corrected = result.corrected.symbols
            assert corrected == remainder_encode(params, result.corrected.data)
            assert hamming_distance(corrected, received) <= t
        assert count == successes, support


@pytest.mark.parametrize("m, k, excess, law", [
    (5, 27, 1, 0.3933), (5, 27, 2, 0.4278), (8, 251, 1, 0.4864), (8, 251, 2, 0.4903),
], ids=["rs31-t+1", "rs31-t+2", "rs255-t+1", "rs255-t+2"])
def test_decode_miscorrection_rate_matches_the_law(m, k, excess, law):
    """3,000 seeded patterns of weight t + 1 or t + 2 (t = 2), on uniform
    positions with uniform nonzero magnitudes: the share that decodes as a
    success lies inside the 99.9% Wilson interval around the exact law."""
    params = CodeParams(field=GF2m(m), n=(1 << m) - 1, k=k)
    n, q, weight = params.n, params.field.q, params.t + excess
    exact = miscorrection_probability(params, weight)
    assert float(exact) == pytest.approx(law, abs=5e-5)
    rnd = random.Random(f"miscorrection-{m}-{weight}")
    trials, successes = 3000, 0
    for _ in range(trials):
        received = [0] * n
        for pos in rnd.sample(range(n), weight):
            received[pos] = rnd.randrange(1, q)
        successes += not decode(params, received).failure
    low, high = wilson_interval(successes, trials, 3.2905)
    assert low <= exact <= high, successes


def test_decode_flags_word_with_only_the_last_syndrome_nonzero(rs7):
    """g'(x) = prod_{j=1..4} (x + alpha^j), read as an RS(7,2) word.

    Its first 2t = 4 syndromes vanish but S_5 = g'(alpha^5) does not, so it
    is no codeword of RS(7,2), whose n - k = 5 roots include alpha^5.
    """
    params = CodeParams(field=rs7.field, n=7, k=2)
    received = generator_poly(rs7) + [0, 0]
    synd = syndromes(params, received)
    assert synd[:4] == [0] * 4 and synd[4]
    assert brute_force_decode(params, received) is None
    result = decode(params, received)
    assert result.failure
    assert result.corrected.symbols == received


def test_decode_rejects_malformed_words(rs7, rs31):
    """A Codeword of another geometry is checked like a raw sequence."""
    for check in (decode, syndromes):
        with pytest.raises(LengthMismatchError):
            check(rs7, [0] * 6)
        for data in ([0] * 19, list(range(19))):
            with pytest.raises(LengthMismatchError):
                check(rs7, encode(rs31, data))
        for bad in (8, -1):
            for word in ([0] * 6 + [bad], [bad] + [0] * 6):
                with pytest.raises(ValueError, match="outside"):
                    check(rs7, word)


@pytest.mark.parametrize(
    "fixture, words", [("rs7", 3000), ("rs31", 500), ("rs15_10", 2000)]
)
def test_decode_never_raises_on_in_range_words(fixture, words, request):
    params = request.getfixturevalue(fixture)
    rnd = random.Random(59)
    for _ in range(words):
        received = [rnd.randrange(params.field.q) for _ in range(params.n)]
        result = decode(params, received)
        corrected = result.corrected
        assert result.failure or corrected.symbols == remainder_encode(
            params, corrected.data
        )


def test_roundtrip_random_error_patterns_rs31(rs31):
    rnd = random.Random(53)
    for _ in range(200):
        data = [rnd.randrange(32) for _ in range(19)]
        word = encode(rs31, data)
        received = list(word)
        for pos in rnd.sample(range(31), rnd.randrange(0, rs31.t + 1)):
            received[pos] ^= rnd.randrange(1, 32)
        assert decode(rs31, received).corrected == word
