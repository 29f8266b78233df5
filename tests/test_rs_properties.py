"""Property tests (hypothesis): the encoder and syndromes against the
direct oracles, the decoder against the brute-force oracle, and the
container packers against the bit loop."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from rsstego import CodeParams, GF2m, decode, encode, syndromes
from rsstego.container import pack_symbols, unpack_symbols
from oracles import (
    bitloop_pack_symbols,
    brute_force_decode,
    direct_syndromes,
    remainder_encode,
)


@st.composite
def geometries(draw):
    """Any RS(2^m - 1, k) with m <= 8 and t >= 1: k in 1 .. n-2, so the
    lowest rates, whose long remainders reach furthest into the exp run,
    are drawn as often as the highest."""
    m = draw(st.integers(2, 8))
    n = (1 << m) - 1
    return CodeParams(field=GF2m(m), n=n, k=draw(st.integers(1, n - 2)))


@st.composite
def data_blocks(draw):
    params = draw(geometries())
    symbol = st.integers(0, params.field.q - 1)
    return params, draw(st.lists(symbol, min_size=params.k, max_size=params.k))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data_blocks())
def test_encode_agrees_with_the_remainder_oracle(case):
    params, data = case
    assert encode(params, data).symbols == remainder_encode(params, data)


@st.composite
def received_words(draw):
    """A geometry and an arbitrary in-range word, its data block all zero
    (the decoder's own call) or not."""
    params = draw(geometries())
    symbol = st.integers(0, params.field.q - 1)
    word = draw(st.lists(symbol, min_size=params.n, max_size=params.n))
    if draw(st.booleans()):
        word[params.n_parity:] = [0] * params.k
    return params, word


@settings(max_examples=150, deadline=None, derandomize=True)
@given(received_words())
def test_syndromes_agree_with_the_direct_sums(case):
    params, received = case
    assert syndromes(params, received) == direct_syndromes(params, received)

# m <= 4 with t <= 3 keeps the oracle's subset search to at most 575 subsets.
GEOMETRIES = [(2, 1), (3, 1), (3, 3), (3, 5), (4, 9), (4, 11), (4, 13)]


@st.composite
def words(draw):
    """A geometry and an arbitrary in-range word, drawn as a codeword plus
    an error pattern so that shrinking heads for few errors."""
    m, k = draw(st.sampled_from(GEOMETRIES))
    params = CodeParams(field=GF2m(m), n=(1 << m) - 1, k=k)
    symbol = st.integers(0, params.field.q - 1)
    word = encode(params, draw(st.lists(symbol, min_size=k, max_size=k)))
    errors = draw(st.dictionaries(st.integers(0, params.n - 1), symbol))
    return params, [s ^ errors.get(i, 0) for i, s in enumerate(word)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(words())
def test_decode_agrees_with_brute_force(case):
    params, received = case
    result = decode(params, received)
    oracle = brute_force_decode(params, received)
    if oracle is None:
        assert result.failure
        assert result.corrected.symbols == received
    else:
        corrected, magnitudes = oracle
        assert not result.failure
        assert result.corrected.symbols == corrected
        assert result.error_magnitudes == magnitudes
        assert result.error_positions == tuple(sorted(magnitudes))


@st.composite
def symbol_lists(draw):
    """A width m and a list of m-bit symbols."""
    m = draw(st.integers(3, 16))
    return m, draw(st.lists(st.integers(0, (1 << m) - 1), max_size=300))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(symbol_lists())
def test_packers_round_trip_and_match_the_bit_loop(case):
    m, symbols = case
    packed = pack_symbols(symbols, m)
    assert packed == bitloop_pack_symbols(symbols, m)
    assert unpack_symbols(packed, m)[:len(symbols)] == symbols
