"""Property tests (hypothesis): the encoder and syndromes against the
direct oracles, the decoder against the brute-force oracle, the container
packers against the bit loop, the RSSTEG01 keys against one
``derive_positions`` call per codeword, and ``unpack_container`` and
``extract_container`` on arbitrary headers and payloads."""

import re
import struct
from math import isqrt

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from rsstego import (
    BadMagicError,
    CodeParams,
    CorruptHeaderError,
    GF2m,
    decode,
    encode,
    extract_container,
    syndromes,
    unpack_container,
)
from rsstego.container import MAGIC, _keys, pack_symbols, unpack_symbols
from oracles import (
    bitloop_pack_symbols,
    brute_force_decode,
    direct_syndromes,
    remainder_encode,
    rssteg01_keys,
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


@st.composite
def mostly(draw, valid, arbitrary):
    """Draw from ``valid`` three times in four, else from ``arbitrary``."""
    return draw(valid if draw(st.sampled_from([True, True, True, False])) else arbitrary)


@st.composite
def container_blobs(draw):
    """RSSTEG01 bytes whose header fields are each mostly valid and
    otherwise arbitrary, with an arbitrary payload, sometimes cut short."""
    magic = draw(mostly(st.just(MAGIC), st.binary(max_size=8)))
    m = draw(mostly(st.integers(3, 16), st.integers(0, 255)))
    n = draw(mostly(st.just(((1 << m) - 1) & 0xFFFF), st.integers(0, 0xFFFF)))
    # k = n - d with small d often drawn: the edge k = n - 2 of t >= 1.
    k = draw(mostly(st.integers(0, n).map(lambda d: n - d), st.integers(0, 0xFFFF)))
    # A short message fits the payload often enough to reach the decoder.
    message_len = draw(mostly(st.integers(0, 2), st.integers(0, (1 << 32) - 1)))
    seed = draw(st.integers(0, (1 << 64) - 1))
    # The documented layout: magic, m, n, k, message length, seed, payload.
    header = struct.pack(">8sBHHIQ", magic, m, n, k, message_len, seed)
    size = st.integers(0, 300)   # up to one whole codeword at m = 8
    if 3 <= m <= 8 and n == (1 << m) - 1:
        # Whole codewords, so that the decoder runs on most accepted headers.
        size = mostly(st.integers(0, 3).map(lambda c: -(-c * n * m // 8)), size)
    size = draw(size)
    blob = header + draw(st.binary(min_size=size, max_size=size))
    return blob[:draw(mostly(st.none(), st.integers(0, len(blob))))]


@st.composite
def key_requests(draw):
    """A geometry with m in 3..16, a stego in 1..t, drawn as often below
    sqrt(n - k), where ``_keys`` takes its packed pass, as anywhere, and a
    message of 0 .. codewords * stego symbols under a 64-bit seed."""
    m = draw(st.integers(3, 16))
    n = (1 << m) - 1
    params = CodeParams(field=GF2m(m), n=n, k=draw(st.integers(1, n - 2)))
    low = min(params.t, isqrt(params.n_parity))
    stego = draw(st.one_of(st.integers(1, low), st.integers(1, params.t)))
    codewords = draw(st.integers(0, max(2, 256 // stego)))
    symbols = draw(st.integers(0, codewords * stego))
    return params, draw(st.integers(0, (1 << 64) - 1)), stego, symbols, codewords


@settings(max_examples=300, deadline=None, derandomize=True)
@given(key_requests())
def test_keys_agree_with_one_derive_positions_per_codeword(request):
    params, seed, stego, symbols, codewords = request
    assert list(_keys(*request)) == rssteg01_keys(params, seed, stego, symbols, codewords)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(container_blobs())
def test_unpack_container_fuzz_keeps_the_extract_invariants(blob):
    """Any bytes raise only the two header errors, or give a container that
    ``extract_container`` can use as it is: a valid geometry, whole
    codewords and m-bit symbols.  The whole extract at stego = 1, which the
    t >= 1 of every accepted header allows, raises the same error for bytes
    the header check refuses; otherwise it returns the carrier, the message
    and a bool, or refuses a message longer than the payload."""
    try:
        cont = unpack_container(blob)
    except (BadMagicError, CorruptHeaderError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            extract_container(blob, 1)
        return
    assert cont.n == (1 << cont.m) - 1
    CodeParams(GF2m(cont.m), cont.n, cont.k)   # extract_container builds it
    assert len(cont.symbols) % cont.n == 0
    assert all(0 <= s < 1 << cont.m for s in cont.symbols)
    try:
        carrier, message, failure = extract_container(blob, 1)
    except CorruptHeaderError as exc:
        assert str(exc).startswith("message needs ")
        return
    assert type(failure) is bool
    assert type(message) is bytes and len(message) == cont.message_len
    assert type(carrier) is bytes
    assert len(carrier) == cont.num_codewords * cont.k * cont.m // 8
