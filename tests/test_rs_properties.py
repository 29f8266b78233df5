"""Property test: the decoder against the brute-force oracle (hypothesis)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from rsstego import CodeParams, GF2m, decode, encode
from oracles import brute_force_decode

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
