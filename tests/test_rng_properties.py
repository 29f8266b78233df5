"""Property tests (hypothesis): ``SplitMix64.draws`` against repeated
``below``, values and state, and the many-stream ``rng._draws`` against
one ``draws`` call per state."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from rsstego import SplitMix64
from rsstego.rng import _draws

BOUNDS = st.one_of(
    st.integers(1, 16).map(lambda m: 1 << m),
    st.sampled_from([1, 1 << 64, (1 << 64) + 3, 1 << 80, 7, 31, 255, 1_000_003]),
    st.integers(1, 1 << 70),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, (1 << 64) - 1), before=st.integers(0, 3),
       count=st.integers(0, 300), bound=BOUNDS)
def test_draws_equal_repeated_below(seed, before, count, bound):
    packed, scalar = SplitMix64(seed), SplitMix64(seed)
    for _ in range(before):
        packed.next_u64(), scalar.next_u64()
    assert packed.draws(count, bound) == [scalar.below(bound) for _ in range(count)]
    assert packed._state == scalar._state


@pytest.mark.parametrize("streams", [0, 1, 2, 3, 64])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), count=st.integers(0, 40), bound=BOUNDS)
def test_many_stream_draws_equal_concatenated_draws(streams, data, count, bound):
    states = data.draw(st.lists(st.integers(0, (1 << 64) - 1),
                                min_size=streams, max_size=streams))
    expected = [v for s in states for v in SplitMix64(s).draws(count, bound)]
    assert _draws(states, count, bound) == expected
