"""SplitMix64 streams and the substream scheme, pinned to known answers."""

import pytest

from rsstego import SplitMix64, fork, mix64
from rsstego import rng as rng_module
from rsstego.rng import GOLDEN


def test_splitmix64_matches_the_reference_stream():
    """The first outputs of splitmix64.c (Vigna) seeded with 0."""
    reference = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == reference
    assert SplitMix64(0).draws(3, 1 << 64) == reference


@pytest.mark.parametrize("seed", [0, 1, 12345, GOLDEN, (1 << 64) - 1])
def test_stream_outputs_mix64_of_the_advanced_state(seed):
    rng = SplitMix64(seed)
    for i in range(1, 6):
        assert rng.next_u64() == mix64(seed + i * GOLDEN)


@pytest.mark.parametrize("seed", [0, 1, 12345, (1 << 64) - 1])
def test_fork_is_mix64_of_the_counter(seed):
    for index in (0, 1, 2, 3, 1000):
        assert fork(seed, index) == mix64(seed + (index + 1) * GOLDEN)



@pytest.mark.parametrize("bound", [1, 2, 32, 1 << 16, 1 << 64, (1 << 64) + 1, 1 << 65,
                                   7, 31, 255, 1_000_003])
def test_draws_equal_repeated_below(bound):
    """The same values as ``count`` calls of ``below``, from a stream that
    has already drawn, and the same state after."""
    for count in (0, 1, 2, 19, 223):
        packed, scalar = SplitMix64(12345), SplitMix64(12345)
        packed.next_u64(), scalar.next_u64()
        assert packed.draws(count, bound) == [scalar.below(bound) for _ in range(count)]
        assert packed.next_u64() == scalar.next_u64()


def test_lane_cache_is_bounded():
    for count in range(3 * rng_module._LANE_CACHE_SIZE):
        SplitMix64(count).draws(count, 8)
        for streams in (0, 2, 5):
            rng_module._draws(range(streams), count, 8)
    info = rng_module._lanes.cache_info()
    assert type(info.maxsize) is int
    assert info.currsize <= info.maxsize


def test_draws_refuse_a_bad_bound_or_count():
    rng = SplitMix64(0)
    for bound in (0, -1):
        with pytest.raises(ValueError, match="bound must be positive"):
            rng.draws(3, bound)
        with pytest.raises(ValueError, match="bound must be positive"):
            rng.below(bound)
    for bound in (2.5, 8.0, True, None, "8", type("Int", (int,), {})(8)):
        with pytest.raises(ValueError, match="bound must be an int"):
            rng.draws(3, bound)
        with pytest.raises(ValueError, match="bound must be an int"):
            rng.below(bound)
    for count in (-1, 2.0, True, None):
        with pytest.raises(ValueError, match="count must be an int >= 0"):
            rng.draws(count, 8)
    assert rng.next_u64() == 0xE220A8397B1DCDAF   # nothing was drawn
