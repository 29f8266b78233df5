"""SplitMix64 streams and the substream scheme, pinned to known answers."""

import pytest

from rsstego import SplitMix64, fork, mix64
from rsstego.rng import GOLDEN


def test_splitmix64_matches_the_reference_stream():
    """The first outputs of splitmix64.c (Vigna) seeded with 0."""
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F
    ]


@pytest.mark.parametrize("seed", [0, 1, 12345, GOLDEN, (1 << 64) - 1])
def test_stream_outputs_mix64_of_the_advanced_state(seed):
    rng = SplitMix64(seed)
    for i in range(1, 6):
        assert rng.next_u64() == mix64(seed + i * GOLDEN)


@pytest.mark.parametrize("seed", [0, 1, 12345, (1 << 64) - 1])
def test_fork_is_mix64_of_the_counter(seed):
    for index in (0, 1, 2, 3, 1000):
        assert fork(seed, index) == mix64(seed + (index + 1) * GOLDEN)
