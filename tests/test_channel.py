"""Noise models: determinism, shape of each error type, uniformity."""

import math
import random
from collections import Counter
from dataclasses import fields

import pytest

from rsstego import (
    ChannelSpec,
    CodeParams,
    Codeword,
    ErrorEvent,
    GF2m,
    apply_noise,
    encode,
    fork,
    max_affected_symbols,
)
from oracles import hamming_distance

CHI2_999_DF30 = 59.7031  # chi-square 99.9% critical value, 30 dof


@pytest.fixture(scope="module")
def word31(rs31):
    return encode(rs31, list(range(19)))


def test_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(mode="gaussian")
    for bits in (0, 2.5, 6.0, True, "6"):
        with pytest.raises(ValueError):
            ChannelSpec(mode="burst", burst_bits=bits)


def test_mode_none(word31):
    noisy, event = apply_noise(word31, ChannelSpec(mode="none"), 0)
    assert noisy == word31
    assert frozenset(event.deltas) == frozenset()
    assert event.deltas == {}


def test_error_event_stores_only_its_pattern():
    assert [f.name for f in fields(ErrorEvent)] == ["deltas", "bit_offset"]
    event = ErrorEvent({9: 4, 2: 1})
    assert frozenset(event.deltas) == frozenset({2, 9})
    assert event.bit_offset is None


NOISE_SPECS = [
    ChannelSpec(mode="none"),
    ChannelSpec(mode="single_symbol"),
    ChannelSpec(mode="single_bit"),
    ChannelSpec(mode="burst"),
    ChannelSpec(mode="burst", burst_bits=20),   # fits the 21 bits of RS(7, k)
]


@pytest.mark.parametrize("spec", NOISE_SPECS, ids=lambda s: f"{s.mode}-{s.burst_bits}")
@pytest.mark.parametrize("m", [3, 5, 8, 16])
def test_noisy_word_is_input_xor_deltas(m, spec):
    """Every mode: the noisy word is the input XOR ``deltas``, whose keys are
    the positions that changed, and only a burst sets ``bit_offset``."""
    n = (1 << m) - 1
    params = CodeParams(field=GF2m(m), n=n, k=n - 2)
    rnd = random.Random(m)
    word = Codeword(params, [rnd.randrange(n + 1) for _ in range(n)])
    for trial in range(25):
        noisy, event = apply_noise(word, spec, fork(m, trial))
        deltas = event.deltas
        assert noisy.symbols == [s ^ deltas.get(i, 0) for i, s in enumerate(word)]
        changed = {i for i, (a, b) in enumerate(zip(noisy, word)) if a != b}
        assert frozenset(deltas) == changed
        assert all(0 < d <= n for d in deltas.values())
        assert (event.bit_offset is not None) == (spec.mode == "burst")
        assert bool(deltas) == (spec.mode != "none")


def test_single_symbol_changes_exactly_one(rs31, word31):
    spec = ChannelSpec(mode="single_symbol")
    for trial in range(200):
        noisy, event = apply_noise(word31, spec, fork(5, trial))
        assert hamming_distance(noisy.symbols, word31.symbols) == 1
        (pos,) = event.deltas
        delta = event.deltas[pos]
        assert delta != 0
        assert noisy.symbols[pos] == word31.symbols[pos] ^ delta


def test_single_bit_flips_exactly_one_bit(rs31, word31):
    spec = ChannelSpec(mode="single_bit")
    for trial in range(200):
        noisy, event = apply_noise(word31, spec, fork(5, trial))
        (pos,) = event.deltas
        delta = event.deltas[pos]
        assert bin(delta).count("1") == 1
        assert noisy.symbols[pos] == word31.symbols[pos] ^ delta


def test_determinism(word31):
    spec = ChannelSpec(mode="burst", burst_bits=6)
    for trial in (0, 1, 99):
        n1, e1 = apply_noise(word31, spec, fork(77, trial))
        n2, e2 = apply_noise(word31, spec, fork(77, trial))
        assert n1 == n2
        assert e1 == e2


def test_burst_shape(rs31, word31):
    """6-bit bursts over 5-bit symbols: window spans 2 symbols, changes 1-2."""
    spec = ChannelSpec(mode="burst", burst_bits=6)
    m, total = 5, 31 * 5
    seen_sizes = set()
    offsets = set()
    for trial in range(2000):
        noisy, event = apply_noise(word31, spec, fork(11, trial))
        assert 0 <= event.bit_offset <= total - 6
        offsets.add(event.bit_offset)
        first = event.bit_offset // m
        window = {first, first + 1}  # 6 > 5: always straddles two symbols
        assert frozenset(event.deltas) <= window
        assert 1 <= len(event.deltas) <= 2
        seen_sizes.add(len(event.deltas))
        for pos, delta in event.deltas.items():
            assert delta != 0
            assert noisy.symbols[pos] == word31.symbols[pos] ^ delta
        assert noisy != word31  # at least one flip forced
    assert seen_sizes == {1, 2}
    assert len(offsets) > 140  # nearly all 150 offsets visited


def test_burst_never_exceeds_budget_bound(rs31, word31):
    for bits in (1, 5, 6, 11):
        spec = ChannelSpec(mode="burst", burst_bits=bits)
        bound = max_affected_symbols(spec, 5)
        for trial in range(300):
            _, event = apply_noise(word31, spec, fork(3, trial))
            assert len(event.deltas) <= bound


def test_wide_burst_can_flip_every_window_bit():
    """An 80-bit window takes two 64-bit draws: each of its bits flips in
    some burst, and no bit outside the window ever does."""
    params = CodeParams(field=GF2m(8), n=255, k=55)
    word = Codeword(params, [0] * 255)   # the noisy word is the flip pattern
    spec = ChannelSpec(mode="burst", burst_bits=80)
    flipped = set()
    for trial in range(300):
        noisy, event = apply_noise(word, spec, fork(9, trial))
        for pos, symbol in enumerate(noisy.symbols):
            for r in range(8):
                if symbol >> (7 - r) & 1:
                    bit = pos * 8 + r - event.bit_offset
                    assert 0 <= bit < 80
                    flipped.add(bit)
    assert flipped == set(range(80))


def test_burst_wider_than_the_codeword_is_refused(rs31, word31):
    """A burst of n*m bits covers the whole codeword from offset 0; one bit
    more raises."""
    total = rs31.n * rs31.field.m   # 155 at RS(31,19)
    with pytest.raises(ValueError, match="^burst of 156 bits exceeds the 155-bit codeword$"):
        apply_noise(word31, ChannelSpec(mode="burst", burst_bits=total + 1), 0)
    noisy, event = apply_noise(word31, ChannelSpec(mode="burst", burst_bits=total), 0)
    assert event.bit_offset == 0
    assert noisy != word31


@pytest.mark.parametrize(
    "mode,bits,expected",
    [
        ("none", 6, 0),
        ("single_symbol", 6, 1),
        ("single_bit", 6, 1),
        ("burst", 1, 1),
        ("burst", 5, 2),
        ("burst", 6, 2),
        ("burst", 10, 3),
        ("burst", 11, 3),
    ],
)
def test_max_affected_symbols(mode, bits, expected):
    assert max_affected_symbols(ChannelSpec(mode=mode, burst_bits=bits), m=5) == expected


def test_single_symbol_positions_uniform(rs31, word31):
    """Error-position histogram is flat (chi-square at 99.9%, 30 dof)."""
    spec = ChannelSpec(mode="single_symbol")
    counts = Counter()
    trials = 10000
    for trial in range(trials):
        _, event = apply_noise(word31, spec, fork(13, trial))
        counts.update(frozenset(event.deltas))
    expected = trials / 31
    chi2 = sum((counts[p] - expected) ** 2 / expected for p in range(31))
    assert chi2 < CHI2_999_DF30
    # every position within 3 sigma of the multinomial expectation
    sigma = math.sqrt(trials * (1 / 31) * (30 / 31))
    assert all(abs(counts[p] - expected) < 3 * sigma for p in range(31))
