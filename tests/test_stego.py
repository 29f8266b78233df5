"""Embedding/extraction contracts and the transparency property."""

import random

import pytest

from rsstego import (
    BudgetExceededError,
    LengthMismatchError,
    StegoKey,
    decode,
    derive_positions,
    embed,
    encode,
    extract,
)


def test_empty_key_is_identity(rs31):
    key = derive_positions(rs31, seed=9, count=0)
    assert key.positions == ()
    word = encode(rs31, list(range(19)))
    assert embed(word, key, []) == word


def test_derive_positions_deterministic(rs31):
    a = derive_positions(rs31, seed=123, count=4)
    b = derive_positions(rs31, seed=123, count=4)
    assert a.positions == b.positions
    assert a.seed == 123


def test_derive_positions_golden(rs31):
    """Frozen SplitMix64 draw: seed 1, two positions from the parity block."""
    key = derive_positions(rs31, seed=1, count=2)
    assert key.positions == (5, 7)
    assert derive_positions(rs31, seed=1, count=2, pool="any").positions == (20, 23)


def test_derive_positions_rejects_a_fractional_count(rs31):
    for count in (2.5, 2.0):
        for pool in ("parity", "any"):
            with pytest.raises(ValueError, match="must be an int"):
                derive_positions(rs31, 1, count, pool=pool)


def test_derive_positions_distinct_and_in_pool(rs31):
    for seed in range(50):
        key = derive_positions(rs31, seed=seed, count=6)
        assert len(set(key.positions)) == 6
        assert all(p in range(rs31.n_parity) for p in key.positions)
        key = derive_positions(rs31, seed=seed, count=6, pool="any")
        assert all(0 <= p < 31 for p in key.positions)


def test_budget_enforced(rs31):
    """Keys and embeddings refuse more than t = 6 substitutions."""
    for pool in ("parity", "any"):
        with pytest.raises(BudgetExceededError):
            derive_positions(rs31, seed=1, count=7, pool=pool)
        derive_positions(rs31, seed=1, count=6, pool=pool)
    word = encode(rs31, [0] * 19)
    embed(word, StegoKey(tuple(range(6))), [1] * 6)
    with pytest.raises(BudgetExceededError):
        embed(word, StegoKey(tuple(range(7))), [1] * 7)


def test_extract_checks_key_as_embed_does(rs31):
    """Positions outside [0, n), repeated or over budget raise in both."""
    word = encode(rs31, [0] * 19)
    bad_keys = [
        (StegoKey((-1,)), ValueError),
        (StegoKey((31,)), ValueError),
        (StegoKey((3, 3)), ValueError),
        (StegoKey(tuple(range(7))), BudgetExceededError),
    ]
    for key, error in bad_keys:
        with pytest.raises(error):
            embed(word, key, [1] * len(key))
        with pytest.raises(error):
            extract(word, key, rs31)


def test_embed_length_mismatch(rs31):
    key = derive_positions(rs31, seed=1, count=2)
    with pytest.raises(LengthMismatchError):
        embed(encode(rs31, [0] * 19), key, [1, 2, 3])


def test_embed_replaces_only_key_positions(rs31):
    rnd = random.Random(61)
    data = [rnd.randrange(32) for _ in range(19)]
    word = encode(rs31, data)
    key = derive_positions(rs31, seed=4, count=3)
    message = [7, 0, 31]
    carrier = embed(word, key, message)
    for pos in range(31):
        if pos in key.positions:
            assert carrier.symbols[pos] == message[key.positions.index(pos)]
        else:
            assert carrier.symbols[pos] == word.symbols[pos]


def test_zero_delta_message_symbol_still_extracts(rs31):
    """A message symbol equal to the clean symbol is a zero-magnitude error."""
    word = encode(rs31, list(range(19)))
    key = derive_positions(rs31, seed=4, count=2)
    message = [word.symbols[key.positions[0]], 9]
    carrier = embed(word, key, message)
    assert carrier.symbols[key.positions[0]] == word.symbols[key.positions[0]]
    got = extract(carrier, key, rs31)
    assert got.message == message
    assert got.data == list(range(19))


def test_embed_then_decode_recovers_clean(rs31):
    rnd = random.Random(67)
    for _ in range(50):
        data = [rnd.randrange(32) for _ in range(19)]
        word = encode(rs31, data)
        key = derive_positions(rs31, seed=rnd.randrange(1 << 32), count=4)
        message = [rnd.randrange(32) for _ in range(4)]
        result = decode(rs31, embed(word, key, message))
        assert not result.failure
        assert result.corrected == word
        assert set(result.error_positions) <= set(key.positions)


def test_noiseless_roundtrip_rs31(rs31):
    data = [5, 1, 30, 0, 12, 8, 19, 2, 2, 7, 31, 16, 4, 9, 27, 3, 11, 0, 18]
    key = derive_positions(rs31, seed=99, count=2)
    message = [13, 26]
    got = extract(embed(encode(rs31, data), key, message), key, rs31)
    assert got.data == data
    assert got.message == message
    assert not got.diagnostics.failure


def test_channel_error_off_stego_positions(rs31):
    """One extra error away from the key positions hurts nothing."""
    rnd = random.Random(71)
    for _ in range(50):
        data = [rnd.randrange(32) for _ in range(19)]
        key = derive_positions(rs31, seed=rnd.randrange(1 << 32), count=5)
        message = [rnd.randrange(32) for _ in range(5)]
        carrier = embed(encode(rs31, data), key, message)
        pos = rnd.choice([p for p in range(31) if p not in key.positions])
        noisy = list(carrier)
        noisy[pos] ^= rnd.randrange(1, 32)
        got = extract(type(carrier)(rs31, noisy), key, rs31)
        assert got.data == data
        assert got.message == message


def test_channel_error_on_stego_position_corrupts_that_symbol(rs31):
    """A nonzero delta on a stego position always flips that message symbol."""
    rnd = random.Random(73)
    for _ in range(50):
        data = [rnd.randrange(32) for _ in range(19)]
        key = derive_positions(rs31, seed=rnd.randrange(1 << 32), count=2)
        message = [rnd.randrange(32) for _ in range(2)]
        carrier = embed(encode(rs31, data), key, message)
        hit = rnd.randrange(2)
        noisy = list(carrier)
        noisy[key.positions[hit]] ^= rnd.randrange(1, 32)
        got = extract(type(carrier)(rs31, noisy), key, rs31)
        assert got.data == data
        assert got.message[1 - hit] == message[1 - hit]
        assert got.message[hit] != message[hit]


def test_key_locality(rs31):
    """Symbols outside the key never change what extraction reads."""
    key = derive_positions(rs31, seed=2, count=3)
    word = embed(encode(rs31, [0] * 19), key, [1, 2, 3])
    other = list(word)
    for pos in range(31):
        if pos not in key.positions:
            other[pos] ^= 1
    tampered = type(word)(rs31, other)
    assert extract(tampered, key, rs31).message == [1, 2, 3]


def test_transparency_randomized(rs31):
    """Any budget-respecting substitution leaves the data decodable."""
    rnd = random.Random(79)
    for _ in range(500):
        data = [rnd.randrange(32) for _ in range(19)]
        count = rnd.randrange(0, rs31.t + 1)
        key = derive_positions(
            rs31, seed=rnd.randrange(1 << 32), count=count,
            pool=rnd.choice(["parity", "any"]),
        )
        message = [rnd.randrange(32) for _ in range(count)]
        got = extract(embed(encode(rs31, data), key, message), key, rs31)
        assert got.data == data
        assert got.message == message


def test_wrong_seed_keeps_data_intact(rs31):
    data = [3] * 19
    key = derive_positions(rs31, seed=1, count=2)
    carrier = embed(encode(rs31, data), key, [14, 15])
    wrong = derive_positions(rs31, seed=2, count=2)
    got = extract(carrier, wrong, rs31)
    assert got.data == data  # transparency is key-independent
