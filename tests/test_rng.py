"""Keyed streams: the stream table and reseating agree with stream() bit for bit."""

from __future__ import annotations

import numpy as np
import pytest

from fedexit import rng as rngmod

# 2**32 + 7 and 2**70 + 3 give SeedSequence two- and three-word entropy.
SEEDS = [0, 1, 2**31 - 1, 2**32 + 7, 2**70 + 3]
TOP = 2**32 - 1


def key_rows(length: int) -> list[list[int]]:
    return [
        [0] * length,
        [TOP] * length,
        [3, 17, 0, TOP][:length],
        [TOP, 0, 9, 1][:length],
        [rngmod.LOCAL, 250, 6, 2][:length],
    ]


def draws(gen: np.random.Generator) -> list[np.ndarray]:
    return [
        gen.standard_normal(5),
        gen.random(3),
        gen.integers(0, 1000, size=4),
        gen.integers(0, TOP, size=3, dtype=np.uint32),
    ]


@pytest.mark.parametrize("length", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", SEEDS)
def test_reseated_generator_matches_stream(seed, length):
    keys = key_rows(length)
    table = rngmod.stream_states(seed, keys)
    assert table.shape == (len(keys), 4) and table.dtype == np.uint64
    gen = np.random.default_rng(12345)
    for row, key in zip(table, keys):
        rngmod.reseat(gen, row)
        fresh = rngmod.stream(seed, *key)
        assert gen.bit_generator.state == fresh.bit_generator.state
        for got, want in zip(draws(gen), draws(fresh)):
            assert np.array_equal(got, want)


def test_reseat_drops_buffered_half_word():
    table = rngmod.stream_states(5, [[rngmod.LOCAL, 1, 0], [rngmod.LOCAL, 1, 1]])
    gen = rngmod.reseat(np.random.default_rng(0), table[0])
    gen.integers(0, TOP, size=3, dtype=np.uint32)
    assert gen.bit_generator.state["has_uint32"] == 1
    rngmod.reseat(gen, table[1])
    fresh = rngmod.stream(5, rngmod.LOCAL, 1, 1)
    assert gen.bit_generator.state == fresh.bit_generator.state
    for got, want in zip(draws(gen), draws(fresh)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("bad", [-1, 2**32])
def test_key_entry_outside_32_bits_rejected(bad):
    with pytest.raises(ValueError, match="key entries"):
        rngmod.stream_states(1, [[rngmod.LOCAL, 1, bad]])


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed"):
        rngmod.stream_states(-1, [[1]])
