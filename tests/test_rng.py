"""Keyed streams: the stream table and reseating agree with stream() bit for bit."""

from __future__ import annotations

import numpy as np
import pytest

from fedexit import rng as rngmod

# 2**32 + 7 and 2**70 + 3 give SeedSequence two- and three-word entropy.
SEEDS = [0, 1, 2**31 - 1, 2**32 + 7, 2**70 + 3]
TOP = 2**32 - 1
# PCG64's default 128-bit multiplier (numpy/random/_pcg64.pyx).
PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


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


def seeding_carries(seed: int, key: list[int]) -> list[bool]:
    """Whether each sum of PCG64's seeding carries past bits 32, 64, 96 and 128.

    Seeding takes ``inc = 2 * initseq + 1`` and ``state = (inc + initstate) *
    mult + inc`` mod 2**128: two sums with ``inc``, four carries each.
    """
    words = np.random.SeedSequence(seed, spawn_key=tuple(key)).generate_state(4, np.uint64)
    s_hi, s_lo, q_hi, q_lo = (int(w) for w in words)
    initstate = (s_hi << 64) | s_lo
    inc = ((((q_hi << 64) | q_lo) << 1) | 1) % 2**128
    product = (inc + initstate) % 2**128 * PCG_MULT % 2**128
    return [
        addend % 2**bits + inc % 2**bits >= 2**bits
        for addend in (initstate, product)
        for bits in (32, 64, 96, 128)
    ]


@pytest.mark.parametrize("length", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", SEEDS)
def test_stream_states_match_numpy_seeding(seed, length):
    # The table computes PCG64's 128-bit seeding on 32-bit limbs. Over a
    # thousand random key rows, each of its carries happens in some rows
    # and not in others, and every row must equal numpy's own seeding.
    keys = key_rows(length) + np.random.default_rng(length).integers(
        0, TOP, size=(1000, length), endpoint=True).tolist()
    table = rngmod.stream_states(seed, keys)
    carries = []
    for row, key in zip(table.tolist(), keys):
        state = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=tuple(key))).state
        want = state["state"]["state"], state["state"]["inc"]
        assert row == [want[0] >> 64, want[0] % 2**64, want[1] >> 64, want[1] % 2**64], key
        carries.append(seeding_carries(seed, key))
    carries = np.array(carries)
    assert carries.any(axis=0).all() and not carries.all(axis=0).any()
