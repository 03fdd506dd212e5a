"""Keyed streams: stream() is numpy's own SeedSequence seeding of PCG64."""

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
def test_stream_matches_numpy_seeding(seed, length):
    # Every key path opens the PCG64 generator numpy seeds from it, so a
    # stream's draws depend on its seed and key and on nothing else.
    states = {}
    for key in key_rows(length):
        gen = rngmod.stream(seed, *key)
        seq = np.random.SeedSequence(seed, spawn_key=tuple(key))
        want = np.random.Generator(np.random.PCG64(seq))
        assert gen.bit_generator.state == want.bit_generator.state, key
        for got, expected in zip(draws(gen), draws(want)):
            assert np.array_equal(got, expected), key
        states[tuple(key)] = rngmod.stream(seed, *key).bit_generator.state["state"]["state"]
    assert len(set(states.values())) == len(states)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        rngmod.stream(-1, 1)
