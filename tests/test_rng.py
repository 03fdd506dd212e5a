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


# Shapes of one round's draw: odd sizes leave half of a 64-bit word
# buffered between 32-bit integer draws.
ROUND_SHAPES = [(2, 64), (1, 3), (3, 7), (5, 1)]

# The draws a local stream makes: normals, and integers below each bound.
DRAWS = {"normal": lambda gen, size: gen.standard_normal(size)}
for _high in (1, 7, 100, 2**31 + 11):
    DRAWS[f"integers below {_high}"] = lambda gen, size, high=_high: gen.integers(0, high, size)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1, 2**32 + 7])
@pytest.mark.parametrize("kind", sorted(DRAWS))
def test_block_draw_equals_round_draws(seed, kind):
    # The round engine draws a block of rounds in one call per local stream;
    # that must give the draws one call per round gives, and leave the
    # stream where they leave it.
    draw = DRAWS[kind]
    for client, shape in enumerate(ROUND_SHAPES):
        for rounds in (1, 2, 5, 24):
            bulk_gen = rngmod.stream(seed, rngmod.LOCAL, client)
            round_gen = rngmod.stream(seed, rngmod.LOCAL, client)
            bulk = draw(bulk_gen, (rounds, *shape))
            by_round = np.stack([draw(round_gen, shape) for _ in range(rounds)])
            assert bulk.tobytes() == by_round.tobytes(), (shape, rounds)
            assert bulk_gen.bit_generator.state == round_gen.bit_generator.state, (shape, rounds)
