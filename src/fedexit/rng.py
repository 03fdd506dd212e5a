"""Keyed random streams for reproducible, schedule-independent simulation.

Every stochastic component draws from a generator derived from a base seed
plus an integer key path, so results do not depend on call order.
:func:`stream` builds one such generator: ``default_rng(SeedSequence(seed,
spawn_key=key))``, a PCG64 generator. A training run opens one exit-sampling
stream per seed and one local stream per (seed, client), each once for the
whole run, and every round takes the next fixed-size draw from them. The
round engine makes those draws a block of rounds at a time, one call per
stream, which gives the same numbers as one call per round.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import integer

# Key-path roots for the main consumers; values are arbitrary but fixed.
INIT = 1
ROUND_SAMPLE = 2
LOCAL = 3
DATA = 4
TEST_DATA = 5
TEACHER = 6
PROBE = 7


def read_seed(what: str, value) -> int:
    """``value`` as a stream's seed: an integer >= 0, else InvalidArgumentError."""
    return integer(what, value, least=0)


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return a generator for the given seed, read by :func:`read_seed`, and integer key path."""
    ss = np.random.SeedSequence(read_seed("seed", seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def label(name: str) -> int:
    """Stable integer key for a string label (for ad-hoc key paths)."""
    return zlib.crc32(name.encode("utf-8"))


def ball_point(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    """Draw a point uniformly from the origin-centered ball of the given radius."""
    direction = rng.standard_normal(dim)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        return np.zeros(dim)
    r = radius * rng.random() ** (1.0 / dim)
    return direction * (r / norm)
