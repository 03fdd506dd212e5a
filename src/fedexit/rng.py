"""Keyed random streams for reproducible, schedule-independent simulation.

Every stochastic component draws from a generator derived from a base seed
plus an integer key path, so results do not depend on call order.
:func:`stream` builds one such generator: ``default_rng(SeedSequence(seed,
spawn_key=key))``, a PCG64 generator.

A round loop opens one stream per round and one per (round, client), and
building each through ``SeedSequence`` costs more than the draws it serves.
So the loop builds a table once per run instead: :func:`stream_states`
reproduces ``SeedSequence``'s hashing and PCG64's seeding for a whole
``(K, L)`` array of key paths at once, with no loop over rows: the hashing
runs on 32-bit words and the 128-bit seeding arithmetic on 32-bit limbs, all
held in numpy arrays. It returns each stream's 128-bit state and increment
as four 64-bit words, 32 bytes per stream. :func:`reseat` then points one
reused ``Generator`` at a row of that table. It gives the same draws as a
fresh ``stream(seed, *key)``; the tests check the table against numpy's own
seeding, and the draws against :func:`stream`, for multi-word seeds and
every key length the loop uses.
"""

from __future__ import annotations

import zlib

import numpy as np

# Key-path roots for the main consumers; values are arbitrary but fixed.
INIT = 1
ROUND_SAMPLE = 2
LOCAL = 3
DATA = 4
TEST_DATA = 5
TEACHER = 6
PROBE = 7

# numpy's SeedSequence hashing constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's default 128-bit LCG multiplier, as little-endian 32-bit limbs.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_PCG_MULT_LIMBS = tuple((_PCG_MULT >> (32 * i)) & _MASK32 for i in range(4))


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return a generator for the given seed and integer key path."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


# Each word below is a Python int or a uint32 array: Python ints are masked
# to 32 bits after every product, arrays wrap by themselves.
def _hash(value, const: int, mult: int):
    """One SeedSequence hash step: the hashed word and the next hash constant."""
    following = (const * mult) & _MASK32
    value = ((value ^ const) * following) & _MASK32
    return value ^ (value >> 16), following


def _mix(x, y):
    result = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
    return result ^ (result >> 16)


def stream_states(seed: int, keys) -> np.ndarray:
    """PCG64 state of ``stream(seed, *row)`` for every row of a ``(K, L)`` key array.

    Row ``r`` of the ``(K, 4)`` uint64 result holds the high and low words of
    the 128-bit state, then those of the increment; :func:`reseat` takes it.

    Raises:
        ValueError: a negative seed, a key array that is not 2-D integers, or
            a key entry outside [0, 2**32).
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    keys = np.asarray(keys)
    if keys.ndim != 2 or keys.dtype.kind not in "iu":
        raise ValueError("keys must be a 2-D array of integers")
    if keys.size and (keys.min() < 0 or keys.max() > _MASK32):
        raise ValueError("key entries must lie in [0, 2**32)")
    # SeedSequence's entropy: the seed's 32-bit words (least significant
    # first), zero-padded to the pool size when a spawn key follows, then one
    # word per key entry.
    entropy = []
    rest = seed
    while True:
        entropy.append(rest & _MASK32)
        rest >>= 32
        if not rest:
            break
    if keys.shape[1]:
        entropy += [0] * (_POOL_SIZE - len(entropy))
    entropy += [keys[:, j].astype(np.uint32) for j in range(keys.shape[1])]

    # mix_entropy: hash the first words into the pool, mix every pool word
    # into every other, then mix each remaining word into every pool word.
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value, const = _hash(value, const, _MULT_A)
        return value

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight 32-bit words from the cycled pool.
    # Words 0-3 are the initial state and 4-7 the stream selector, each
    # pair little end first and the high 64-bit word first, so their
    # little-endian 32-bit limbs are words (2, 3, 0, 1) and (6, 7, 4, 5).
    rows = keys.shape[0]
    const = _INIT_B
    words = []
    for i in range(8):
        word, const = _hash(pool[i % _POOL_SIZE], const, _MULT_B)
        words.append(np.broadcast_to(word, (rows,)).astype(np.uint64))
    initstate = [words[i] for i in (2, 3, 0, 1)]
    initseq = [words[i] for i in (6, 7, 4, 5)]

    # PCG64 seeding, inc = 2 * initseq + 1 and state = (inc + initstate) *
    # mult + inc mod 2**128, on 32-bit limbs held in uint64 so that no sum
    # or product of two limbs overflows.
    inc = [((initseq[0] << 1) | 1) & _MASK32] + [
        ((word << 1) | (lower >> 31)) & _MASK32 for word, lower in zip(initseq[1:], initseq)
    ]
    state = _add128(_mul128(_add128(inc, initstate), _PCG_MULT_LIMBS), inc)
    table = np.empty((rows, 4), dtype=np.uint64)
    for col, limbs in enumerate((state[2:], state[:2], inc[2:], inc[:2])):
        table[:, col] = limbs[0] | (limbs[1] << 32)
    return table


def _carry(columns: list) -> list:
    """Limbs mod 2**128 of a number given as column sums of 32-bit places."""
    limbs, carry = [], 0
    for column in columns:
        column = column + carry
        limbs.append(column & _MASK32)
        carry = column >> 32
    return limbs


def _add128(a: list, b: list) -> list:
    return _carry([x + y for x, y in zip(a, b)])


def _mul128(a: list, b: tuple) -> list:
    """``a * b`` mod 2**128: limb arrays ``a`` times the constant limbs ``b``.

    Each limb product is below 2**64, so its low half goes to its own column
    and its high half to the next; no column sum reaches 2**36.
    """
    columns = [0] * 4
    for i in range(4):
        for j in range(4 - i):
            product = a[i] * b[j]
            columns[i + j] = columns[i + j] + (product & _MASK32)
            if i + j < 3:
                columns[i + j + 1] = columns[i + j + 1] + (product >> 32)
    return _carry(columns)


def reseat(gen: np.random.Generator, state: np.ndarray) -> np.random.Generator:
    """Point ``gen``'s PCG64 at one row of :func:`stream_states` and return it.

    The buffered half of a 32-bit draw is dropped, as in a fresh generator.
    """
    s_hi, s_lo, i_hi, i_lo = state.tolist()
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": (s_hi << 64) | s_lo, "inc": (i_hi << 64) | i_lo},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


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
