"""numpy's Philox4x64-10 stream and SeedSequence, computed in numpy alone.

uniform_block(key, shape) has the bits of
np.random.Generator(np.random.Philox(key=key)).random(shape), and
seed_words(entropy, count) those of
np.random.SeedSequence(entropy).generate_state(count, np.uint64), without
importing numpy.random, whose extension modules take about 6 MiB of resident
memory (numpy >= 2 imports it on first use; numpy 1.x with numpy itself).
Philox is the counter-based generator of Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3" (SC 2011); SeedSequence is numpy's port of
Melissa O'Neill's seed_seq hash.
"""

from __future__ import annotations

import math

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1

# Philox4x64: round multipliers, Weyl key increments, rounds.  Every operand
# of the block arithmetic is np.uint64, so no value-based cast can turn it
# into float64.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)

# SeedSequence: input and output hash constants, mix multipliers, pool size.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * x, from the
    32-bit halves of both factors (no partial sum passes 2^64 - 1)."""
    m_lo, m_hi = np.uint64(m & _MASK32), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    lo_lo, hi_lo, lo_hi = x_lo * m_lo, x_hi * m_lo, x_lo * m_hi
    cross = (lo_lo >> _SHIFT32) + (hi_lo & _LO32) + lo_hi
    hi = x_hi * m_hi + (hi_lo >> _SHIFT32) + (cross >> _SHIFT32)
    return hi, x * np.uint64(m)


def uniform_block(key: int, shape: tuple[int, ...]) -> np.ndarray:
    """Doubles in [0, 1) of the Philox4x64-10 stream with a 128-bit key, in
    C order: numpy's Generator(Philox(key=key)).random(shape), bit for bit.

    Block j of four 64-bit words encrypts the counter (j + 1, 0, 0, 0) under
    the key words (key mod 2^64, key >> 64), the key bumped by the Weyl
    increments before each round after the first; every block is computed
    at once.  Word x of the stream gives the double (x >> 11) * 2^-53.
    ValueError for a key below 0 or at least 2^128, as numpy's.
    """
    key = int(key)
    if not 0 <= key < 1 << 128:
        raise ValueError("key must be positive and less than 2**128.")
    count = math.prod(shape)
    blocks = -(-count // 4)
    x0 = np.arange(1, blocks + 1, dtype=np.uint64)
    x1 = x2 = x3 = np.zeros(blocks, dtype=np.uint64)
    k0, k1 = key & _MASK64, key >> 64
    for r in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        r0 = np.uint64((k0 + r * _PHILOX_W[0]) & _MASK64)
        r1 = np.uint64((k1 + r * _PHILOX_W[1]) & _MASK64)
        x0, x1, x2, x3 = hi1 ^ x1 ^ r0, lo1, hi0 ^ x3 ^ r1, lo0
    words = np.stack([x0, x1, x2, x3], axis=1).reshape(-1)[:count]
    return ((words >> _SHIFT11) * 2.0**-53).reshape(shape)


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix, a 32-bit hash whose constant starts at init
    and is multiplied by mult at each call."""
    const = init

    def hashmix(word: int) -> int:
        nonlocal const
        word ^= const
        const = const * mult & _MASK32
        word = word * const & _MASK32
        return word ^ word >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    out = (_MIX_L * x - _MIX_R * y) & _MASK32
    return out ^ out >> 16


def seed_words(entropy, count: int) -> list[int]:
    """count 64-bit words of numpy's SeedSequence(entropy), bit for bit:
    SeedSequence(entropy).generate_state(count, np.uint64) as Python ints.

    Each entry of entropy, a sequence of non-negative ints, gives its 32-bit
    words, least significant first (0 gives one word).  They are hashed into
    a pool of four words and mixed, and entropy beyond four words is mixed
    into every pool word after that.  The output hashes the pool cyclically
    into 2 * count 32-bit words, read in pairs, low word first.
    ValueError for a negative entry, as numpy's.
    """
    words = []
    for value in entropy:
        value = int(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _MASK32)
        while value := value >> 32:
            words.append(value & _MASK32)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in (words + [0] * _POOL_SIZE)[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(w))
    out = _hasher(_INIT_B, _MULT_B)
    halves = [out(pool[i % _POOL_SIZE]) for i in range(2 * count)]
    return [lo | hi << 32 for lo, hi in zip(halves[::2], halves[1::2])]
