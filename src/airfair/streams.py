"""Counter-based random streams keyed by (seed, parts...).

Every random draw of a simulation comes from its own Philox stream, keyed by
the scenario seed and a tuple of parts such as a purpose, a round index and
node ids.  The stream of ``(seed, *parts)`` is the one that
``Philox(SeedSequence([seed mod 2**64, *(part_key(p) for p in parts)]))``
starts: strings are keyed by the CRC-32 of their UTF-8 bytes, integers by
their value.  Because Philox is counter-based, a draw depends on its key
alone, so all of a scenario's draws can be made up front.

:func:`word_keys` derives the Philox keys of many streams at once from
their parts spelled as 32-bit entropy words, running SeedSequence's hash on
uint32 arrays instead of building one SeedSequence per stream.  The first
uniform draw of every stream comes from :func:`first_uniforms`, which runs
Philox4x64-10 on all keys at once, and :func:`restarted` moves one Philox to
the start of each stream in turn for the draws numpy makes in other ways,
such as normal variates.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["part_key", "derive_seed", "word_keys", "first_uniforms", "restarted"]

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words, hash constants that advance by a multiply on every use, and
# the multipliers of its two-word mix.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC 2011), as numpy runs it: per key lane (c0 with k0, c2 with k1), the
# round multiplier, its low and high 32-bit halves, and counter word c1 or c3
# after the first round on counter (1, 0, 0, 0); then the Weyl increments
# that bump the key before rounds 2..10.  Every operand is uint64, so numpy
# wraps modulo 2**64 on every numpy version.
_PHILOX_LANES = np.array([[0xD2E7470EE14C6C93, 0xCA5A826395121157],
                          [0xE14C6C93, 0x95121157],
                          [0xD2E7470E, 0xCA5A8263],
                          [0, 0xD2E7470EE14C6C93]], np.uint64)
_PHILOX_BUMPS = np.arange(1, 10, dtype=np.uint64)[:, None] * np.array(
    [0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], np.uint64)
_LO32, _32, _16 = np.uint64(_MASK32), np.uint64(32), np.uint32(16)


def part_key(part) -> int:
    """The entropy integer of one part of a stream key."""
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return int(part)


def derive_seed(seed: int, *parts) -> int:
    """Stable child seed for independent runs (repetitions, contacts)."""
    entropy = [seed & _MASK64] + [part_key(p) for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _words(n: int) -> list[int]:
    """A non-negative entropy integer as SeedSequence reads it: little-endian
    32-bit words, at least one."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _constants(init: int, mult: int, uses: int) -> np.ndarray:
    """The hash constant before each of ``uses`` successive ``hashmix``
    calls and after the last, as a column."""
    out = [init]
    for _ in range(uses):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, np.uint32)[:, None]


def _hashmix(value: np.ndarray, const: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix``, the k-th row of the result made with
    ``const[k]`` and ``const[k + 1]``: the k-th of successive calls."""
    value = (value ^ const[:-1]) * const[1:]
    return value ^ (value >> _16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _16)


def word_keys(seed: int, words: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The Philox key of every row's stream, as a (rows, 2) uint64 array.

    Row k of the uint32 array ``words`` holds the words of stream k's parts,
    which follow the seed's, and ``lengths[k]`` says how many it uses; the
    rest must be zero.  SeedSequence's entropy mixing and
    ``generate_state(2, uint64)`` run once for all rows, on a (4, rows)
    pool.
    """
    head = _words(seed & _MASK64)
    lengths = np.asarray(lengths) + len(head)
    width = max(_POOL_SIZE, len(head) + words.shape[1])
    entropy = np.zeros((width, len(words)), np.uint32)      # one column per row, padded with zeros
    entropy[:len(head)] = np.array(head, np.uint32)[:, None]
    entropy[len(head):len(head) + words.shape[1]] = words.T

    const = _constants(_INIT_A, _MULT_A, _POOL_SIZE * width + _POOL_SIZE * (_POOL_SIZE - 1))
    pool = _hashmix(entropy[:_POOL_SIZE], const[:_POOL_SIZE + 1])
    used = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], const[used:used + len(dst) + 1]))
        used += len(dst)
    for src in range(_POOL_SIZE, width):                     # words past the pool
        mixed = _mix(pool, _hashmix(entropy[src], const[used:used + _POOL_SIZE + 1]))
        pool = np.where(src < lengths, mixed, pool)
        used += _POOL_SIZE

    state = _hashmix(pool, _constants(_INIT_B, _MULT_B, _POOL_SIZE)).astype(np.uint64)
    keys = np.empty((len(words), 2), np.uint64)
    keys[:, 0] = state[0] | state[1] << np.uint64(32)
    keys[:, 1] = state[2] | state[3] << np.uint64(32)
    return keys


def first_uniforms(keys: np.ndarray) -> np.ndarray:
    """What ``Generator(Philox(key=k)).random()`` returns, for every key row k.

    That draw is word 0 of Philox4x64-10 at counter (1, 0, 0, 0), as
    ``(x >> 11) * 2**-53``; ``uniform(lo, hi)`` would return
    ``lo + (hi - lo) * u``.  The two lanes of every key are laid side by side
    in one array, and each 64 x 64 -> 128-bit round product is put together
    from 32-bit halves.
    """
    n = len(keys)
    m, m_lo, m_hi, b = np.repeat(_PHILOX_LANES, n, axis=1)   # b = [c1 | c3]
    a = keys.T.ravel()                                       # [c0 | c2] = [k0 | k1] after round 1
    for k in a + np.repeat(_PHILOX_BUMPS, n, axis=1):        # the keys of rounds 2..10
        x_lo, x_hi = a & _LO32, a >> _32
        mid = x_lo * m_hi + (x_lo * m_lo >> _32)             # < 2**64: no carry is lost
        top = x_hi * m_lo + (mid & _LO32)
        hi = x_hi * m_hi + (mid >> _32) + (top >> _32)
        lo = a * m
        a = np.concatenate((hi[n:], hi[:n])) ^ b ^ k         # c0 = hi1 ^ c1 ^ k0, c2 = hi0 ^ c3 ^ k1
        b = np.concatenate((lo[n:], lo[:n]))                 # c1 = lo1, c3 = lo0
    return (a[:n] >> np.uint64(11)).astype(np.float64) * 2.0**-53


def restarted(keys: np.ndarray, gen: np.random.Generator):
    """Yield ``gen`` once per key, its Philox each time moved to the start
    of that key's stream: counter 0 and an empty buffer, as a Philox seeded
    through SeedSequence starts."""
    bitgen = gen.bit_generator
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in keys.tolist():
        state["state"]["key"] = key
        bitgen.state = state
        yield gen
