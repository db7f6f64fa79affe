"""Counter-based random streams keyed by (seed, parts...).

Every random draw of a simulation comes from its own Philox stream, keyed by
the scenario seed and a tuple of parts such as a purpose, a round index and
node ids.  The stream of ``(seed, *parts)`` is the one that
``Philox(SeedSequence([seed mod 2**64, *(part_key(p) for p in parts)]))``
starts: strings are keyed by the CRC-32 of their UTF-8 bytes, integers by
their value.  Because Philox is counter-based, a draw depends on its key
alone, so all of a scenario's draws can be made up front.

:func:`stream_keys` derives the Philox keys of many streams at once, running
SeedSequence's hash on uint32 arrays instead of building one SeedSequence
per stream, and :func:`restarted` moves one Philox to the start of each
stream in turn.
"""

from __future__ import annotations

import zlib
from typing import Sequence

import numpy as np

__all__ = ["part_key", "derive_seed", "stream_keys", "restarted"]

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words, hash constants that advance by a multiply on every use, and
# the multipliers of its two-word mix.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


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


class _Hash:
    """SeedSequence's ``hashmix`` on uint32 columns, with its running constant."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = self.const * self.mult & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def stream_keys(seed: int, rows: Sequence[Sequence]) -> np.ndarray:
    """The Philox key of every row's stream, as a (rows, 2) uint64 array.

    Row ``parts`` gets the key that
    ``Philox(SeedSequence([seed mod 2**64, *(part_key(p) for p in parts)]))``
    starts from.  SeedSequence's entropy mixing and ``generate_state(2,
    uint64)`` run once for all rows, column by column, on uint32 arrays.
    """
    head = _words(seed & _MASK64)
    memo: dict = {}
    flat: list[int] = []
    sizes = []
    for parts in rows:
        start = len(flat)
        flat += head
        for p in parts:
            w = memo.get(p)
            if w is None:
                w = memo[p] = _words(part_key(p))
            flat += w
        sizes.append(len(flat) - start)
    lengths = np.array(sizes, dtype=np.intp)
    width = max(_POOL_SIZE, int(lengths.max(initial=0)))
    row = np.repeat(np.arange(len(lengths)), lengths)
    words = np.zeros((len(lengths), width), np.uint32)   # rows padded with zeros
    words[row, np.arange(len(row)) - (np.cumsum(lengths) - lengths)[row]] = np.array(flat, np.uint32)

    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [hashmix(words[:, i]) for i in range(_POOL_SIZE)]   # short rows read zeros
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, width):                       # words past the pool
        live = src < lengths
        for dst in range(_POOL_SIZE):
            pool[dst] = np.where(live, _mix(pool[dst], hashmix(words[:, src])), pool[dst])

    hashmix = _Hash(_INIT_B, _MULT_B)
    state = [hashmix(pool[i]).astype(np.uint64) for i in range(4)]
    keys = np.empty((len(lengths), 2), np.uint64)
    keys[:, 0] = state[0] | state[1] << np.uint64(32)
    keys[:, 1] = state[2] | state[3] << np.uint64(32)
    return keys


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
