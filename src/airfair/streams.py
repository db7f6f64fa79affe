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
all of them together instead of building one SeedSequence per stream.  A
key is a pure function of (seed, parts), so the rows come as a
:class:`KeyBatch`, which prepares all of the hash that no seed decides
once per seed word count, and a call at one seed places only its one or
two words and runs the mixing.
:func:`first_words` runs Philox4x64-10 on all keys at once for the first
64-bit word of every stream, and never writes the keys, which the caller
reads again.  Each has two kernels that give the same bits.  A small batch
runs on packed Python integers, every stream's value in its own
fixed-width field of one ``int`` (SIMD within a register; Lamport,
"Multiple byte processing with full-word instructions", CACM 1975):
64-bit fields for the hash's 32-bit words, 128-bit fields for Philox's
64-bit lanes, so one big-integer multiply makes every stream's full product
and masks reduce it.  A larger batch runs on numpy arrays, whose cost is
mostly a fixed cost per numpy call; Philox's rounds there run in place on
a few work buffers made once per call, with counter words c1 and c3 folded
into the low products they keep.  The batch sizes that switch kernels,
:data:`_PACKED_MAX_HASH` (65 rows) and :data:`_PACKED_MAX_PHILOX` (215
keys), are where the two took the same time.
The first draw of a stream is read off that word: a uniform
by :func:`first_uniforms`, a normal by :func:`first_normals`, which applies
the fast path of numpy's ziggurat, whose tables are read off the installed
numpy on first use.
The few keys whose normal needs more than one word, and any other draw,
come from :func:`restarted`, which moves one Philox to the start of each
stream in turn.
"""

from __future__ import annotations

import zlib
from functools import lru_cache

import numpy as np

__all__ = ["part_key", "derive_seed", "KeyBatch", "word_keys", "first_words", "first_uniforms", "first_normals",
           "restarted"]

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
# round multiplier and the Weyl increment that bumps the key before rounds
# 2..10.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
# The array kernel's lanes: the multiplier, its low and high 32-bit halves,
# the Weyl increment, and the low product of the first round on counter
# (1, 0, 0, 0), which is 1 x multiplier in lane 0 and 0 in lane 1.  Every
# operand is a uint64 array or scalar, never a Python int, so numpy wraps
# modulo 2**64 and writes through ``out=`` without a casting error under
# both numpy 1.x value-based promotion and NEP 50.
_PHILOX_LANES = np.array([_PHILOX_M,
                          [m & _MASK32 for m in _PHILOX_M],
                          [m >> 32 for m in _PHILOX_M],
                          _PHILOX_WEYL,
                          [_PHILOX_M[0], 0]], np.uint64)
_LO32, _32, _16 = np.uint64(_MASK32), np.uint64(32), np.uint32(16)

# The largest batches that run on packed Python integers; larger ones run on
# numpy arrays, whose cost is mostly a fixed cost per numpy call, where the
# packed kernels' grows with every key.  Each is the batch size at which the
# two kernels took the same time (best of 41 alternating rounds of 40 calls,
# in three processes, on a 2-CPU x86-64 VM with Python 3.11 and numpy 2.4):
# Philox at 215 keys (0.96x the array kernel's time at 200, 1.01x at 220),
# and the hash at 65 rows with a two-word seed, as derived seeds have
# (0.95x at 60, 1.00x at 65, 1.05x at 75; about the same with a one-word
# seed).  With its constants built once per batch size, the packed hash
# took 0.82-0.94x its former time at 41-130 rows, and the two hash kernels
# crossed at 85-100 rows, where the former packed one crossed at 80-90 on
# the same host; 65 stays, below both.
_PACKED_MAX_PHILOX = 215
_PACKED_MAX_HASH = 65

_LAYER, _SIGN, _RABS, _MASK52 = np.uint64(0xFF), np.uint64(8), np.uint64(9), np.uint64(2**52 - 1)


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
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


@lru_cache(maxsize=16)
def _constants(init: int, mult: int, uses: int) -> np.ndarray:
    """The hash constant before each of ``uses`` successive ``hashmix``
    calls and after the last, as a read-only column built once per
    length."""
    out = [init]
    for _ in range(uses):
        out.append(out[-1] * mult & _MASK32)
    column = np.array(out, np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hashmix(value: np.ndarray, const: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix``, the k-th row of the result made with
    ``const[k]`` and ``const[k + 1]``: the k-th of successive calls."""
    value = (value ^ const[:-1]) * const[1:]
    return value ^ (value >> _16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _16)


class KeyBatch:
    """The rows of a batch of streams, ready for :func:`word_keys` to hash
    at any seed.

    Row k of the uint32 array ``words`` holds the words of stream k's parts,
    which follow the seed's, and ``lengths[k]`` says how many it uses; the
    rest must be zero.  Both are copied and read-only.  All of the hash
    that no seed decides is prepared here, once per seed word count (a seed
    below 2**32 has one word, a larger one two), on first use for that
    count: the entropy words padded to the pool with zeros where the seed's
    go, which row uses each word past the pool, and the hash constants; for
    a batch of up to :data:`_PACKED_MAX_HASH` rows, the words and masks as
    packed integer fields (:func:`_packed_prepare`), else as arrays
    (:func:`_array_prepare`).  What is prepared is never written, so one
    batch serves every seed of a plan.
    """

    def __init__(self, words: np.ndarray, lengths: np.ndarray):
        self.words, self.lengths = np.array(words, np.uint32), np.array(lengths, np.intp)
        self.words.flags.writeable = self.lengths.flags.writeable = False
        self.packed = len(self.words) <= _PACKED_MAX_HASH
        self._by_head: dict[int, tuple] = {}

    def prepared(self, head: int) -> tuple:
        """The hash's seed-free inputs after ``head`` seed words."""
        out = self._by_head.get(head)
        if out is None:
            prepare = _packed_prepare if self.packed else _array_prepare
            out = self._by_head[head] = prepare(self.words, self.lengths + head, head)
        return out


def word_keys(seed: int, batch: KeyBatch) -> np.ndarray:
    """The Philox key of every row's stream of ``batch``, as a (rows, 2)
    uint64 array.

    SeedSequence's entropy mixing and ``generate_state(2, uint64)`` run once
    for all rows, on a pool of four words per row: packed into Python
    integers for batches of up to :data:`_PACKED_MAX_HASH` rows
    (:func:`_packed_word_keys`), and as a (4, rows) uint32 array above that
    (:func:`_array_word_keys`); 65 rows is where the two took the same time.
    Both read what the batch prepared for the seed's word count and place
    only the seed's one or two words, and give every key bit for bit.  The
    batch is never written, and the keys are a fresh array.
    """
    head = _words(seed & _MASK64)
    kernel = _packed_word_keys if batch.packed else _array_word_keys
    return kernel(head, batch.prepared(len(head)))


def _entropy(words: np.ndarray, head: int) -> tuple[np.ndarray, np.ndarray]:
    """The entropy words of every row after ``head`` seed words, one column
    per row, the seed's rows and the padding zero, and the hash constants
    they use."""
    width = max(_POOL_SIZE, head + words.shape[1])
    entropy = np.zeros((width, len(words)), np.uint32)
    entropy[head:head + words.shape[1]] = words.T
    return entropy, _constants(_INIT_A, _MULT_A, _POOL_SIZE * width + _POOL_SIZE * (_POOL_SIZE - 1))


def _array_prepare(words: np.ndarray, lengths: np.ndarray, head: int) -> tuple:
    """The array kernel's seed-free inputs: the entropy words, and for each
    word past the pool which rows use it, all read-only."""
    entropy, const = _entropy(words, head)
    used_by = np.arange(_POOL_SIZE, len(entropy))[:, None] < lengths
    entropy.flags.writeable = used_by.flags.writeable = False
    return entropy, used_by, const


def _array_word_keys(head: list[int], prepared: tuple) -> np.ndarray:
    """:func:`word_keys` on a (4, rows) uint32 pool: each hash step is one
    numpy call over every row and, in the pool's own mixing, over the
    three words that one source word mixes into."""
    entropy, used_by, const = prepared
    pool = entropy[:_POOL_SIZE].copy()
    pool[:len(head)] = np.array(head, np.uint32)[:, None]
    pool = _hashmix(pool, const[:_POOL_SIZE + 1])
    used = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], const[used:used + len(dst) + 1]))
        used += len(dst)
    for src in range(_POOL_SIZE, len(entropy)):              # words past the pool
        mixed = _mix(pool, _hashmix(entropy[src], const[used:used + _POOL_SIZE + 1]))
        pool = np.where(used_by[src - _POOL_SIZE], mixed, pool)
        used += _POOL_SIZE

    state = _hashmix(pool, _constants(_INIT_B, _MULT_B, _POOL_SIZE)).astype(np.uint64)
    keys = np.empty((entropy.shape[1], 2), np.uint64)
    keys[:, 0] = state[0] | state[1] << np.uint64(32)
    keys[:, 1] = state[2] | state[3] << np.uint64(32)
    return keys


def _packed_prepare(words: np.ndarray, lengths: np.ndarray, head: int) -> tuple:
    """The packed kernel's seed-free inputs: a word of 1 in every field,
    which spreads a seed word over the rows, the fields of every entropy
    word after the seed's and of every word past the pool's used-by mask,
    and the packed constants (:func:`_packed_constants`), after the row
    count and before the entropy width."""
    entropy, const = _entropy(words, head)
    used_by = (np.arange(_POOL_SIZE, len(entropy))[:, None] < lengths) * np.uint32(_MASK32)
    packed = np.concatenate([entropy[head:], used_by]).astype("<u8")              # explicit byte order
    fields = [int.from_bytes(w.tobytes(), "little") for w in packed]
    ones = int.from_bytes((b"\1" + bytes(7)) * len(words), "little")
    return len(words), ones, fields, len(entropy), _packed_constants(len(words), len(const) - 1)


def _packed_word_keys(head: list[int], prepared: tuple) -> np.ndarray:
    """:func:`word_keys` on Python integers, one per pool or entropy word,
    each holding the word of row k in bits 64k..64k + 31.

    A product of two 32-bit words stays inside its 64-bit field, so one
    big-integer multiply runs a hash step on every row, and masking the low
    32 bits of every field reduces each result modulo 2**32.  The mix's
    ``L*x - R*y`` is computed as ``2**63 - ((2**32 - L)*x + R*y)``, which
    is congruent to it modulo 2**32 and positive in every field, so no
    field borrows from the next.  A row that ends before an entropy word
    past the pool keeps its pool through that word's mixing.  Every field
    but the seed's comes prepared (:func:`_packed_prepare`).
    """
    rows, ones, prepared_fields, width, (low, bias, hash_a, hash_b) = prepared
    fields = [word * ones for word in head] + prepared_fields
    mult_l, mult_r = (1 << 32) - int(_MIX_MULT_L), int(_MIX_MULT_R)

    def hashmix(value: int, c: tuple[tuple[int, int], ...], k: int) -> int:
        value = (value ^ c[k][1]) * c[k + 1][0] & low
        return (value ^ value >> 16) & low

    def mix(x: int, y: int) -> int:
        result = bias - (mult_l * x + mult_r * y) & low
        return (result ^ result >> 16) & low

    pool = [hashmix(fields[i], hash_a, i) for i in range(_POOL_SIZE)]
    used = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src], hash_a, used))
                used += 1
    for src in range(_POOL_SIZE, width):                     # words past the pool
        keep = fields[width + src - _POOL_SIZE]
        for dst in range(_POOL_SIZE):
            pool[dst] ^= (mix(pool[dst], hashmix(fields[src], hash_a, used)) ^ pool[dst]) & keep
            used += 1

    state = [hashmix(pool[i], hash_b, i) for i in range(_POOL_SIZE)]
    keys = np.empty((rows, 2), np.uint64)
    keys[:, 0] = np.frombuffer((state[0] | state[1] << 32).to_bytes(8 * rows, "little"), "<u8")
    keys[:, 1] = np.frombuffer((state[2] | state[3] << 32).to_bytes(8 * rows, "little"), "<u8")
    return keys


@lru_cache(maxsize=256)      # up to _PACKED_MAX_HASH row counts for each of a few entropy widths
def _packed_constants(rows: int, uses: int) -> tuple[int, int, tuple, tuple]:
    """The packed hash's constants for a batch of ``rows`` rows: the mask
    of every field's low 32 bits, the mix's bias of 2**63 in every field,
    and for the ``uses`` pool and entropy ``hashmix`` calls, and for the
    four that make the state, each hash constant as a multiplier and as a
    word in every field, ``(c, c * ones)``.  Built once per row count and
    entropy width."""
    ones = int.from_bytes((b"\1" + bytes(7)) * rows, "little")
    hash_a, hash_b = (tuple((c, c * ones) for c in _constants(init, mult, n)[:, 0].tolist())
                    for init, mult, n in ((_INIT_A, _MULT_A, uses), (_INIT_B, _MULT_B, _POOL_SIZE)))
    return ones * _MASK32, ones << 63, hash_a, hash_b


def first_words(keys: np.ndarray) -> np.ndarray:
    """Word 0 of Philox4x64-10 at counter (1, 0, 0, 0) for every key row:
    the first 64-bit word that ``Philox(key=k)`` hands out.

    Batches of up to :data:`_PACKED_MAX_PHILOX` keys run on packed Python
    integers (:func:`_packed_first_words`), larger ones on numpy arrays
    (:func:`_array_first_words`); 215 keys is where the two took the same
    time.  Both give every word bit for bit.  The caller's keys, which
    :func:`first_normals` reads again, are never written, and the words
    returned are a fresh array that shares no buffer with another call.
    """
    if len(keys) <= _PACKED_MAX_PHILOX:
        return _packed_first_words(keys)
    return _array_first_words(keys)


def _packed_first_words(keys: np.ndarray) -> np.ndarray:
    """:func:`first_words` on Python integers, one per key lane, each
    holding the key word of row k in bits 128k..128k + 63.

    A product of two 64-bit words stays inside its 128-bit field, so one
    big-integer multiply gives every row's round product, its high word a
    shift away.  A round keeps its whole products: their low words are the
    counter words c1 and c3 that the next round reads, and what lies above
    them is masked off with the rest when the new ``[c0, c2]`` are.  The
    key lanes are bumped without a mask, since nine Weyl increments add
    less than 2**68 to a field.
    """
    n = len(keys)
    lanes = np.zeros((2, n, 2), "<u8")              # explicit byte order, key word in a field's low half
    lanes[:, :, 0] = keys.T
    raw = lanes.tobytes()
    a0, a1 = int.from_bytes(raw[:16 * n], "little"), int.from_bytes(raw[16 * n:], "little")
    ones = int.from_bytes((b"\1" + bytes(15)) * n, "little")
    low = ones * _MASK64
    (m0, m1), (w0, w1) = _PHILOX_M, (ones * w for w in _PHILOX_WEYL)
    k0, k1 = a0, a1                                 # [c0, c2] = [k0, k1] after round 1
    p0, p1 = ones * m0, 0                           # and c3 = lo0 = m0, c1 = lo1 = 0
    for _ in range(9):
        k0 += w0
        k1 += w1
        q0, q1 = a0 * m0, a1 * m1
        a0 = (q1 >> 64 ^ p1 ^ k0) & low             # c0 = hi1 ^ c1 ^ k0
        a1 = (q0 >> 64 ^ p0 ^ k1) & low             # c2 = hi0 ^ c3 ^ k1
        p0, p1 = q0, q1
    return np.frombuffer(a0.to_bytes(16 * n, "little"), "<u8")[::2].astype(np.uint64)


def _array_first_words(keys: np.ndarray) -> np.ndarray:
    """:func:`first_words` on numpy arrays.

    The two lanes of every key are laid side by side in one 1-D array,
    ``[lane 0 | lane 1]``, and the rounds run in place: every ufunc writes
    through ``out=`` into work buffers of length 2n made once per call, and
    each 64 x 64 -> 128-bit round product is put together from 32-bit
    halves.  Counter words c1 and c3 get no lane of their own: after a round
    they are its low products with the lanes swapped, so the next round's
    ``[c0 | c2]`` is ``swap(hi ^ lo_prev) ^ key``.  The keys are copied
    first (``flatten`` always copies, where ``ravel`` returns a view of a
    one-row or Fortran-ordered array).
    """
    n = len(keys)
    m, m_lo, m_hi, weyl, lo = np.repeat(_PHILOX_LANES, n, axis=1)
    a = keys.T.flatten()                            # [c0 | c2] = [k0 | k1] after round 1
    k = a.copy()                                    # the key, bumped before rounds 2..10
    x_lo, x_hi, mid, top, hi = np.empty((5, 2 * n), np.uint64)
    for _ in range(9):
        np.bitwise_and(a, _LO32, out=x_lo)
        np.right_shift(a, _32, out=x_hi)
        np.multiply(x_lo, m_lo, out=top)            # mid = x_lo * m_hi + (x_lo * m_lo >> 32) < 2**64
        np.right_shift(top, _32, out=top)
        np.multiply(x_lo, m_hi, out=mid)
        np.add(mid, top, out=mid)
        np.multiply(x_hi, m_lo, out=top)            # top = x_hi * m_lo + (mid & LO32): no carry is lost
        np.bitwise_and(mid, _LO32, out=hi)
        np.add(top, hi, out=top)
        np.multiply(x_hi, m_hi, out=hi)             # hi = x_hi * m_hi + (mid >> 32) + (top >> 32)
        np.right_shift(mid, _32, out=mid)
        np.add(hi, mid, out=hi)
        np.right_shift(top, _32, out=top)
        np.add(hi, top, out=hi)
        np.bitwise_xor(hi, lo, out=hi)              # hi ^ lo_prev, lanes not yet swapped
        np.multiply(a, m, out=lo)                   # this round's low products
        np.add(k, weyl, out=k)
        np.bitwise_xor(hi[n:], k[:n], out=a[:n])    # c0 = hi1 ^ c1 ^ k0, with c1 = lo1_prev
        np.bitwise_xor(hi[:n], k[n:], out=a[n:])    # c2 = hi0 ^ c3 ^ k1, with c3 = lo0_prev
    return a[:n].copy()


def first_uniforms(words: np.ndarray) -> np.ndarray:
    """What ``Generator(Philox(key=k)).random()`` returns, for every stream
    whose first word :func:`first_words` made: ``(w >> 11) * 2**-53`` of
    that word w.  ``uniform(lo, hi)`` would return ``lo + (hi - lo) * u``.
    """
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


@lru_cache(maxsize=1)
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """numpy's 256-layer ziggurat for standard normals (Marsaglia & Tsang,
    "The Ziggurat Method for Generating Random Variables", JSS 2000), as
    read-only ``(wi, ki)``: layer i returns ``rabs * wi[i]`` from one word
    when ``rabs < ki[i]``.  Built on first use, since the tables are read
    off the installed numpy, which costs its ``numpy.random`` import.

    ``wi[i]`` is what ``standard_normal`` returns for the word with rabs 1,
    sign + and layer i: an SFC64 at state (w, 0, 0, 0) hands out w, then 1.
    Layer 1 (``ki`` 0) takes the wedge, whose uniform is 0 from that second
    word, so it still returns ``wi[1]``.  ``ki`` follows from the layer
    edges ``x = wi * 2**52`` by the method's definition, rounded to nearest:
    ``2**52 * x[255] / x[0]`` for the base layer, 0 for layer 1 and
    ``2**52 * x[i - 1] / x[i]`` above it.
    """
    bitgen = np.random.SFC64(0)
    gen = np.random.Generator(bitgen)
    state = {"bit_generator": "SFC64", "state": {"state": None}, "has_uint32": 0, "uinteger": 0}
    wi = np.empty(256)
    for layer in range(256):
        state["state"]["state"] = [1 << 9 | layer, 0, 0, 0]
        bitgen.state = state
        wi[layer] = gen.standard_normal()
    x = wi * 2.0**52
    ratio = np.concatenate([[x[255] / x[0], 0.0], x[1:255] / x[2:]])
    ki = np.rint(2.0**52 * ratio).astype(np.uint64)
    wi.flags.writeable = ki.flags.writeable = False
    return wi, ki


def first_normals(keys: np.ndarray, words: np.ndarray, loc: float, scale: float) -> np.ndarray:
    """What ``Generator(Philox(key=k)).normal(loc, scale)`` returns, for every
    key row k, given each stream's first word from :func:`first_words`.

    numpy's ziggurat splits a word w into the layer ``w & 0xff``, the sign
    (bit 8) and the 52 bits ``rabs`` above it, and returns ``±rabs * wi``
    at once when ``rabs`` is below the layer's ``ki``.  That fast path is
    taken here for all keys together; the keys that miss it (about 1.5% of
    random keys) draw from their restarted stream.  The result is
    ``loc + scale * z``, the arithmetic of ``Generator.normal``.
    """
    wi, ki = _ziggurat_tables()
    layer = (words & _LAYER).astype(np.intp)
    rabs = words >> _RABS & _MASK52
    z = rabs.astype(np.float64) * wi[layer]
    z = np.where(words >> _SIGN & np.uint64(1), -z, z)
    slow = (rabs >= ki[layer]).nonzero()[0]
    if len(slow):
        gen = np.random.Generator(np.random.Philox(0))
        z[slow] = [g.standard_normal() for g in restarted(keys[slow], gen)]
    with np.errstate(over="ignore"):        # a huge scale overflows to ±inf silently, as in numpy's C
        return loc + scale * z


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
