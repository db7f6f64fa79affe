"""Batched random draws against the per-draw reference.

The simulator derives all stream keys of a scenario in one batch, with
SeedSequence's hash run on all rows together, makes the first word of every
stream with one Philox4x64-10 pass, and reads the uniform and normal draws
off those words, the normals through the fast path of numpy's ziggurat.
The hash and the Philox pass each run on packed Python integers for small
batches and on numpy arrays for large ones.  These tests hold both kernels
to the numbers that building one SeedSequence and Philox per draw gives,
pin the ziggurat tables to the installed numpy, and check that sharing the
draws, and the solves each round keeps on them, across policies
and slot sizes changes no result and does each distinct round's work once.
"""

import gc
import json
import math
import subprocess
import sys
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

import support
from airfair import bargaining, cli, simulate, streams
from airfair.grouping import NoGoCandidateError, ScheduleError
from airfair.scenario_io import PRESETS, scenario_from_dict
from airfair.simulate import (
    PCD_FLOOR,
    POLICIES,
    Scenario,
    _round_draws,
    compare_means,
    compare_policies,
    derive_seed,
    repeated_contacts,
    run_scenario,
    scale_contact_durations,
    slot_size_sweep,
)
from airfair.streams import KeyBatch, _ziggurat_tables, first_normals, first_uniforms, first_words, part_key, word_keys

LOSS = {"lo": 0.05, "hi": 0.3}
PCD_ERROR = {"stddev": 1.0}


def _crowd48_doc():
    """48 nodes joining in four waves and leaving in three, so rounds of
    12 to 48 members follow each other, with an elected GO."""
    return {
        "nodes": [
            {"id": f"c{i:02d}", "join_s": 2.0 * (i % 4), "leave_s": 60.0 - 15.0 * (i % 3),
             "data_mb": 10.0 + 1.5 * i, "upload_mbps": (5.5, 11.0, 24.0, 54.0)[i % 4]}
            for i in range(48)
        ],
        "broadcast_mbps": 11.0,
        "t_slot_ms": 5.0,
        "loss": LOSS,
        "pcd_error": PCD_ERROR,
        "seed": 611,
    }


def _restricted_doc():
    """Only the hub h, present throughout, reaches everyone: a-c, b-d and
    c-e are out of range."""
    ids = ["h", "a", "b", "c", "d", "e"]
    gaps = ({"a", "c"}, {"b", "d"}, {"c", "e"})
    edges = [[x, y] for i, x in enumerate(ids) for y in ids[i + 1:] if {x, y} not in gaps]
    return {
        "nodes": [
            {"id": x, "join_s": 0.5 * k, "leave_s": 40.0 - 5.0 * k, "data_mb": 8.0 + 4.0 * k}
            for k, x in enumerate(ids)
        ],
        "broadcast_mbps": 11.0,
        "t_slot_ms": 10.0,
        "connectivity": {"edges": edges},
        "loss": LOSS,
        "pcd_error": PCD_ERROR,
        "seed": 42,
    }


def _non_ascii_doc():
    ids = ["ñandú", "节点", "Ωmega", "knoten-ä", "📡"]
    return {
        "nodes": [
            {"id": x, "join_s": float(k), "leave_s": 60.0 - 8.0 * k, "data_mb": 15.0 + 5.0 * k}
            for k, x in enumerate(ids)
        ],
        "broadcast_mbps": 11.0,
        "t_slot_ms": 20.0,
        "loss": LOSS,
        "pcd_error": PCD_ERROR,
        "seed": 9,
    }


def _complete20_doc():
    """20 nodes in three waves on a complete graph: a full round has 190
    member pairs, enough that some PCD keys miss the ziggurat's fast path."""
    return {
        "nodes": [
            {"id": f"n{i:02d}", "join_s": 1.0 * (i % 3), "leave_s": 50.0 - 10.0 * (i % 2), "data_mb": 5.0 + i}
            for i in range(20)
        ],
        "broadcast_mbps": 11.0,
        "t_slot_ms": 10.0,
        "loss": LOSS,
        "pcd_error": PCD_ERROR,
        "seed": 1301,
    }


QUIET_DYNAMIC4 = {k: v for k, v in PRESETS["dynamic4"].items() if k not in ("loss", "pcd_error")}
SCENARIOS = {
    "table1": {**PRESETS["table1"], "loss": LOSS, "pcd_error": PCD_ERROR},
    "dynamic4": {**QUIET_DYNAMIC4, "loss": LOSS, "pcd_error": PCD_ERROR, "seed": 3},
    "crowd48": _crowd48_doc(),
    "restricted": _restricted_doc(),
    "non-ascii": _non_ascii_doc(),
}


def _drained_doc():
    """Every queue fits its first traffic round, so every policy drains it
    and later rounds start from the same loads under every policy."""
    return {
        "nodes": [
            {"id": "a", "join_s": 0.0, "leave_s": 8.0, "data_mb": 2.0},
            {"id": "b", "join_s": 0.0, "leave_s": 16.0, "data_mb": 3.0},
            {"id": "c", "join_s": 4.0, "leave_s": 20.0, "data_mb": 1.5},
            {"id": "d", "join_s": 12.0, "leave_s": 20.0, "data_mb": 1.0},
        ],
        "broadcast_mbps": 11.0,
        "t_slot_ms": 20.0,
        "loss": LOSS,
        "pcd_error": PCD_ERROR,
        "seed": 21,
    }


#: documents that take the policies' shared rounds down other paths: a GO
#: pinned while present and elected after it leaves, rounds shared after
#: the first traffic round, and a node with nothing queued
SHARED_ROUNDS = {
    "pinned-go": {**SCENARIOS["dynamic4"], "go": "n2", "seed": 4},
    "drained": _drained_doc(),
    "zero-load": {**SCENARIOS["table1"],
                  "nodes": [{**n, "data_mb": 0.0} if n["id"] == "n2" else n for n in PRESETS["table1"]["nodes"]]},
}


def _oracle_key(seed, parts):
    entropy = [seed & 0xFFFFFFFFFFFFFFFF] + [part_key(p) for p in parts]
    return np.random.Philox(np.random.SeedSequence(entropy)).state["state"]["key"]


def _word_count(seed, parts):
    values = [seed & 0xFFFFFFFFFFFFFFFF] + [part_key(p) for p in parts]
    return sum(1 if v < 2**32 else 2 for v in values)


SEEDS = [0, 7, 2**32 - 1, 2**32, 2**63 + 11, -1, -(2**40), 2**64 + 5, 2**70 + 2**33]
ROWS = [
    (),
    ("pcd",),
    (0,),
    ("loss", 0),
    ("rx", 3, "n1"),
    ("pcd", 0, "a", "b"),
    ("rx", 12, "ñandú", "📡"),
    ("loss", 0, 0, 0, 0),
    ("rx", 2**32, "x", "y", 2**40),
    ("pcd", 1, "a", "b", "c", "d", 0),
    (0, 0, 0, 0, 0, 0, 0, 0),
]


def _spelled(rows):
    """The rows' parts as SeedSequence reads them: each part key as
    little-endian 32-bit words, one row per stream padded with zeros, and
    the number of words each row uses."""
    spelled = []
    for parts in rows:
        row = []
        for p in parts:
            v = part_key(p)
            row += [(v >> (32 * i)) & 0xFFFFFFFF for i in range(max(1, -(-v.bit_length() // 32)))]
        spelled.append(row)
    lengths = np.array([len(row) for row in spelled], dtype=np.intp)
    words = np.zeros((len(rows), int(lengths.max(initial=0))), np.uint32)
    for k, row in enumerate(spelled):
        words[k, :len(row)] = row
    return words, lengths


def test_stream_keys_match_seed_sequence():
    """Every row's key is SeedSequence's, alone, in a batch small enough for
    the packed kernel and in the rows repeated past it, each batch made
    once for every seed, and the keys a fresh array."""
    counts = {_word_count(seed, parts) for seed in SEEDS for parts in ROWS}
    assert set(range(1, 9)) <= counts        # below, at and above the pool of four words
    padded = ROWS * (streams._PACKED_MAX_HASH // len(ROWS) + 1)
    assert len(ROWS) <= streams._PACKED_MAX_HASH < len(padded)
    batches = [KeyBatch(*_spelled(rows)) for rows in (ROWS, padded)]    # rows of every length in one batch
    alone = [KeyBatch(*_spelled([parts])) for parts in ROWS]
    for seed in SEEDS:
        want = [_oracle_key(seed, parts) for parts in ROWS]
        for batch in batches:
            keys = word_keys(seed, batch)
            assert keys.dtype == np.uint64 and keys.shape == (len(batch.words), 2) and keys.flags.writeable
            assert [key.tolist() for key in keys] == [key.tolist() for key in want] * (len(keys) // len(ROWS)), seed
        for batch, key in zip(alone, want):
            assert np.array_equal(word_keys(seed, batch)[0], key), (seed, batch.words)
    assert word_keys(5, KeyBatch(*_spelled([]))).shape == (0, 2)


def _batch_state(value):
    """Everything a key batch holds, arrays as their bytes, for ``==``."""
    if isinstance(value, KeyBatch):
        return _batch_state(vars(value))
    if isinstance(value, dict):
        return sorted((k, _batch_state(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_batch_state(v) for v in value]
    if isinstance(value, np.ndarray):
        assert not value.flags.writeable
        return value.dtype.str, value.shape, value.tobytes()
    return value


@pytest.mark.parametrize("size", [1, streams._PACKED_MAX_HASH, streams._PACKED_MAX_HASH + 1])
def test_one_key_batch_serves_seeds_of_either_width(size):
    """One batch, prepared once per seed word count, gives every row
    SeedSequence's ``generate_state(2, uint64)`` at seeds of one and two
    words taken in turn, on the packed kernel up to 65 rows and on arrays
    above; after its first use at each width the batch is never written,
    and every array it holds is read-only."""
    rows = (ROWS * size)[:size]
    batch = KeyBatch(*_spelled(rows))
    assert batch.packed == (size <= streams._PACKED_MAX_HASH)
    seeds = [0, 2**32, 1, 2**64 - 1, 2**32 - 1, 2**64 + 5]       # one word, two, one, two, one, one
    held = None
    for rnd in range(2):
        for seed in seeds:
            entropy = [[seed & 0xFFFFFFFFFFFFFFFF, *map(part_key, parts)] for parts in rows]
            want = [np.random.SeedSequence(e).generate_state(2, np.uint64).tolist() for e in entropy]
            assert word_keys(seed, batch).tolist() == want, (size, seed)
            if rnd:
                assert _batch_state(batch) == held
        held = _batch_state(batch)
    assert sorted(batch._by_head) == [1, 2]


_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)


def _middle_carry(x, m):
    """What the middle 32-bit column of x * m carries into the high word."""
    lo = 0xFFFFFFFF
    return ((x & lo) * (m & lo) >> 32) + ((x & lo) * (m >> 32) & lo) + ((x >> 32) * (m & lo) & lo) >> 32


# After round 1 on counter (1, 0, 0, 0), Philox multiplies key word 0 by the
# first constant and key word 1 by the second, so these keys make that
# column carry 0, 1 and 2.
CARRY_WORDS = [0, 2**32 - 1, 2**63 - 1, 0x87B0B125EC1D7DA0, 2**64 - 1]
EDGE_KEYS = [(a, b) for a in CARRY_WORDS for b in CARRY_WORDS] + [(2**64 - 1, 0), (1, 2**63)]


def _oracle_uniform(key, bounds=None):
    gen = np.random.Generator(np.random.Philox(key=np.array(key, np.uint64)))
    return gen.random() if bounds is None else gen.uniform(*bounds)


def test_first_uniforms_match_philox():
    assert {_middle_carry(w, m) for w in CARRY_WORDS for m in _PHILOX_M} == {0, 1, 2}
    random_keys = np.random.default_rng(17).integers(0, 2**64, size=(2000, 2), dtype=np.uint64)
    for keys in (np.array(EDGE_KEYS, np.uint64), random_keys, random_keys[:1]):
        words = first_words(keys)
        assert words.dtype == np.uint64 and words.shape == (len(keys),)
        assert words.tolist() == [int(np.random.Philox(key=k).random_raw()) for k in keys]
        got = first_uniforms(words)
        assert got.dtype == np.float64 and got.shape == (len(keys),)
        assert [u.hex() for u in got.tolist()] == [float(_oracle_uniform(k)).hex() for k in keys]
    assert first_words(np.zeros((0, 2), np.uint64)).shape == (0,)


def test_first_words_match_reference_across_sizes():
    """Both kernels give, bit for bit, the words of the reference that
    builds fresh arrays in every round, on the carry-edge keys and on random
    keys of every size from 0 to twice the packed kernel's largest batch,
    each size run twice in turn, and on one batch of 2,351 keys."""
    edge = np.array(EDGE_KEYS, np.uint64)
    assert np.array_equal(first_words(edge), support.reference_first_words(edge))
    rng = np.random.default_rng(41)
    sizes = range(2 * streams._PACKED_MAX_PHILOX + 1)
    for size in [*sizes, *sizes, 2351]:
        keys = rng.integers(0, 2**64, size=(size, 2), dtype=np.uint64)
        words = first_words(keys)
        assert words.dtype == np.uint64 and words.shape == (size,)
        assert np.array_equal(words, support.reference_first_words(keys)), size


@pytest.mark.parametrize("layout", ["one-row", "fortran", "strided"])
@pytest.mark.parametrize("writeable", [True, False])
def test_first_words_leaves_keys_alone(layout, writeable):
    """``first_words`` never writes into its keys, whose flattened lanes
    are a view for a one-row or Fortran-ordered array, and its words
    share no buffer with a later call on as many keys.  Fortran-ordered
    and strided keys are checked on both kernels, one-row keys on the
    packed one, the only one that takes them."""
    for rows in [1] if layout == "one-row" else [6, streams._PACKED_MAX_PHILOX + 1]:
        base = np.random.default_rng(43).integers(0, 2**64, size=(2 * rows + 4, 2), dtype=np.uint64)
        keys = {"one-row": base[3:4], "fortran": np.asfortranarray(base[:rows]), "strided": base[::2][:rows]}[layout]
        keys.flags.writeable = writeable
        before = keys.tobytes()
        words = first_words(keys)
        assert keys.tobytes() == before
        assert words.flags.writeable
        assert words.tolist() == [int(np.random.Philox(key=k).random_raw()) for k in keys]
        kept = words.copy()
        first_words(base[rows + 1:rows + 1 + len(keys)])
        assert np.array_equal(words, kept)


@pytest.mark.parametrize("lo, hi", [(0.0, 0.1), (0.05, 0.3), (0.25, 0.25), (0.0, 0.0), (0.3, 0.9999999)])
def test_first_uniforms_give_numpy_uniform(lo, hi):
    """``lo + (hi - lo) * u`` is what ``uniform(lo, hi)`` draws, the way the
    simulator makes loss probabilities."""
    keys = np.concatenate([np.array(EDGE_KEYS, np.uint64),
                           np.random.default_rng(23).integers(0, 2**64, size=(500, 2), dtype=np.uint64)])
    got = lo + (hi - lo) * first_uniforms(first_words(keys))
    assert [u.hex() for u in got.tolist()] == [float(_oracle_uniform(k, (lo, hi))).hex() for k in keys]


@pytest.mark.parametrize("loc, scale", [(0.0, 1.0), (0.3, 2.5), (-4.0, 0.0), (20.0, 1e-3), (1.0, 1.7e308)])
def test_first_normals_match_numpy_normal(loc, scale):
    """``first_normals`` returns ``Generator(Philox(key=k)).normal(loc,
    scale)`` for 100,000 random keys, which take every branch of numpy's
    ziggurat: the fast path, the wedge of layers 2..255, layer 1 (always
    past the fast path) and the tail beyond layer 0."""
    keys = np.random.default_rng(29).integers(0, 2**64, size=(100_000, 2), dtype=np.uint64)
    words = first_words(keys)
    _, ki = _ziggurat_tables()
    layer = (words & np.uint64(0xFF)).astype(np.intp)
    slow = (words >> np.uint64(9) & np.uint64(2**52 - 1)) >= ki[layer]
    branches = {"fast": ~slow, "wedge": slow & (layer > 1), "layer 1": layer == 1, "tail": slow & (layer == 0)}
    assert {name: bool(hit.any()) for name, hit in branches.items()} == dict.fromkeys(branches, True)
    assert 0.01 < slow.mean() < 0.02

    got = first_normals(keys, words, loc, scale)
    assert got.dtype == np.float64 and got.shape == (len(keys),)
    want = [g.normal(loc, scale) for g in streams.restarted(keys, np.random.Generator(np.random.Philox(0)))]
    assert support.float_bits(got) == support.float_bits(want)
    # a restarted stream is the one Philox(key=k) starts, here on one key of each branch
    for hit in branches.values():
        k = hit.nonzero()[0][0]
        fresh = np.random.Generator(np.random.Philox(key=keys[k])).normal(loc, scale)
        assert got[k].hex() == float(fresh).hex()
    assert first_normals(keys[:0], words[:0], loc, scale).shape == (0,)


_MT_MASK = 0xFFFFFFFF


def _untemper(y):
    """The MT19937 state word that its tempering turns into the output y."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(5):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x & _MT_MASK
    x = y
    for _ in range(3):
        x = y ^ (x >> 11)
    return x & _MT_MASK


def test_ziggurat_tables_pinned():
    """The ``wi`` and ``ki`` that ``_ziggurat_tables`` derives are numpy's
    tables: for every layer, feeding ``standard_normal`` a chosen 64-bit
    word through a hand-set MT19937, independently of the derivation's
    SFC64, shows ``rabs * wi`` returned after one word just below ``ki``,
    and a second word read at ``ki``."""
    mt = np.random.MT19937(0)
    gen = np.random.Generator(mt)
    filler = mt.state["state"]["key"].copy()     # later words, so that slow paths end

    def normal_of(layer, rabs, sign=0):
        """The standard normal of one word and how many words it read."""
        word = rabs << 9 | sign << 8 | layer
        key = filler.copy()
        key[:2] = [_untemper(word >> 32), _untemper(word & _MT_MASK)]   # MT19937 hands out the high half first
        mt.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": 0}}
        z = gen.standard_normal()
        return z, mt.state["state"]["pos"] // 2

    wis, kis = _ziggurat_tables()
    assert wis.dtype == np.float64 and kis.dtype == np.uint64 and len(wis) == len(kis) == 256
    assert normal_of(1, 0)[1] > 1 and kis[1] == 0
    for layer in range(256):
        ki = int(kis[layer])
        if not ki:
            continue
        assert normal_of(layer, 1) == (wis[layer], 1)
        assert normal_of(layer, ki - 1) == ((ki - 1) * wis[layer], 1)
        assert normal_of(layer, ki - 1, sign=1) == (-(ki - 1) * wis[layer], 1)
        assert normal_of(layer, ki)[1] > 1


_LAZY_TABLES = """
import json, sys
import numpy as np
loaded = "numpy.random" in sys.modules
import airfair
from airfair.streams import _ziggurat_tables, first_normals, first_words
facts = {"random_loaded_by_import": "numpy.random" in sys.modules and not loaded,
         "built_on_import": _ziggurat_tables.cache_info().currsize}
keys = np.arange(40, dtype=np.uint64).reshape(20, 2)
for _ in range(2):
    first_normals(keys, first_words(keys), 0.0, 1.0)
facts["builds"] = _ziggurat_tables.cache_info().misses
print(json.dumps(facts))
"""


def test_ziggurat_tables_built_once_on_first_use():
    """In a fresh interpreter, ``import airfair`` builds no ziggurat table
    and loads ``numpy.random`` only if ``import numpy`` already has (numpy
    1.x imports it eagerly); two ``first_normals`` calls build the tables
    once."""
    proc = subprocess.run([sys.executable, "-c", _LAZY_TABLES], capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == {"random_loaded_by_import": False, "built_on_import": 0, "builds": 1}


def _assert_draws_match(scenario, rx=True):
    """``_round_draws(scenario, rx=rx)`` against the per-draw reference,
    draw by draw; without rx, every round's ``rx_ok`` is None."""
    got = _round_draws(scenario, rx=rx)
    want = support.reference_round_draws(scenario)
    assert len(got) == len(want) > 0
    for r, (d, (t0, t1, members, est, loss, rx_ok)) in enumerate(zip(got, want)):
        assert (d.t0, d.t1, d.members) == (t0, t1, members)
        assert (d.go is not None) == (r == 0 or scenario.go in members)
        n, (i, j) = len(members), d.pairs
        if d.go is None:        # every pair, in np.triu_indices order
            assert all(np.array_equal(a, b) for a, b in zip(d.pairs, np.triu_indices(n, 1)))
        else:                   # exactly the n - 1 pairs that hold the GO
            assert len(i) == n - 1
            assert set(zip(i.tolist(), j.tolist())) == {(min(k, d.go), max(k, d.go)) for k in range(n) if k != d.go}
        assert support.float_bits(d.pcd) == support.float_bits(est[i, j])
        off = ~np.eye(n, dtype=bool)
        for g in range(n):
            if d.go in (None, g):
                assert float(d.horizon(g)).hex() == float(est[g, off[g]].min()).hex()
            else:
                with pytest.raises(ValueError, match="drew only the PCDs of its GO"):
                    d.horizon(g)
        assert (d.loss is None) == (loss is None)
        if loss is not None:
            assert support.float_bits(d.loss) == support.float_bits(loss)
        assert np.array_equal(d.rx_ok, rx_ok) if rx else d.rx_ok is None
    return got


def _quiet4(**noise):
    return {**QUIET_DYNAMIC4, **noise, "seed": 3}


# Noise models at their edges, checked on the draws alone, each with what
# its drawn estimates and its count of slow-path keys show.
DRAW_CASES = {
    "complete20": (_complete20_doc(), lambda est, slow: slow > 0),
    "pcd-only": (_quiet4(pcd_error=PCD_ERROR), lambda est, slow: True),
    "loss-only": (_quiet4(loss=LOSS), lambda est, slow: True),
    "pcd-bias": (_quiet4(pcd_error={"stddev": 0.0, "mean": 0.75}), lambda est, slow: True),
    "pcd-floor": (_quiet4(pcd_error={"stddev": 1.0, "mean": -8.0}), lambda est, slow: (est == PCD_FLOOR).any()),
    # 1.7e308 * z overflows once |z| > 1.06, so some estimates are +inf and the
    # -inf ones floor
    "pcd-huge": (_quiet4(pcd_error={"stddev": 1.7e308}),
                 lambda est, slow: np.isinf(est).any() and (est == PCD_FLOOR).any()),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS) + sorted(DRAW_CASES))
def test_round_draws_match_per_draw_streams(name, monkeypatch):
    doc, shows = DRAW_CASES.get(name, (SCENARIOS.get(name), lambda est, slow: True))
    scenario = scenario_from_dict(doc)
    slow = []
    restart = streams.restarted
    monkeypatch.setattr(streams, "restarted", lambda keys, gen: slow.extend(keys) or restart(keys, gen))
    draws = _assert_draws_match(scenario)
    # the noise shows: drawn estimates differ from the truth, and packets are lost
    clean = _round_draws(replace(scenario, loss=None, pcd_error=None))
    assert [c.go for c in clean] == [d.go for d in draws]
    moved = [not np.array_equal(d.pcd, c.pcd) for d, c in zip(draws, clean)]
    assert all(moved) if scenario.pcd_error is not None else not any(moved)
    lost = any(not d.rx_ok[~np.eye(len(d.members), dtype=bool)].all() for d in draws)
    assert lost == (scenario.loss is not None)
    est = np.concatenate([d.pcd for d in draws])
    assert shows(est, len(slow))


@pytest.mark.parametrize("name", sorted(SCENARIOS) + sorted(SHARED_ROUNDS) + sorted(DRAW_CASES))
def test_round_draws_are_read_only(name):
    """Every policy and slot size that runs on a round's draws shares their
    arrays, so none of them can be written: pcd, loss, rx_ok, both pair
    index arrays, the members' positions and their three columns."""
    doc = {**SCENARIOS, **SHARED_ROUNDS}.get(name) or DRAW_CASES[name][0]
    for d in _round_draws(scenario_from_dict(doc)):
        values = [getattr(d, f.name) for f in fields(d)]
        arrays = [a for v in values for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]
        assert len(arrays) == 8 + (d.loss is not None)
        assert not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("noise, batches", [
    ({}, 0),
    ({"pcd_error": PCD_ERROR}, 1),
    ({"loss": LOSS}, 1),
    ({"loss": LOSS, "pcd_error": PCD_ERROR}, 1),
])
def test_key_batches_per_scenario(monkeypatch, noise, batches):
    """One batch of keys for all purposes in use (pcd, loss, rx), and one
    Philox pass over it; neither without noise."""
    sizes = []
    derive = simulate.word_keys

    def counted(seed, batch):
        sizes.append(len(batch.words))
        return derive(seed, batch)

    monkeypatch.setattr(simulate, "word_keys", counted)
    passes = []
    philox = simulate.first_words
    monkeypatch.setattr(simulate, "first_words", lambda keys: passes.append(len(keys)) or philox(keys))
    _assert_draws_match(scenario_from_dict({**QUIET_DYNAMIC4, **noise, "seed": 3}))
    assert len(sizes) == batches
    assert passes == sizes          # one Philox pass over every key of the batch


def _crowd1_doc():
    """``_crowd48_doc``'s nodes all present for 0-30 s: one 48-member round
    with an elected GO."""
    doc = _crowd48_doc()
    return {**doc, "nodes": [{**n, "join_s": 0.0, "leave_s": 30.0} for n in doc["nodes"]]}


@pytest.mark.parametrize("doc, keys, kernels", [
    (SCENARIOS["table1"], 41, ["_packed_word_keys", "_packed_first_words"]),
    (_crowd1_doc(), 2351, ["_array_word_keys", "_array_first_words"]),
], ids=["table1", "crowd1"])
def test_batch_size_picks_the_kernels(monkeypatch, doc, keys, kernels):
    """A noisy table1 draws 5 PCD, 6 loss and 30 rx keys, few enough for
    both packed kernels; a 48-member crowd draws 47 + 48 + 2,256, which
    run on arrays."""
    ran = []
    for name in ("_packed_word_keys", "_array_word_keys", "_packed_first_words", "_array_first_words"):
        kernel = getattr(streams, name)
        monkeypatch.setattr(streams, name, lambda *args, name=name, kernel=kernel: ran.append(name) or kernel(*args))
    sizes = []
    philox = simulate.first_words
    monkeypatch.setattr(simulate, "first_words", lambda k: sizes.append(len(k)) or philox(k))
    _assert_draws_match(scenario_from_dict(doc))
    assert sizes == [keys]
    assert ran == kernels


#: every experiment fold on a document, two repetitions each
FOLDS = {
    "sweep": lambda scenario: slot_size_sweep(scenario, [0.005, 0.02], repetitions=2),
    "compare": lambda scenario: list(compare_means([scenario], 2)),
    "converge": lambda scenario: repeated_contacts(scenario, 2),
}


@pytest.mark.parametrize("fold", sorted(FOLDS))
@pytest.mark.parametrize("doc, keys, kernels", [
    (SCENARIOS["table1"], 11, ["_packed_word_keys", "_packed_first_words"]),
    (_crowd1_doc(), 95, ["_array_word_keys", "_packed_first_words"]),
], ids=["table1", "crowd1"])
def test_experiment_folds_draw_no_rx(monkeypatch, doc, keys, kernels, fold):
    """An experiment's repetitions draw in one batch each, without the rx
    keys, which only ``received_mb`` reads: noisy table1's 5 PCD and 6 loss
    keys, on both packed kernels, and a 48-member crowd's 47 + 48, which
    hash on arrays and run Philox packed (2,351 keys with rx).  Every
    draw left is the per-draw reference's, bit for bit."""
    scenario = scenario_from_dict(doc)
    _assert_draws_match(scenario, rx=False)
    ran, batches = [], []
    for name in ("_packed_word_keys", "_array_word_keys", "_packed_first_words", "_array_first_words"):
        kernel = getattr(streams, name)
        monkeypatch.setattr(streams, name, lambda *args, name=name, kernel=kernel: ran.append(name) or kernel(*args))
    derive = simulate.word_keys

    def counted(seed, batch):
        batches.append(batch.words[:, 0].tolist())
        return derive(seed, batch)

    monkeypatch.setattr(simulate, "word_keys", counted)
    FOLDS[fold](scenario)
    assert [len(b) for b in batches] == [keys, keys]         # converge's clean ideal run draws nothing
    assert not any(simulate._RX in b for b in batches)
    assert ran == kernels * 2


@pytest.mark.parametrize("fold", sorted(FOLDS))
@pytest.mark.parametrize("name", ["table1", "dynamic4"])
def test_experiment_reports_have_no_received_mb(monkeypatch, name, fold):
    """Every report an experiment's repetitions build has ``received_mb``
    None: its draws have no rx outcomes, and the run folds what each node
    heard only from drawn ones.  converge's clean ideal run is
    :func:`run_scenario`'s, which draws them and reports what was heard."""
    scenario = scenario_from_dict(SCENARIOS[name])
    reports = []
    run = simulate._run
    monkeypatch.setattr(simulate, "_run", lambda *args: reports.append(run(*args)) or reports[-1])
    FOLDS[fold](scenario)
    monkeypatch.undo()
    if fold == "converge":
        *reports, ideal = reports
        heard = run_scenario(replace(scenario, loss=None, pcd_error=None)).received_mb
        assert heard is not None and ideal.received_mb == heard
    assert len(reports) == {"sweep": 4, "compare": 6, "converge": 2}[fold]
    assert all(r.received_mb is None for r in reports)


@pytest.mark.parametrize("doc, per_round", [
    (_crowd1_doc(), [47]),                          # not 48 * 47 / 2 = 1,128
    (SCENARIOS["table1"], [5]),                     # GO n4 pinned
    (SHARED_ROUNDS["pinned-go"], [1, 2, 1, 2, 1]),  # GO n2 pinned in rounds 0-3 only
    (SCENARIOS["dynamic4"], [1, 3, 1, 3, 1]),       # the first round's pair, then every pair
], ids=["crowd1", "table1", "pinned-go", "dynamic4"])
def test_pcd_keys_per_round(monkeypatch, doc, per_round):
    """A round whose GO is fixed before any policy runs, the first round or
    one with its pinned GO present, draws the n - 1 PCD pairs of the GO's
    row; every other round draws all n(n - 1)/2.  A pinned GO present is
    fixed by the draws alone, which the run never re-derives.  Each policy's
    run then has the GO the draws fixed, which is the GO it elects itself
    when the draws leave an unpinned round open, and it reports the same
    bits either way."""
    rounds = []
    derive = simulate.word_keys

    def counted(seed, batch):
        words = batch.words
        rounds.extend(words[words[:, 0] == simulate._PCD, 1].tolist())
        return derive(seed, batch)

    monkeypatch.setattr(simulate, "word_keys", counted)
    scenario = scenario_from_dict(doc)
    draws = _assert_draws_match(scenario)
    assert np.bincount(rounds, minlength=len(draws)).tolist() == per_round
    pinned = [scenario.go in d.members for d in draws]
    assert [d.go for d, p in zip(draws, pinned) if p] == [d.members.index(scenario.go)
                                                          for d, p in zip(draws, pinned) if p]
    open_draws = [d if p else replace(d, go=None) for d, p in zip(draws, pinned)]
    for policy in POLICIES:
        fixed, elected = (simulate._run(scenario, policy, ds) for ds in (draws, open_draws))
        for d, rnd, own in zip(draws, fixed.rounds, elected.rounds):
            if d.go is not None:
                assert rnd.go_id == own.go_id == d.members[d.go]
        assert support.exact_bits(fixed) == support.exact_bits(elected)


def _go_horizons(duration: float, contacts: int) -> list[float]:
    """The GO's horizon in each of ``contacts`` draws of table1 with PCD
    error σ = 1 s and no loss, scaled to ``duration`` s; contact k at
    ``derive_seed(seed, "horizon", k)``."""
    doc = {**PRESETS["table1"], "pcd_error": PCD_ERROR}
    scenario = scale_contact_durations(scenario_from_dict(doc), duration)
    out = []
    for k in range(contacts):
        d, = _round_draws(replace(scenario, seed=derive_seed(scenario.seed, "horizon", k)))
        assert d.go == d.members.index("n4") and len(d.pcd) == 5     # n4 pinned: its 5 pairs drawn
        out.append(d.horizon(d.go))
    return out


def test_noisy_horizon_follows_the_law_of_the_minimum():
    """Every true PCD of table1 scaled to T s is T, so the GO's horizon is
    the smallest of 5 estimates max(PCD_FLOOR, T + Z), Z standard normal:
    P(horizon <= h) = 1 - (1 - Φ(h - T))^5 above the floor.  At T = 20 s
    the Kolmogorov-Smirnov distance of 2,000 horizons to that law stays
    below the α = 1e-3 critical value 1.949 / √N; at T = 2 s the share
    pinned at the floor lies within 4 binomial standard errors of
    1 - (1 - Φ(PCD_FLOOR - T))^5 ≈ 0.1356.  Φ comes from math.erf, so
    this checks first_normals, the floor and the minimum without numpy's
    generator."""
    n = 2000
    cdf = [1.0 - (1.0 - support.normal_cdf(h - 20.0)) ** 5 for h in sorted(_go_horizons(20.0, n))]
    distance = max(max((i + 1) / n - f, f - i / n) for i, f in enumerate(cdf))
    assert distance < 1.949 / math.sqrt(n)
    floored = sum(h == PCD_FLOOR for h in _go_horizons(2.0, n)) / n
    p = 1.0 - (1.0 - support.normal_cdf(PCD_FLOOR - 2.0)) ** 5
    assert abs(floored - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)


#: E[f(H)], the limit of each policy's mean realized Nash product over
#: contacts of table1 with PCD error σ = 1 s, at each contact duration, to
#: 7 digits
EXACT_LIMITS = {
    10.0: {"gsa": 0.2963956, "eql": 0.2531245, "wtd": 0.2108386},
    20.0: {"gsa": 0.6047624, "eql": 0.5387020, "wtd": 0.4500572},
    40.0: {"gsa": 0.9649385, "eql": 0.9649385, "wtd": 0.9282748},
}


@pytest.mark.parametrize("duration", sorted(EXACT_LIMITS))
def test_noisy_contacts_average_to_the_exact_limit(duration):
    """table1 with PCD error σ = 1 s has one round and a pinned GO, so a
    policy's realized Nash product is f(H) of the GO's horizon H, and the
    mean over contacts tends to ``support.expected_nash``'s E[f(H)].  Grid
    steps of 10 and 5 ms give that limit within 1e-6 of each other (a 20 ms
    step, commensurate with the 0.14 s cycle, is off by 1.2e-4 at 10 s),
    and the means of 200 contacts, gsa's from ``repeated_contacts`` and
    every policy's from ``compare_means``, lie within 4 standard errors
    sd(f(H)) / √200 of it."""
    doc = {**PRESETS["table1"], "pcd_error": PCD_ERROR}
    scenario = scale_contact_durations(scenario_from_dict(doc), duration)
    coarse, fine = support.expected_nash(scenario, steps=(0.01, 0.005))
    seed = derive_seed(2017, "limit", duration)
    running, _ = repeated_contacts(replace(scenario, seed=seed), 200)
    means, = compare_means([replace(scenario, seed=seed)], 200)
    for policy, (limit, sd) in fine.items():
        assert abs(coarse[policy][0] - limit) <= 1e-6
        assert abs(limit - EXACT_LIMITS[duration][policy]) <= 1e-7
        assert abs(means[policy] - limit) <= 4.0 * sd / math.sqrt(200)
    limit, sd = fine["gsa"]
    assert abs(running[-1] - limit) <= 4.0 * sd / math.sqrt(200)


@pytest.mark.parametrize("name", sorted(SCENARIOS) + sorted(SHARED_ROUNDS))
def test_compare_policies_matches_separate_runs(name):
    """Policies that share one set of draws report exactly what separate
    runs report, in either order: no policy leaves state behind for the next."""
    scenario = scenario_from_dict({**SCENARIOS, **SHARED_ROUNDS}[name])
    alone = {p: support.exact_bits(run_scenario(scenario, p)) for p in POLICIES}
    shared = compare_policies(scenario)
    assert list(shared) == list(POLICIES)
    assert {p: support.exact_bits(report) for p, report in shared.items()} == alone
    for order in (POLICIES, POLICIES[::-1]):
        draws = _round_draws(scenario)
        assert {p: support.exact_bits(simulate._run(scenario, p, draws)) for p in order} == alone


def test_slot_size_sweep_reuses_draws(monkeypatch):
    """Each repetition's draws are derived once for all slot sizes, and the
    sweep equals separate runs on the paired seeds."""
    scenario = scenario_from_dict(SCENARIOS["table1"])
    sizes, reps = [0.005, 0.02, 0.05], 4
    separate = [
        [run_scenario(replace(scenario, t_slot_s=t, seed=derive_seed(scenario.seed, "sweep", r))).wpf_aggregate_vs_ideal
         for r in range(reps)]
        for t in sizes
    ]
    calls = []
    draw = simulate._round_draws
    monkeypatch.setattr(simulate, "_round_draws", lambda s, **kw: calls.append(s.seed) or draw(s, **kw))
    rows = slot_size_sweep(scenario, sizes, repetitions=reps)
    assert len(calls) == reps
    assert [(t, m.hex(), s.hex()) for t, m, s in rows] == [
        (t, float(np.mean(v)).hex(), float(np.std(v)).hex()) for t, v in zip(sizes, separate)
    ]


def test_slot_size_sweep_rejects_a_size_as_the_scenario_does():
    """The sweep copies each repetition's scenario to each size without
    running the scenario's checks again, so it checks the size itself: a
    size the scenario rejects raises the scenario's error."""
    scenario = scenario_from_dict(SCENARIOS["table1"])
    for size in (0.0, -0.02, math.nan, math.inf):
        with pytest.raises(ValueError) as want:
            replace(scenario, t_slot_s=size)
        with pytest.raises(ValueError) as got:
            slot_size_sweep(scenario, [0.02, size], repetitions=2)
        assert str(got.value) == str(want.value) == "t_slot_s must be > 0 and finite"


def test_slot_size_sweep_matches_separate_runs_over_rounds(monkeypatch):
    """On a multi-round document, where later rounds reach their solves
    from loads that differ by slot size, every run of the sweep reports
    exactly what a separate run on the paired seed reports, all but
    ``received_mb``: the sweep reads no report's, and its draws have no rx
    outcomes."""
    scenario = scenario_from_dict(SCENARIOS["dynamic4"])
    sizes, reps = [0.02, 0.05, 0.1], 4
    skip = {"received_mb"}
    separate = [
        support.exact_bits(run_scenario(replace(scenario, t_slot_s=t, seed=derive_seed(scenario.seed, "sweep", r))),
                           skip)
        for t in sizes for r in range(reps)
    ]
    reports = []
    run = simulate._run
    monkeypatch.setattr(simulate, "_run", lambda *args: reports.append(run(*args)) or reports[-1])
    slot_size_sweep(scenario, sizes, repetitions=reps)
    assert all(r.received_mb is None for r in reports)
    assert [support.exact_bits(r, skip) for r in reports] == separate
    assert len({id(r.rounds[0].problem) for r in reports}) == reps     # round 0 solved once per repetition


def _kkt_bits(report):
    """A certificate field by field, floats as ``float.hex`` and arrays as
    their bytes."""
    return [(f.name, v.tobytes() if isinstance(v, np.ndarray) else v.hex() if isinstance(v, float) else v)
            for f in fields(report) for v in [getattr(report, f.name)]]


def test_compare_policies_solves_each_round_once(monkeypatch):
    """On one-round table1 the three policies share the round's two
    problems and its GNBS reference; the ideal problem is built and the
    estimated one derived from it.  No certificate is computed until gsa's
    ``kkt`` is read, then one per gsa solve, which records that share the
    solve share, and which is ``gnbs_allocate``'s to the bit; eql's and
    wtd's records have none.  Rounds that the policies reach with the same
    loads are shared after the first traffic round too, and so is an open
    round's GO election."""
    work = support.record_round_work(monkeypatch)
    reports = compare_policies(scenario_from_dict(SCENARIOS["table1"]))
    first = reports["gsa"].rounds[0]
    assert [len(r.rounds) for r in reports.values()] == [1, 1, 1]
    assert all(r.rounds[0].problem is first.problem and r.rounds[0].ideal_problem is first.ideal_problem
               for r in reports.values())
    assert work["built"] == [first.ideal_problem] and work["derived"] == [first.problem]
    assert sorted(map(id, work["solved"])) == sorted(map(id, (first.problem, first.ideal_problem)))
    assert work["certified"] == []
    assert first.kkt is not None and work["certified"] == [first.problem]
    assert reports["eql"].rounds[0].kkt is reports["wtd"].rounds[0].kkt is None and len(work["certified"]) == 1

    work["built"].clear()
    work["derived"].clear()
    scenario = scenario_from_dict(SHARED_ROUNDS["drained"])
    reports = compare_policies(scenario)
    assert len(work["built"]) == len(work["derived"]) == len(reports["gsa"].rounds) == 5

    draws, elect, elections = _round_draws(scenario), simulate.elect_go, []
    monkeypatch.setattr(simulate, "elect_go", lambda *args: elections.append(args) or elect(*args))
    runs = {policy: simulate._run(scenario, policy, draws) for policy in POLICIES}
    assert len(elections) == sum(d.go is None for d in draws) > 0

    work["certified"].clear()
    again = simulate._run(scenario, "gsa", draws)       # every round's solve shared with the first gsa run
    assert work["certified"] == []
    certified = [(a.kkt, b.kkt) for a, b in zip(runs["gsa"].rounds, again.rounds)]
    assert all(a is b for a, b in certified) and len(work["certified"]) == len(draws)
    assert all(r.kkt is None for policy in ("eql", "wtd") for r in runs[policy].rounds)
    for rnd, (kkt, _) in zip(again.rounds, certified):
        assert _kkt_bits(kkt) == _kkt_bits(bargaining.gnbs_allocate(rnd.problem)[1])


def test_levels_are_built_only_for_gnbs_and_sorted_once(monkeypatch):
    """A problem that only eql or wtd solves builds no levels: under an
    eql or wtd run, every estimated problem.  Under ``compare_policies``,
    each problem's GNBS curves, the sort of its levels, are sorted at most
    once, however many rounds and policies read them."""
    work = support.record_round_work(monkeypatch)
    for name in ("table1", "dynamic4"):
        scenario = scenario_from_dict({**SCENARIOS[name], "seed": 3})
        for policy in ("eql", "wtd"):
            derived = len(work["derived"])
            report = simulate._run(scenario, policy, _round_draws(scenario))
            estimated = [r.problem for r in report.rounds if r.problem.active]
            assert estimated and {id(p) for p in estimated} <= {id(p) for p in work["derived"][derived:]}
            assert not {id(p._active) for p in estimated} & {id(act) for act in work["levels"]}
            assert all("_levels" not in vars(p) and "_curves" not in vars(p) for p in estimated)
    sorted_once = 0
    for doc in (SCENARIOS["table1"], SCENARIOS["dynamic4"], SHARED_ROUNDS["drained"]):
        for key in ("built", "derived", "sorted"):
            work[key].clear()
        compare_policies(scenario_from_dict(doc))
        for problem in work["built"] + work["derived"]:
            levels = vars(problem).get("_levels")
            sorts = 0 if levels is None else sum(r is levels[0] for r in work["sorted"])
            assert sorts <= 1
            sorted_once += sorts
    assert sorted_once >= 5


def test_slot_size_sweep_solves_shared_rounds_once_per_repetition(monkeypatch):
    """k slot sizes and r repetitions of one-round table1 derive and solve
    the round's estimated problem r times, not k * r times, and certify it
    never, since no experiment reads a certificate; its ideal problem,
    which no seed changes, is built and solved once for all of them."""
    work = support.record_round_work(monkeypatch)
    sizes, reps = [0.005, 0.02, 0.05], 2
    slot_size_sweep(scenario_from_dict(SCENARIOS["table1"]), sizes, repetitions=reps)
    assert len(work["built"]) == 1 and len(work["derived"]) == reps
    assert len(work["solved"]) == 1 + reps       # the reference once, gsa's allocation per repetition
    assert work["certified"] == []


# ---------------------------------------------------------------------------
# the plan an experiment's scenario holds, which its repetitions share


def _outcome(run):
    """``run()`` with every float spelled exactly, or the error it raises."""
    try:
        return support.exact_bits(run())
    except (ScheduleError, NoGoCandidateError) as e:
        return f"{type(e).__name__}: {e}"


def _every_seed_and_experiment(base):
    """Reports of every policy at four seeds of ``base``, without rx
    outcomes (one seed's draws shared by separate runs) and then with them
    (compare_policies), then the three experiments on ``base`` itself
    (compare_means also on a reseeded copy), so that each after the first
    draws on the plan ``base`` holds."""
    runs = [replace(base, seed=seed) for seed in range(4)]
    out = []
    for run in runs:
        draws = _round_draws(run, rx=False)
        out += [_outcome(lambda: simulate._run(run, p, draws)) for p in POLICIES]
    out += [_outcome(lambda: compare_policies(run)) for run in runs]
    out.append(_outcome(lambda: list(compare_means([base, replace(base, seed=9)], 3))))
    out.append(_outcome(lambda: slot_size_sweep(base, [0.005, 0.02, 0.1], 3)))
    out.append(_outcome(lambda: repeated_contacts(base, 4)))
    return out


@pytest.mark.parametrize("name, duration", [
    ("table1-plain", 10.0), ("dynamic4-plain", 40.0), ("table1", 20.0), ("dynamic4", 20.0), ("pinned-go", 80.0),
])
def test_a_warm_plan_gives_what_a_cold_one_gives(name, duration, monkeypatch):
    """Every report and experiment row is the same to the bit whether each
    experiment draws on the plan its scenario holds from the experiments
    before it (warm) or on one made afresh for it (cold): on both presets
    as they are and with noise, at several seeds, with and without rx
    outcomes, for every policy and the three experiments."""
    doc = {"table1-plain": PRESETS["table1"], "dynamic4-plain": PRESETS["dynamic4"],
           **SCENARIOS, **SHARED_ROUNDS}[name]
    base = scale_contact_durations(scenario_from_dict(doc), duration)
    warm = [_every_seed_and_experiment(base), _every_seed_and_experiment(base)]
    held = base._experiment_plan
    made = []

    def cold(scenario):
        made.append(simulate._plan(scenario, rx=False))
        return made[-1]

    monkeypatch.setattr(Scenario, "_experiment_plan", property(cold))
    assert _every_seed_and_experiment(base) == warm[0] == warm[1]
    assert made and all(plan is not held for plan in made)
    assert sum(isinstance(x, str) for x in warm[0]) < len(warm[0]) / 2     # most of them complete


def test_a_negative_zero_join_keeps_its_bits(monkeypatch):
    """A timeline is planned for its nodes, not for their values: a run
    whose nodes join at -0.0 s, after one on equal nodes that join at 0.0 s,
    starts its round at -0.0 s, as it does alone, and so does every run of
    an experiment on them after one on the 0.0 s nodes."""
    doc = PRESETS["table1"]
    negative = {**doc, "nodes": [{**n, "join_s": -0.0} for n in doc["nodes"]]}
    alone = support.exact_bits(run_scenario(scenario_from_dict(negative)))
    run_scenario(scenario_from_dict(doc))
    after = run_scenario(scenario_from_dict(negative))
    assert after.rounds[0].t_start.hex() == "-0x0.0p+0"
    assert support.exact_bits(after) == alone

    reports, run = [], simulate._run
    slot_size_sweep(scenario_from_dict(doc), [0.02], 2)
    monkeypatch.setattr(simulate, "_run", lambda *args: reports.append(run(*args)) or reports[-1])
    slot_size_sweep(scenario_from_dict(negative), [0.02], 2)
    assert [r.rounds[0].t_start.hex() for r in reports] == ["-0x0.0p+0"] * 2


def test_only_an_experiment_leaves_a_plan_on_its_scenario(monkeypatch, tmp_path, capsys):
    """``compare_policies``, ``run_scenario`` and the one-round commands
    plan afresh and leave no plan on their scenario; an experiment leaves
    its rx-free plan on the scenario it is given, and a ``replace`` copy of
    that scenario holds none.  No call writes the simulator's module
    state."""
    state = {name: id(value) for name, value in vars(simulate).items()}
    scenario = scenario_from_dict(SCENARIOS["table1"])
    compare_policies(scenario)
    run_scenario(scenario, "eql")
    assert "_experiment_plan" not in vars(scenario)

    loaded, load = [], cli._load
    monkeypatch.setattr(cli, "_load", lambda args: loaded.append(load(args)) or loaded[-1])
    path = tmp_path / "table1.json"
    path.write_text(json.dumps(SCENARIOS["table1"]))
    for argv in (["allocate"], ["schedule"], ["simulate", "--out", str(tmp_path / "out")]):
        assert cli.main([*argv, "--scenario", str(path)]) == 0
    capsys.readouterr()
    assert len(loaded) == 3 and not any("_experiment_plan" in vars(s) for s in loaded)

    slot_size_sweep(scenario, [0.02], 2)
    assert vars(scenario)["_experiment_plan"][0][0][0] == 0.0      # round 0 starts at 0 s
    assert "_experiment_plan" not in vars(replace(scenario, seed=1))
    assert {name: id(value) for name, value in vars(simulate).items()} == state


def test_a_dropped_experiment_scenario_frees_its_plan():
    """An experiment's scenario holds its plan exactly as long as it lives:
    after experiments on four distinct 48-node timelines, of which only the
    last is still referenced, only the last one's plan is alive."""
    columns = []
    for k in range(4):
        doc = _crowd48_doc()
        doc["nodes"] = [{**n, "data_mb": n["data_mb"] + k} for n in doc["nodes"]]
        scenario = scenario_from_dict(doc)
        _outcome(lambda: slot_size_sweep(scenario, [0.02], 1))
        rounds = scenario._experiment_plan[0]
        columns.append(weakref.ref(rounds[0][3][0]))     # round 0's positions, which only the plan holds
        del rounds
        if k < 3:
            del scenario
    gc.collect()
    assert [ref() is not None for ref in columns] == [False, False, False, True]
    assert scenario._experiment_plan[0][0][3][0] is columns[-1]()


def test_shared_ideal_allocations_are_read_only():
    """A round's ideal allocations are shared with later runs of the
    timeline, so no report can write into them."""
    reports = compare_policies(scenario_from_dict(SCENARIOS["table1"]))
    for report in reports.values():
        ideal = report.rounds[0].ideal_allocation
        for array in (ideal.broadcast_time, ideal.upload_time):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


def test_a_plan_serves_only_the_same_fields():
    """A scenario that ``replace`` makes from one that holds a plan holds
    none, though it shares the nodes tuple, and plans for its own fields,
    an int rate for a float one too: each variant of noisy table1, made
    from the base after a sweep on the base, sweeps what it sweeps alone,
    and so does the base made from each variant after a sweep on it."""
    base = scenario_from_dict(SCENARIOS["table1"])
    variants = [replace(base, broadcast_mbps=5.5), replace(base, broadcast_mbps=11), replace(base, go="n1"),
                replace(base, go=None), replace(base, go_alpha_factor=3.0), replace(base, go_alpha_factor=2),
                replace(base, loss=None), replace(base, pcd_error=None)]
    # a star elects its hub n1 where a complete graph elects n6
    elected = replace(base, go=None)
    star = replace(elected, connectivity=tuple(("n1", m) for m in ("n2", "n3", "n4", "n5", "n6")))
    pairs = [(base, v) for v in variants] + [(v, base) for v in variants] + [(elected, star), (star, elected)]
    init = [f.name for f in fields(Scenario) if f.init]

    def sweep(scenario):
        return _outcome(lambda: slot_size_sweep(scenario, [0.005, 0.02], 2))

    for first, then in pairs:
        alone = sweep(replace(then, nodes=tuple(replace(n) for n in then.nodes)))     # nodes no plan has seen
        sweep(first)
        made = replace(first, **{name: getattr(then, name) for name in init})
        assert made.nodes is first.nodes and made == then
        assert sweep(made) == alone
