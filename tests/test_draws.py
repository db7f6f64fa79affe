"""Batched random draws against the per-draw reference.

The simulator derives all stream keys of a scenario in one batch, with
SeedSequence's hash run on arrays, makes the uniform draws with a vectorized
Philox4x64-10 and the normal ones from one Philox moved to the start of each
stream.  These tests hold it to the numbers that building one SeedSequence
and Philox per draw gives, and check that sharing the draws across policies
and slot sizes changes no result.
"""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

import support
from airfair import simulate
from airfair.scenario_io import PRESETS, scenario_from_dict
from airfair.simulate import (
    POLICIES,
    _round_draws,
    compare_policies,
    derive_seed,
    run_scenario,
    slot_size_sweep,
)
from airfair.streams import first_uniforms, part_key, stream_keys

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


QUIET_DYNAMIC4 = {k: v for k, v in PRESETS["dynamic4"].items() if k not in ("loss", "pcd_error")}
SCENARIOS = {
    "table1": {**PRESETS["table1"], "loss": LOSS, "pcd_error": PCD_ERROR},
    "dynamic4": {**QUIET_DYNAMIC4, "loss": LOSS, "pcd_error": PCD_ERROR, "seed": 3},
    "crowd48": _crowd48_doc(),
    "restricted": _restricted_doc(),
    "non-ascii": _non_ascii_doc(),
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


def test_stream_keys_match_seed_sequence():
    counts = {_word_count(seed, parts) for seed in SEEDS for parts in ROWS}
    assert set(range(1, 9)) <= counts        # below, at and above the pool of four words
    for seed in SEEDS:
        batch = stream_keys(seed, ROWS)      # rows of every length in one batch
        assert batch.dtype == np.uint64 and batch.shape == (len(ROWS), 2)
        for parts, key in zip(ROWS, batch):
            want = _oracle_key(seed, parts)
            assert np.array_equal(key, want), (seed, parts)
            assert np.array_equal(stream_keys(seed, [parts])[0], want), (seed, parts)
    assert stream_keys(5, []).shape == (0, 2)


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
        got = first_uniforms(keys)
        assert got.dtype == np.float64 and got.shape == (len(keys),)
        assert [u.hex() for u in got.tolist()] == [float(_oracle_uniform(k)).hex() for k in keys]
    assert first_uniforms(np.zeros((0, 2), np.uint64)).shape == (0,)


@pytest.mark.parametrize("lo, hi", [(0.0, 0.1), (0.05, 0.3), (0.25, 0.25), (0.0, 0.0), (0.3, 0.9999999)])
def test_first_uniforms_give_numpy_uniform(lo, hi):
    """``lo + (hi - lo) * u`` is what ``uniform(lo, hi)`` draws, the way the
    simulator makes loss probabilities."""
    keys = np.concatenate([np.array(EDGE_KEYS, np.uint64),
                           np.random.default_rng(23).integers(0, 2**64, size=(500, 2), dtype=np.uint64)])
    got = lo + (hi - lo) * first_uniforms(keys)
    assert [u.hex() for u in got.tolist()] == [float(_oracle_uniform(k, (lo, hi))).hex() for k in keys]


def _assert_draws_match(scenario):
    got = _round_draws(scenario)
    want = support.reference_round_draws(scenario)
    assert len(got) == len(want) > 0
    for d, (t0, t1, members, est, loss, rx_ok) in zip(got, want):
        assert (d.t0, d.t1, d.members) == (t0, t1, members)
        off = ~np.eye(len(members), dtype=bool)
        assert support.float_bits(d.est_pcd[off]) == support.float_bits(est[off])
        assert np.array_equal(d.est_pcd, d.est_pcd.T)
        assert (d.loss is None) == (loss is None)
        if loss is not None:
            assert support.float_bits(d.loss) == support.float_bits(loss)
        assert np.array_equal(d.rx_ok, rx_ok)
    return got


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_round_draws_match_per_draw_streams(name):
    scenario = scenario_from_dict(SCENARIOS[name])
    draws = _assert_draws_match(scenario)
    # the noise shows: estimates differ from the truth, and packets are lost
    clean = _round_draws(replace(scenario, loss=None, pcd_error=None))
    assert all(not np.array_equal(d.est_pcd, c.est_pcd) for d, c in zip(draws, clean))
    assert any(not d.rx_ok[~np.eye(len(d.members), dtype=bool)].all() for d in draws)


@pytest.mark.parametrize("noise, batches", [
    ({}, 0),
    ({"pcd_error": PCD_ERROR}, 1),
    ({"loss": LOSS}, 1),
    ({"loss": LOSS, "pcd_error": PCD_ERROR}, 1),
])
def test_key_batches_per_scenario(monkeypatch, noise, batches):
    """One batch of keys for all purposes in use (pcd, loss, rx), none
    without noise."""
    sizes = []
    derive = simulate.word_keys

    def counted(seed, words, lengths):
        sizes.append(len(words))
        return derive(seed, words, lengths)

    monkeypatch.setattr(simulate, "word_keys", counted)
    _assert_draws_match(scenario_from_dict({**QUIET_DYNAMIC4, **noise, "seed": 3}))
    assert len(sizes) == batches


def _bits(value):
    """A report as nested lists, every float spelled exactly."""
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [(f.name, _bits(getattr(value, f.name))) for f in dataclasses.fields(value)]
    if isinstance(value, np.ndarray):
        return [value.dtype.str, value.shape, _bits(value.tolist())]
    if isinstance(value, dict):
        return [(k, _bits(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    return value


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_compare_policies_matches_separate_runs(name):
    """Policies that share one set of draws report exactly what separate
    runs report: no policy leaves state behind for the next."""
    scenario = scenario_from_dict(SCENARIOS[name])
    alone = {p: _bits(run_scenario(scenario, p)) for p in POLICIES}
    for order in (POLICIES, POLICIES[::-1]):
        shared = compare_policies(scenario, order)
        assert list(shared) == list(order)
        for p, report in shared.items():
            assert report.policy == p
            assert _bits(report) == alone[p]


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
    monkeypatch.setattr(simulate, "_round_draws", lambda s: calls.append(s.seed) or draw(s))
    rows = slot_size_sweep(scenario, sizes, repetitions=reps)
    assert len(calls) == reps
    assert [(t, m.hex(), s.hex()) for t, m, s in rows] == [
        (t, float(np.mean(v)).hex(), float(np.std(v)).hex()) for t, v in zip(sizes, separate)
    ]
