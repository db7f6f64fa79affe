import math
from dataclasses import replace

import numpy as np
import pytest

import support
from airfair import simulate
from airfair.grouping import MODE_GO_COORDINATED, MODE_UNICAST_PAIR, NoGoCandidateError, ScheduleError
from airfair.scenario_io import PRESETS, preset_scenario, scenario_from_dict
from airfair.simulate import (
    LossModel,
    PCD_FLOOR,
    PcdErrorModel,
    Scenario,
    ScenarioNode,
    compare_policies,
    derive_seed,
    effective_upload_rate,
    estimate_pcd,
    repeated_contacts,
    run_scenario,
    scale_contact_durations,
    slot_size_sweep,
)


def two_node_scenario(**kw):
    defaults = dict(
        nodes=(
            ScenarioNode("a", 0.0, 10.0, data_mb=5.0),
            ScenarioNode("b", 0.0, 10.0, data_mb=5.0),
        ),
        broadcast_mbps=11.0,
        t_slot_s=0.02,
    )
    defaults.update(kw)
    return Scenario(**defaults)


# ---------------------------------------------------------------------------
# building blocks


def test_estimate_pcd_unbiased():
    rng = np.random.default_rng(0)
    draws = [estimate_pcd(20.0, PcdErrorModel(stddev=1.0), rng) for _ in range(100_000)]
    assert np.mean(draws) == pytest.approx(20.0, abs=0.02)
    assert np.std(draws) == pytest.approx(1.0, abs=0.02)


def test_estimate_pcd_floor_and_identity():
    rng = np.random.default_rng(0)
    assert estimate_pcd(0.05, PcdErrorModel(stddev=0.0), rng) == PCD_FLOOR
    assert estimate_pcd(7.5, None, rng) == 7.5


def test_effective_upload_rate():
    assert effective_upload_rate(11.0, 0.1) == pytest.approx(9.9)
    assert effective_upload_rate(11.0, 0.0) == 11.0
    with pytest.raises(ValueError):
        effective_upload_rate(11.0, 1.0)


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(33, "contact", 0) == derive_seed(33, "contact", 0)
    assert derive_seed(33, "contact", 0) != derive_seed(33, "contact", 1)
    assert derive_seed(33, "contact", 0) != derive_seed(34, "contact", 0)


def test_scenario_validation():
    with pytest.raises(ValueError, match="duplicate"):
        two_node_scenario(nodes=(ScenarioNode("a", 0, 1, data_mb=1), ScenarioNode("a", 0, 1, data_mb=1)))
    with pytest.raises(ValueError, match="exactly one"):
        ScenarioNode("a", 0, 1, data_mb=1.0, data_mb_per_peer=1.0)
    with pytest.raises(ValueError, match="exactly one"):
        ScenarioNode("a", 0, 1)
    with pytest.raises(ValueError, match="pinned GO"):
        two_node_scenario(go="zz")
    with pytest.raises(ValueError, match="unknown nodes"):
        two_node_scenario(connectivity=(("a", "zz"),))


# ---------------------------------------------------------------------------
# single-round behavior


def test_pair_round_is_unicast_without_upload_cost():
    rep = run_scenario(two_node_scenario())
    assert len(rep.rounds) == 1
    r = rep.rounds[0]
    assert r.mode == MODE_UNICAST_PAIR
    np.testing.assert_array_equal(r.problem.betas, [0.0, 0.0])
    assert all(e.kind == "broadcast" for e in r.schedule.entries)


def test_go_alpha_factor_applied():
    scn = preset_scenario("dynamic4")
    r = run_scenario(scn).rounds[1]
    gi = r.members.index(r.go_id)
    for k in range(3):
        if k != gi:
            assert r.problem.alphas[gi] == pytest.approx(2.0 * r.problem.alphas[k])


def test_idle_when_nothing_queued():
    rep = run_scenario(two_node_scenario(nodes=(
        ScenarioNode("a", 0.0, 10.0, data_mb=0.0),
        ScenarioNode("b", 0.0, 10.0, data_mb=0.0),
    )))
    assert rep.rounds[0].idle
    assert math.isnan(rep.nash_product_realized)


def test_no_go_candidate_propagates():
    # a path of four nodes: nobody is adjacent to all three others
    scn = Scenario(
        nodes=(
            ScenarioNode("a", 0.0, 10.0, data_mb=5.0),
            ScenarioNode("b", 0.0, 10.0, data_mb=5.0),
            ScenarioNode("c", 0.0, 10.0, data_mb=5.0),
            ScenarioNode("d", 0.0, 10.0, data_mb=5.0),
        ),
        broadcast_mbps=11.0,
        t_slot_s=0.02,
        connectivity=(("a", "b"), ("b", "c"), ("c", "d")),
    )
    with pytest.raises(NoGoCandidateError):
        run_scenario(scn)


def test_star_elects_the_hub_over_a_heavier_leaf():
    # only the hub reaches every other member, so it relays although a leaf
    # holds the most data; the horizon is the hub's smallest PCD
    leaves = [ScenarioNode(f"leaf{k}", 0.0, 20.0 - k, data_mb=5.0 + 10.0 * k) for k in range(4)]
    scn = Scenario(
        nodes=(ScenarioNode("hub", 0.0, 30.0, data_mb=1.0), *leaves),
        broadcast_mbps=11.0,
        t_slot_s=0.02,
        connectivity=tuple(("hub", leaf.id) for leaf in leaves),
    )
    rep = run_scenario(scn)
    crowded = [r for r in rep.rounds if len(r.members) >= 3]    # in a pair, both reach all
    assert len(crowded) == 3 and all(r.go_id == "hub" for r in crowded)
    first = rep.rounds[0]
    assert first.airtime == 17.0
    assert max(first.problem.players, key=lambda p: p.data_size).id == "leaf3"
    assert simulate._round_draws(scn)[0].hubs == (True, False, False, False, False)
    # on a complete graph the heaviest leaf relays instead
    assert run_scenario(replace(scn, connectivity="complete")).rounds[0].go_id == "leaf3"


def test_delivery_respects_queues_and_interval():
    rep = run_scenario(two_node_scenario())
    r = rep.rounds[0]
    for m in r.members:
        assert rep.transmitted_mb[m] <= 5.0 + 1e-9
        assert r.realized_broadcast[m] <= r.t_end - r.t_start
    # everything fits easily in 10s at 11 Mb/s, so both queues drain
    assert rep.transmitted_mb == pytest.approx({"a": 5.0, "b": 5.0}, abs=1e-9)
    assert rep.received_mb == pytest.approx({"a": 5.0, "b": 5.0}, abs=1e-9)


def _crowd12_doc():
    """Twelve nodes joining and leaving at staggered times, with loss, PCD
    noise, mixed upload rates and an elected GO."""
    return {
        "nodes": [
            {"id": f"c{i:02d}", "join_s": 0.5 * (i % 4), "leave_s": 12.0 - 0.75 * (i % 5),
             "data_mb": 6.0 + 7.0 * i, "upload_mbps": (5.5, 11.0, 24.0, 54.0)[i % 4]}
            for i in range(12)
        ],
        "broadcast_mbps": 11.0,
        "t_slot_ms": 20.0,
        "loss": {"lo": 0.0, "hi": 0.1},
        "pcd_error": {"stddev": 1.0},
        "seed": 5,
    }


def _delivery_bits(report):
    rounds = [
        (r.index, list(r.realized_broadcast), support.float_bits(r.realized_broadcast.values()),
         support.float_bits(r.delivered_mb.values()))
        for r in report.rounds
    ]
    return (rounds, list(report.transmitted_mb), support.float_bits(report.transmitted_mb.values()),
            list(report.received_mb), support.float_bits(report.received_mb.values()))


def _run_or_error(scenario, policy):
    try:
        return run_scenario(scenario, policy)
    except ScheduleError as e:
        return str(e)


def test_replay_matches_slot_by_slot_walk(monkeypatch):
    """The array replay gives exactly the floats of walking every slot:
    realized and delivered per round, transmitted and received per node."""
    noisy_table1 = {**PRESETS["table1"], "loss": {"lo": 0.0, "hi": 0.1}, "pcd_error": {"stddev": 1.0}}
    # (contact seconds, basic slot seconds)
    grid = [(40.0, 0.001), (3.0, 0.1), (17.0, 0.005), (8.0, 0.02), (25.0, 0.05), (5.0, 0.002)]
    cases = [(PRESETS["table1"], grid), (noisy_table1, grid), (PRESETS["dynamic4"], grid),
             (_crowd12_doc(), [(5.0, 0.002), (12.0, 0.001), (40.0, 0.01)])]
    horizons = set()
    errors = 0
    for doc, cells in cases:
        base = scenario_from_dict(doc)
        for g, (duration, t_slot) in enumerate(cells):
            scenario = replace(scale_contact_durations(base, duration), t_slot_s=t_slot,
                               seed=derive_seed(doc["seed"], "oracle", g))
            for policy in ("gsa", "eql", "wtd"):
                got = _run_or_error(scenario, policy)
                with monkeypatch.context() as m:
                    m.setattr(simulate, "_replay", support.reference_replay)
                    want = _run_or_error(scenario, policy)
                if isinstance(want, str):
                    assert got == want
                    errors += 1
                    continue
                assert _delivery_bits(got) == _delivery_bits(want)
                for r in got.rounds:
                    if r.schedule is not None:
                        horizon_end = r.t_start + r.airtime
                        horizons.add("before" if horizon_end < r.t_end else
                                     "after" if horizon_end > r.t_end else "at")
    assert horizons == {"before", "at", "after"}   # estimated horizon vs true round end
    assert errors <= 6    # most runs compare deliveries, not error messages


# ---------------------------------------------------------------------------
# the bundled dynamic scenario


def test_dynamic4_round_structure():
    rep = run_scenario(preset_scenario("dynamic4"))
    bounds = [r.t_start for r in rep.rounds] + [rep.rounds[-1].t_end]
    assert bounds == [0.0, 4.0, 8.0, 12.0, 16.0, 20.0]
    assert [len(r.members) for r in rep.rounds] == [2, 3, 2, 3, 2]
    assert [r.mode for r in rep.rounds] == [
        MODE_UNICAST_PAIR,
        MODE_GO_COORDINATED,
        MODE_UNICAST_PAIR,
        MODE_GO_COORDINATED,
        MODE_UNICAST_PAIR,
    ]
    assert rep.rounds[0].go_id == "n1"   # 25 Mb/peer beats 20 Mb/peer
    assert rep.rounds[3].go_id == "n4"   # fresh joiner holds the most data
    for r in rep.rounds:
        assert r.go_id in r.members


def test_dynamic4_bookkeeping_across_rounds():
    rep = run_scenario(preset_scenario("dynamic4"))
    per_round = {m: 0.0 for m in rep.transmitted_mb}
    for r in rep.rounds:
        for m, mb in r.delivered_mb.items():
            per_round[m] += mb
    assert per_round == pytest.approx(rep.transmitted_mb, abs=1e-9)
    # per-peer stakes: a node never sends more than it ever queued
    for n in rep.scenario.nodes:
        assert rep.transmitted_mb[n.id] <= n.data_mb_per_peer * 2 + 1e-9


def test_realized_never_beats_bargained_ideal():
    for r in run_scenario(preset_scenario("dynamic4")).rounds:
        if not r.idle:
            assert r.wpf_vs_ideal <= 1e-9
            assert r.nash_realized <= r.nash_ideal * (1 + 1e-9)


def test_report_averages_skip_idle_rounds():
    rep = run_scenario(preset_scenario("dynamic4"))
    busy = [r for r in rep.rounds if not r.idle]
    assert len(busy) < len(rep.rounds)
    assert rep.nash_product_realized == pytest.approx(
        float(np.mean([r.nash_realized for r in busy]))
    )


def test_same_seed_reproduces_everything():
    a = run_scenario(preset_scenario("dynamic4"))
    b = run_scenario(preset_scenario("dynamic4"))
    assert a.nash_product_realized == b.nash_product_realized
    assert a.transmitted_mb == b.transmitted_mb
    for ra, rb in zip(a.rounds, b.rounds):
        assert ra.realized_broadcast == rb.realized_broadcast


def test_seed_changes_draws_not_structure():
    base = preset_scenario("dynamic4")
    a = run_scenario(base)
    b = run_scenario(replace(base, seed=base.seed + 1))
    assert [r.members for r in a.rounds] == [r.members for r in b.rounds]
    assert a.nash_product_realized != b.nash_product_realized


# ---------------------------------------------------------------------------
# experiment drivers


def test_repeated_contacts_without_randomness_sits_on_the_ideal():
    scn = preset_scenario("table1")
    running, ideal = repeated_contacts(scn, 5)
    np.testing.assert_allclose(running, ideal, rtol=1e-12)


def test_repeated_contacts_running_average_shape():
    scn = replace(preset_scenario("table1"), pcd_error=PcdErrorModel(1.0), loss=LossModel(0.0, 0.1))
    running, ideal = repeated_contacts(scn, 8, seed=5)
    assert running.shape == (8,)
    assert ideal > 0
    # the running average is the cumulative mean of the per-contact values
    again, _ = repeated_contacts(scn, 8, seed=5)
    np.testing.assert_array_equal(running, again)


def test_scale_contact_durations():
    # longest span is n3's 16s, so the dilation factor is 2.5
    scn = scale_contact_durations(preset_scenario("dynamic4"), 40.0)
    spans = [n.leave_s - n.join_s for n in scn.nodes]
    assert max(spans) == pytest.approx(40.0)
    assert [n.join_s for n in scn.nodes] == [0.0, 0.0, 10.0, 30.0]


def test_slot_size_sweep_shape_and_pairing():
    scn = preset_scenario("table1")
    rows = slot_size_sweep(scn, [0.02, 0.05], repetitions=3)
    assert [r[0] for r in rows] == [0.02, 0.05]
    rows2 = slot_size_sweep(scn, [0.02, 0.05], repetitions=3)
    assert rows == rows2


def test_compare_policies_shares_draws():
    out = compare_policies(preset_scenario("table1"))
    assert set(out) == {"gsa", "eql", "wtd"}
    assert all(len(rep.rounds) == 1 for rep in out.values())
    nash = {p: rep.nash_product_realized for p, rep in out.items()}
    assert nash["gsa"] >= nash["eql"] - 1e-12
    assert nash["gsa"] >= nash["wtd"] - 1e-12


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        run_scenario(preset_scenario("table1"), policy="rr")
