import ast
import importlib.util
import math
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import code_lines
import support
from airfair import grouping, simulate
from airfair.bargaining import left_sum
from airfair.grouping import (
    MODE_GO_COORDINATED,
    MODE_UNICAST_PAIR,
    NoGoCandidateError,
    ScheduleError,
    build_schedule,
)
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


@pytest.mark.parametrize("rates,loss", [
    (11.0, 0.05),
    (np.array([11.0, 5.5]), 0.05),
    (11.0, np.array([0.05, 0.2])),
    (np.array([11.0, 5.5]), np.array([0.05, 0.2])),
], ids=["scalar-scalar", "array-scalar", "scalar-array", "array-array"])
def test_effective_upload_rate_is_a_float_only_when_both_are_scalars(rates, loss):
    rate = effective_upload_rate(rates, loss)
    expected = rates * (1.0 - loss)
    if np.ndim(expected) == 0:
        assert type(rate) is float and rate == expected
    else:
        assert isinstance(rate, np.ndarray) and rate.tolist() == expected.tolist()


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(33, "contact", 0) == derive_seed(33, "contact", 0)
    assert derive_seed(33, "contact", 0) != derive_seed(33, "contact", 1)
    assert derive_seed(33, "contact", 0) != derive_seed(34, "contact", 0)


def test_scenario_validation():
    with pytest.raises(ValueError, match="duplicate"):
        two_node_scenario(nodes=(ScenarioNode("a", 0, 1, data_mb=1), ScenarioNode("a", 0, 1, data_mb=1)))
    with pytest.raises(ValueError, match="scenario needs at least one node"):
        two_node_scenario(nodes=())
    with pytest.raises(ValueError, match="exactly one"):
        ScenarioNode("a", 0, 1, data_mb=1.0, data_mb_per_peer=1.0)
    with pytest.raises(ValueError, match="exactly one"):
        ScenarioNode("a", 0, 1)
    with pytest.raises(ValueError, match="pinned GO"):
        two_node_scenario(go="zz")
    with pytest.raises(ValueError, match="unknown nodes"):
        two_node_scenario(connectivity=(("a", "zz"),))
    for t_slot in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t_slot_s must be > 0 and finite"):
            two_node_scenario(t_slot_s=t_slot)
    # an idle round delivers 0 s times the rate, which must stay 0
    with pytest.raises(ValueError, match="broadcast_mbps must be > 0 and finite"):
        two_node_scenario(broadcast_mbps=math.inf)
    # a NaN or infinite amount would read as a drained queue, and the node
    # would sit every round out; a NaN noise model would floor every estimate
    for amount in (math.nan, math.inf):
        for field in ("data_mb", "data_mb_per_peer"):
            with pytest.raises(ValueError, match="'x': data amount must be finite"):
                ScenarioNode("x", 0, 10, **{field: amount})
    with pytest.raises(ValueError, match="negative data amount"):
        ScenarioNode("x", 0, 10, data_mb=-math.inf)
    # a finite per-peer amount can overflow once scaled by the peers, and
    # would read as a drained queue too
    three = (ScenarioNode("x", 0, 10, data_mb_per_peer=1e308),) + two_node_scenario().nodes
    with pytest.raises(ValueError, match="'x': data_mb_per_peer overflows at 2 peers"):
        two_node_scenario(nodes=three)
    # a client's relay overhead, broadcast_mbps over its upload rate at the
    # worst loss, must be finite; at 1e-20 Mb/s, 5e-324 x 0.5 underflows to 0
    def slow_a(upload_mbps):
        return (ScenarioNode("a", 0, 10, data_mb=5.0, upload_mbps=upload_mbps), ScenarioNode("b", 0, 10, data_mb=5.0))
    for upload, loss, rate in ((5e-324, None, 11.0), (1e-307, LossModel(0.0, 0.9), 11.0),
                               (5e-324, LossModel(0.5, 0.5), 1e-20)):
        with pytest.raises(ValueError, match="'a': relay overhead broadcast_mbps / upload_mbps overflows"):
            two_node_scenario(nodes=slow_a(upload), loss=loss, broadcast_mbps=rate)
    two_node_scenario(nodes=slow_a(1e-307))
    two_node_scenario(nodes=slow_a(5e-324), broadcast_mbps=1e-20)
    # a queue's cap, its largest round load over broadcast_mbps, must be
    # finite: at 1e-307 Mb/s the load must stay below 17.97 mb, which 10 mb
    # per peer crosses at 2 peers and a fixed 5 mb never does
    three = (ScenarioNode("x", 0, 10, data_mb_per_peer=10.0),) + two_node_scenario().nodes
    with pytest.raises(ValueError, match="'x': queue time data / broadcast_mbps overflows at its largest round load 20 mb"):
        two_node_scenario(nodes=three, broadcast_mbps=1e-307)
    two_node_scenario(nodes=three[:2], broadcast_mbps=1e-307)
    with pytest.raises(ValueError, match="stddev must be >= 0"):
        PcdErrorModel(math.nan)
    with pytest.raises(ValueError, match="mean must not be NaN"):
        PcdErrorModel(1.0, math.nan)


# ---------------------------------------------------------------------------
# single-round behavior


def test_pair_round_is_unicast_without_upload_cost():
    rep = run_scenario(two_node_scenario())
    assert len(rep.rounds) == 1
    r = rep.rounds[0]
    assert r.mode == MODE_UNICAST_PAIR
    np.testing.assert_array_equal(r.problem.betas, [0.0, 0.0])
    assert all(e.kind == "broadcast" for e in r.schedule.entries)


def test_the_relay_rule_has_one_source():
    """A unicast pair uploads nothing, and a GO-coordinated round exempts
    its GO alone: in both problems the GO's relay overhead is 0 and it gets
    no upload seconds, while its rate is its own, less its loss in the
    estimated problem.  Every policy's rounds of dynamic4 and of table1
    with loss U[0.05, 0.3], at 5-40 s."""
    seen = {"pair": 0, "coordinated": 0}
    for doc in (PRESETS["dynamic4"], {**PRESETS["table1"], "loss": {"lo": 0.05, "hi": 0.3}}):
        for duration in (5.0, 10.0, 20.0, 40.0):
            scenario = scale_contact_durations(scenario_from_dict(doc), duration)
            try:
                reports = compare_policies(scenario)
            except ScheduleError:
                continue
            rate = {n.id: n.upload_mbps for n in scenario.nodes}
            draws = simulate._round_draws(scenario)
            for report in reports.values():
                for d, r in zip(draws, report.rounds):
                    if r.mode == MODE_UNICAST_PAIR:
                        seen["pair"] += 1
                        assert r.problem.betas.tolist() == r.ideal_problem.betas.tolist() == [0.0, 0.0]
                        assert r.schedule is None or all(kind != "upload" for _, kind, _ in r.schedule.pattern)
                        continue
                    seen["coordinated"] += 1
                    g = r.members.index(r.go_id)
                    assert r.problem.betas[g] == r.ideal_problem.betas[g] == r.allocation.upload_time[g] == 0.0
                    assert r.problem.upload_rates[g] == rate[r.go_id] * (1.0 - d.loss[g])
                    assert r.ideal_problem.upload_rates[g] == rate[r.go_id]
    # dynamic4 raises at 5 s; 3 x 5 dynamic4 rounds and 4 table1 rounds per policy
    assert seen == {"pair": 27, "coordinated": 30}


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
    with pytest.raises(NoGoCandidateError, match=r"^round 0 at 0s: no member reaches every other member$"):
        run_scenario(scn)


def test_schedule_error_names_the_round():
    # 5 s basic slots make one table1 cycle longer than its 10 s horizon
    scn = replace(preset_scenario("table1"), t_slot_s=5.0)
    message = "round 0 at 0s: one cycle (35.000000s) exceeds the interval (10.000000s)"
    with pytest.raises(ScheduleError, match=f"^{re.escape(message)}$"):
        run_scenario(scn)


def test_a_leg_below_the_float_spacing_still_runs():
    # c uploads at 1e13 Mb/s, so at 1000 s its upload leg (2.2e-14 s) is
    # below the float spacing there (1.14e-13 s); only the longest leg has
    # to exceed it
    nodes = [ScenarioNode(m, 1000.0, 1010.0, data_mb=40.0, **({"upload_mbps": 1e13} if m == "c" else {}))
             for m in "abc"]
    rep = run_scenario(Scenario(nodes=nodes, broadcast_mbps=11.0, t_slot_s=0.02))
    assert rep.transmitted_mb["c"] == pytest.approx(34.98, abs=0.005)


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


def test_a_scenario_builds_its_connectivity_graph_once(monkeypatch):
    """A scenario with given edges keeps the graph that checks them, built
    once per construction (a ``replace`` is one), and its runs read that
    graph: compare_policies builds none.  The graph is left out of
    equality, the hash and the repr, and a complete scenario has none."""
    built = []
    graph = simulate.ConnectivityGraph
    monkeypatch.setattr(simulate, "ConnectivityGraph", lambda *args: built.append(args) or graph(*args))
    leaves = [ScenarioNode(f"leaf{k}", 0.0, 20.0 - k, data_mb=5.0 + 10.0 * k) for k in range(4)]
    star = Scenario(nodes=(ScenarioNode("hub", 0.0, 30.0, data_mb=1.0), *leaves), broadcast_mbps=11.0,
                    t_slot_s=0.02, connectivity=tuple(("hub", leaf.id) for leaf in leaves))
    assert len(built) == 1 and isinstance(star.graph, graph)
    again = replace(star, seed=5)
    assert len(built) == 2 and again.graph is not star.graph
    assert {r.go_id for r in compare_policies(again)["gsa"].rounds if len(r.members) > 2} == {"hub"}
    assert len(built) == 2
    assert again == replace(star, seed=5) and hash(again) == hash(replace(star, seed=5))
    assert "graph" not in repr(star)
    built.clear()
    complete = replace(star, connectivity="complete")
    compare_policies(complete)
    assert complete.graph is None and built == []


def test_delivery_respects_queues_and_interval():
    rep = run_scenario(two_node_scenario())
    r = rep.rounds[0]
    for k, m in enumerate(r.members):
        assert rep.transmitted_mb[m] <= 5.0 + 1e-9
        assert r.realized_broadcast[k] <= r.t_end - r.t_start
    # everything fits easily in 10s at 11 Mb/s, so both queues drain
    assert rep.transmitted_mb == pytest.approx({"a": 5.0, "b": 5.0}, abs=1e-9)
    assert rep.received_mb == pytest.approx({"a": 5.0, "b": 5.0}, abs=1e-9)


def test_a_drained_queue_sits_the_round_out():
    # n3's queue drains in round 1 but for a rounding residue of its sends;
    # scheduled in round 3 for that residue alone, it made one cycle last
    # 5e11 s, longer than the round
    scn = replace(scale_contact_durations(preset_scenario("dynamic4"), 80.0), t_slot_s=0.005, seed=0)
    r = run_scenario(scn, "gsa").rounds[3]
    assert (r.t_start, r.members) == (60.0, ("n2", "n3", "n4"))
    assert r.problem.data_sizes.tolist() == [0.0, 0.0, 20.0]
    assert [node for node, _, _ in r.schedule.pattern] == ["n4"]


@pytest.mark.parametrize("preset", ["table1", "dynamic4"])
def test_realized_broadcast_is_within_one_leg_of_the_allocation(preset):
    """The paper's scheduling claim: in a round that lasts its whole
    horizon, repeating the cycle gives each scheduled member its allocated
    broadcast time to within one of its own broadcast legs, unless its
    queue runs out first."""
    checked = 0
    base = replace(preset_scenario(preset), loss=None, pcd_error=None)
    for duration in (2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0):
        for t_slot in (1e-9, 1e-6, 0.005, 0.01, 0.02, 0.05, 0.1):
            scenario = replace(scale_contact_durations(base, duration), t_slot_s=t_slot)
            for policy in simulate.POLICIES:
                try:
                    report = run_scenario(scenario, policy)
                except ScheduleError:
                    continue
                for r in report.rounds:
                    if r.schedule is None or r.t_end < r.t_start + r.airtime:
                        continue
                    legs = {node: dur for node, kind, dur in r.schedule.pattern if kind == "broadcast"}
                    need = r.problem.data_sizes / scenario.broadcast_mbps
                    for k, m in enumerate(r.members):
                        if m in legs:
                            x, d = r.allocation.broadcast_time[k], legs[m]
                            slack = 1e-9 * (x + d)
                            assert min(need[k], x - d) - slack <= r.realized_broadcast[k] <= x + d + slack
                            checked += 1
    # 876 node-rounds of table1 qualify, 883 of dynamic4; the 5-100 ms
    # slots alone give 624 and 632
    assert checked >= 850


def test_replay_tends_to_the_fluid_share():
    """As the slot shrinks, slotted round-robin tends to its fluid form
    (Parekh & Gallager, IEEE/ACM ToN 1993): a scheduled member with
    allocation x_i realizes min(need_i, x_i * T / sum_j (1 + beta_j) x_j),
    where T = min(t1 - t0, H) is the part of its horizon H the round runs.
    The slotted replay is within one of the member's own broadcast legs of
    it, in noisy rounds that end before or after their horizon."""
    noisy_table1 = scenario_from_dict({**PRESETS["table1"], "loss": {"lo": 0.0, "hi": 0.1},
                                       "pcd_error": {"stddev": 1.0}})
    checked = 0
    for base, duration in ((noisy_table1, 20.0), (noisy_table1, 40.0), (preset_scenario("dynamic4"), 40.0)):
        for seed in range(30):
            for t_slot in (1e-6, 1e-9, 1e-12):
                scenario = replace(scale_contact_durations(base, duration), t_slot_s=t_slot, seed=seed)
                for policy in simulate.POLICIES:
                    try:
                        report = run_scenario(scenario, policy)
                    except ScheduleError:
                        continue
                    for r in report.rounds:
                        if r.schedule is None:
                            continue
                        legs = {node: dur for node, kind, dur in r.schedule.pattern if kind == "broadcast"}
                        x, betas = r.allocation.broadcast_time, r.problem.betas
                        scheduled = [k for k, m in enumerate(r.members) if m in legs]
                        weighted = left_sum((1.0 + betas[k]) * x[k] for k in scheduled)
                        span = min(r.t_end - r.t_start, r.airtime)
                        need = r.problem.data_sizes / scenario.broadcast_mbps
                        for k in scheduled:
                            m = r.members[k]
                            fluid = min(need[k], x[k] * span / weighted)
                            assert abs(r.realized_broadcast[k] - fluid) <= legs[m] + 1e-12
                            checked += 1
    assert checked >= 5000      # 5,298 member-rounds; 8 dynamic4 runs raise


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


def test_simulated_rounds_cycle_clients_in_id_order_then_the_go(monkeypatch):
    """Every scheduled round of every policy on table1, dynamic4 (whose
    rounds 1 and 3 elect their GO) and the 12-node crowd at 10 and 40 s runs
    the paper's round robin: the broadcast legs name the members allocated
    over 1e-15 s, in member order with the GO last, each upload leg comes
    right before the same node's broadcast leg, and the GO uploads nothing.
    The records are read as the round step returns them, so the rounds of
    a run that raises later count too."""
    records = []
    step = simulate._round

    def recorded(*args):
        records.append(step(*args))
        return records[-1]

    monkeypatch.setattr(simulate, "_round", recorded)
    crowd = scenario_from_dict(_crowd12_doc())
    for scenario in (preset_scenario("table1"), preset_scenario("dynamic4"),
                     scale_contact_durations(crowd, 10.0), scale_contact_durations(crowd, 40.0)):
        for policy in simulate.POLICIES:
            try:
                run_scenario(scenario, policy)
            except ScheduleError:       # the 10 s crowd raises after its first rounds
                pass
    scheduled = [r for r in records if r.schedule is not None]
    for r in scheduled:
        pattern = r.schedule.pattern
        sent = [m for m, x in zip(r.members, r.allocation.broadcast_time.tolist()) if x > 1e-15]
        broadcasts = [node for node, kind, _ in pattern if kind == "broadcast"]
        assert broadcasts == [m for m in sent if m != r.go_id] + [r.go_id]
        for (node, kind, _), after in zip(pattern, pattern[1:] + ((None, None, None),)):
            if kind == "upload":
                assert node != r.go_id and after[:2] == (node, "broadcast")
    assert {r.mode for r in scheduled} == {MODE_UNICAST_PAIR, grouping.MODE_GO_COORDINATED}
    assert len(scheduled) >= 50      # 52: 3 of table1, 13 of dynamic4, 12 and 24 of the crowd
    assert max(len(r.members) for r in scheduled) == 12


#: largest difference allowed between the closed-form replay and adding one
#: slot at a time (``support.reference_replay``), relative to the largest
#: value of the compared array.  The reference's slot starts round at every
#: addition, so a small partial take late in a round can differ by far more
#: than its own ulp; the largest value sets the scale instead.  The worst
#: measured was 5.1e-12 on the scenarios of
#: test_replay_matches_slot_by_slot_walk, 3.5e-9 over 2,000 derandomized
#: rounds of _rounds and 9.8e-10 over 10,000 random ones.
REPLAY_RTOL = 1e-7


def _assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= REPLAY_RTOL * np.abs(want).max(initial=0.0)


def _assert_same_deliveries(got, want):
    """The same rounds, members and GOs, and realized, delivered,
    transmitted and received within :data:`REPLAY_RTOL`."""
    assert [(r.index, r.go_id, r.members) for r in got.rounds] == [(r.index, r.go_id, r.members) for r in want.rounds]
    for a, b in zip(got.rounds, want.rounds):
        _assert_close(a.realized_broadcast, b.realized_broadcast)
        _assert_close(a.delivered_mb, b.delivered_mb)
    for a, b in ((got.transmitted_mb, want.transmitted_mb), (got.received_mb, want.received_mb)):
        assert list(a) == list(b)
        _assert_close(list(a.values()), list(b.values()))


def _run_or_error(scenario, policy):
    try:
        return run_scenario(scenario, policy)
    except ScheduleError as e:
        return str(e)


#: slot-by-slot references for the replay: walk the reference slots one at a
#: time, or fold them per member as arrays; neither uses the cycle arithmetic
_REFERENCES = {"walk": support.reference_replay, "fold": support.reference_fold_replay}


@pytest.mark.parametrize("reference", _REFERENCES)
def test_replay_matches_slot_by_slot_walk(monkeypatch, reference):
    """The replay gives the deliveries of running every slot, within
    :data:`REPLAY_RTOL`: realized and delivered per round, transmitted and
    received per node."""
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
                    m.setattr(simulate, "_replay", _REFERENCES[reference])
                    want = _run_or_error(scenario, policy)
                if isinstance(want, str):
                    assert got == want
                    errors += 1
                    continue
                _assert_same_deliveries(got, want)
                for r in got.rounds:
                    if r.schedule is not None:
                        horizon_end = r.t_start + r.airtime
                        horizons.add("before" if horizon_end < r.t_end else
                                     "after" if horizon_end > r.t_end else "at")
    assert horizons == {"before", "at", "after"}   # estimated horizon vs true round end
    assert errors <= 6    # most runs compare deliveries, not error messages


@st.composite
def _rounds(draw):
    """A schedule of 1-8 members with legs over four decades, some with
    upload legs, the true round end before, at or after the interval's
    end, and the members' queues."""
    members = [f"m{k}" for k in range(draw(st.integers(1, 8)))]
    leg = st.floats(-4.0, 0.0).map(lambda e: 10.0 ** e)
    uploads = draw(st.booleans())
    slots = {m: (draw(leg) if uploads and draw(st.booleans()) else 0.0, draw(leg)) for m in members}
    cycle = left_sum(dur for legs in slots.values() for dur in legs)
    cycles = draw(st.floats(1.0, 40.0))
    t_start = draw(st.sampled_from([0.0, 7.25, 1234.567]))
    schedule = build_schedule([(m, *slots[m]) for m in members], cycle * cycles * (1 + 1e-12), t_start=t_start)
    end = t_start + schedule.interval
    t1 = draw(st.sampled_from([t_start + draw(st.floats(1e-6, 1.0)) * schedule.interval, end,
                               end + draw(st.floats(1e-9, 5.0))]))
    # each queue is empty, drains partway through or never drains
    need = [draw(st.sampled_from([0.0, draw(st.floats(0.0, 1.0)) * cycles * slots[m][1], 1e9])) for m in members]
    return schedule, t1, members, np.array(need)


def _drained_round():
    """Seven members over 130 cycles, one with no upload leg; one queue is
    empty and two drain partway through."""
    members = [f"m{k}" for k in range(7)]
    slots = {m: (0.0 if k == 0 else 0.004 * k, 0.01 + 0.003 * k) for k, m in enumerate(members)}
    schedule = build_schedule([(m, *slots[m]) for m in members], 40.0, t_start=2.5)
    need = np.array([0.0, 1.0, 5.0, 30.0, 30.0, 0.2, 30.0])
    return schedule, schedule.t_start + 0.7 * schedule.interval, members, need


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=_rounds())
@example(case=_drained_round())
def test_replay_forms_match_slot_by_slot_reference(case):
    """The replay gives ``support.reference_replay``'s realized seconds
    within :data:`REPLAY_RTOL`, and no node sends past its queue or the
    time the schedule runs before the round ends."""
    schedule, t1, members, need = case
    order = range(len(members))     # the legs are in member order
    realized = simulate._replay(schedule, t1, order, need)
    _assert_close(realized, support.reference_replay(schedule, t1, order, need))
    assert (realized <= need).all()
    assert (realized <= min(t1, schedule.t_start + schedule.interval) - schedule.t_start).all()


#: how far, in units in the last place, the replay's realized seconds and
#: delivered megabits may sit from support.exact_replay.  A leg cut by the
#: round end runs rest - o seconds, where rest = T - K * cycle carries the
#: rounding of the span and of the float cycle length, a few ulps of T, onto
#: a leg far shorter than T.  The largest measured were 33.5 (realized) and
#: 35.8 ulps (delivered) over the 269 scheduled rounds of
#: test_replay_stays_within_ulps_of_exact, with a median of 0.4 and a p99 of
#: 28.  A cut leg that runs one whole slot instead is off by some 1e15 ulps.
REPLAY_ULPS = 64.0


def test_replay_stays_within_ulps_of_exact(monkeypatch):
    """Every scheduled round that compare_policies runs on table1 and
    dynamic4, without noise and with loss and estimation noise (seeds 0-3),
    scaled to 10-80 s contacts, realizes and delivers within
    :data:`REPLAY_ULPS` of the exact replay of its float schedule, true
    round end and queues.  A round whose float K or cut decision differs
    from the exact one is counted and held to the bound at the float's own
    decisions.  The records are read as the round step returns them, so
    the rounds of a run that raises later count too."""
    records = []
    step = simulate._round

    def recorded(*args):
        records.append(step(*args))
        return records[-1]

    monkeypatch.setattr(simulate, "_round", recorded)
    noisy = [scenario_from_dict({**PRESETS["table1"], "loss": {"lo": 0.0, "hi": 0.1}, "pcd_error": {"stddev": 1.0}}),
             scenario_from_dict(PRESETS["dynamic4"])]
    runs = [replace(base, loss=None, pcd_error=None) for base in noisy]        # no draws: one seed
    runs += [replace(base, seed=seed) for base in noisy for seed in range(4)]
    for run in runs:
        for duration in (10.0, 20.0, 40.0, 80.0):
            try:
                compare_policies(scale_contact_durations(run, duration))
            except ScheduleError:       # noisy dynamic4 keeps the rounds before the one that raises
                pass

    F = Fraction
    worst, moved = 0.0, 0
    replays = [r for r in records if r.schedule is not None]
    for r in replays:
        schedule, t1, need = r.schedule, r.t_end, r.problem.caps      # caps: the loads over the rate
        pattern = [(node, kind, F(d)) for node, kind, d in schedule.pattern]
        args = (pattern, r.members, F(schedule.t_start), F(schedule.interval), F(t1), [F(q) for q in need.tolist()])
        exact, cycles, runs = support.exact_replay(*args)
        float_cycles, legs = schedule._cut(t1)
        float_runs = [seconds > 0 for _, seconds in legs]
        if (cycles, runs) != (float_cycles, float_runs):
            moved += 1
            exact, *_ = support.exact_replay(*args, cycles=float_cycles, runs=float_runs)
        rate = F(r.problem.broadcast_rate)
        worst = max(worst, support.ulps_from_exact(r.realized_broadcast.tolist(), exact),
                    support.ulps_from_exact(r.delivered_mb.tolist(), [e * rate for e in exact]))
    print(f"replay vs exact: {len(replays)} scheduled rounds, {moved} with another K or cut decision, "
          f"worst {worst:.1f} ulps")
    assert len(replays) >= 250
    assert moved <= len(replays) // 20
    assert worst <= REPLAY_ULPS


def _no_slots(*_):
    raise AssertionError("a slot was built")


def test_receiver_fold_memory_follows_slots_not_members(monkeypatch):
    """A 24-member round of over a million broadcast slots replays without
    building its slots, and within six numbers per slot."""
    monkeypatch.setattr(grouping, "SlotEntry", _no_slots)
    members = [f"n{k:02d}" for k in range(24)]
    schedule = build_schedule([(m, 0.0, 1e-3) for m in members], 24 * 44_000 * 1e-3)
    tracemalloc.start()
    try:
        realized = simulate._replay(schedule, schedule.interval, range(len(members)), np.full(24, 1e9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slots = len(schedule.pattern) * schedule.interval / schedule.cycle_length
    assert slots > 1_000_000
    assert peak < 6 * 8 * slots
    assert realized.min() > 0.0


def _perfbench_spans():
    """perfbench's span tracing module, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _perfbench_targets() -> tuple[tuple[str, str, str], ...]:
    """The (module, name, span) triples perfbench's traced pass wraps."""
    return _perfbench_spans().TARGETS


def _names_perfbench_wraps() -> list[str]:
    """The ``airfair.simulate`` names perfbench's traced pass replaces."""
    return sorted({name for module, name, _ in _perfbench_targets() if module == "airfair.simulate"})


def test_names_perfbench_wraps_exist():
    """Every ``airfair`` name perfbench wraps resolves, so deleting one fails
    here and not only in a traced benchmark run."""
    targets = sorted({(module, name) for module, name, _ in _perfbench_targets() if module.startswith("airfair.")})
    assert {"airfair.simulate", "airfair.cli", "airfair.scenario_io"} <= {module for module, _ in targets}
    missing = [f"{module}.{name}" for module, name in targets
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_public_names_resolve_and_the_package_reexports_only_them():
    """Every name in an ``airfair`` module's ``__all__`` resolves, and every
    name ``airfair/__init__.py`` imports is in its module's ``__all__``, so
    deleting a function leaves no dangling entry or export behind."""
    package = Path(simulate.__file__).parent
    modules = {p.stem: importlib.import_module(f"airfair.{p.stem}")
               for p in package.glob("*.py") if p.stem not in ("__init__", "__main__")}
    assert {"bargaining", "grouping", "scenario_io", "simulate", "streams"} <= {
        name for name, module in modules.items() if hasattr(module, "__all__")}
    missing = [f"{name}.{n}" for name, module in modules.items() for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []
    imported = [(node.module, alias.name) for node in ast.walk(ast.parse((package / "__init__.py").read_text()))
                if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    assert len(imported) > 20
    assert [f"{m}.{n}" for m, n in imported if n not in getattr(modules[m], "__all__", ())] == []


def _unused_imports(source: str) -> list[str]:
    """The names a module's source imports but never reads and does not
    list in ``__all__``, leaving out those on a line marked
    ``# noqa: F401``; a ``__future__`` import binds no name."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    bound = [((alias.asname or alias.name).split(".")[0], alias.lineno) for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    return [name for name, line in bound if name not in read and "# noqa: F401" not in lines[line - 1]]


def test_no_module_imports_a_name_it_never_reads():
    """Every ``airfair`` module reads each name it imports, or exports it
    in ``__all__``; a line marked ``# noqa: F401`` keeps names that only
    perfbench reads, by wrapping them in the importing module.  The
    package's ``__init__``, whose imports are its exports, is checked by
    the test above."""
    assert _unused_imports("import os\nimport numpy as np\nnp.add(1, 2)\n") == ["os"]
    assert _unused_imports("from math import pi  # noqa: F401\nfrom os import sep\n__all__ = ['sep']\n") == []
    package = Path(simulate.__file__).parent
    unused = {p.name: _unused_imports(p.read_text()) for p in sorted(package.glob("*.py")) if p.stem != "__init__"}
    assert {name: names for name, names in unused.items() if names} == {}


def test_code_lines_count_lines_that_hold_code(tmp_path, capsys):
    """``tests/code_lines.py``, the count every size figure quotes, counts
    a line when it holds a token other than a comment or a docstring, a
    string literal that is a whole statement: blank lines, comments and
    docstrings, even one that is not first in its body, count nothing, and
    a multi-line string inside an expression counts every line it spans."""
    source = (
        '"""A module docstring\n'
        'on two lines."""\n'
        "\n"
        "import os  # a comment after code\n"
        "# a comment line\n"
        "def f():\n"
        '    """A docstring."""\n'
        "    x = '''a multi-line\n"
        "string'''\n"
        '    "a string statement"\n'
        "    return (x +\n"
        "            os.sep)\n"
    )
    assert code_lines.code_lines(source) == 6
    (tmp_path / "a.py").write_text(source)
    (tmp_path / "b.py").write_text("pass\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["6", str(tmp_path / "a.py"), "1", str(tmp_path / "b.py"), "7", "total"]


def test_runs_unchanged_with_module_names_wrapped(monkeypatch):
    """perfbench times layers by swapping names in ``airfair.simulate`` for
    plain pass-through functions, so the simulator may only call them; a
    class reached through such a name has lost its other attributes."""
    names = _names_perfbench_wraps()
    assert {"BargainingProblem", "gnbs_allocate", "nash_product", "build_schedule"} <= set(names)
    crowd8 = {
        "nodes": [{"id": f"c{i:02d}", "join_s": 0.0, "leave_s": 30.0, "data_mb": 10.0 + 9.0 * i,
                   "upload_mbps": (5.5, 11.0, 24.0, 54.0)[i % 4]} for i in range(8)],
        "broadcast_mbps": 11.0,
        "t_slot_ms": 20.0,
        "loss": {"lo": 0.0, "hi": 0.1},
        "pcd_error": {"stddev": 1.0},
        "seed": 11,
    }
    scenarios = [preset_scenario("table1"), scenario_from_dict(crowd8)]

    def outputs():
        return [support.exact_bits((compare_policies(s), slot_size_sweep(s, [0.005, 0.02], repetitions=2),
                                    list(simulate.compare_means([s], 2)))) for s in scenarios]

    want = outputs()
    for name in names:
        original = getattr(simulate, name)
        monkeypatch.setattr(simulate, name, lambda *a, _fn=original, **k: _fn(*a, **k))
    assert outputs() == want


def test_perfbench_counts_slots_without_building_them(monkeypatch):
    """The traced pass's ``build_schedule`` hook counts each schedule's slots
    by its length, which builds none of them."""
    schedules = [r.schedule for s in ("table1", "dynamic4") for r in run_scenario(preset_scenario(s)).rounds
                 if r.schedule is not None]
    spans = _perfbench_spans()
    tracer = spans.Tracer()
    monkeypatch.setattr(grouping, "SlotEntry", _no_slots)
    for schedule in schedules:
        spans.HOOKS["grouping.build_schedule"](tracer, (), schedule)
    monkeypatch.undo()
    assert tracer.counts["grouping.slots"] == sum(len(tuple(schedule.entries)) for schedule in schedules) > 0


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
        for values in (r.realized_broadcast, r.delivered_mb):     # idle rounds too
            assert values.dtype == float and values.shape == (len(r.members),) and not values.flags.writeable
        for m, mb in zip(r.members, r.delivered_mb.tolist()):
            per_round[m] += mb
    assert per_round == pytest.approx(rep.transmitted_mb, abs=1e-9)
    # per-peer stakes: a node never sends more than it ever queued
    for n in rep.scenario.nodes:
        assert rep.transmitted_mb[n.id] <= n.data_mb_per_peer * 2 + 1e-9


def test_received_is_what_each_receiver_heard():
    """Every compare_policies report's received_mb is, per node, the sum of
    the delivered_mb of every sender it receives (rx_ok[r, s], r != s) over
    the report's rounds, recomputed in plain Python with math.fsum, within
    1e-12 of the largest total."""
    noisy_table1 = {**PRESETS["table1"], "loss": {"lo": 0.0, "hi": 0.1}, "pcd_error": {"stddev": 1.0}}
    completed = 0
    for doc in (PRESETS["dynamic4"], noisy_table1, _crowd12_doc()):
        for duration in (5.0, 10.0, 20.0, 40.0, 80.0):
            scenario = scale_contact_durations(scenario_from_dict(doc), duration)
            try:
                reports = compare_policies(scenario)
            except ScheduleError:
                continue
            completed += 1
            draws = simulate._round_draws(scenario)
            ids = [n.id for n in scenario.nodes]
            for report in reports.values():
                assert [r.members for r in report.rounds] == [d.members for d in draws]
                heard = {m: [] for m in ids}
                for d, r in zip(draws, report.rounds):
                    for i, receiver in enumerate(r.members):
                        heard[receiver] += [mb for s, mb in enumerate(r.delivered_mb.tolist())
                                            if s != i and d.rx_ok[i, s]]
                want = [math.fsum(heard[m]) for m in ids]
                assert list(report.received_mb) == ids
                got = list(report.received_mb.values())
                assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12 * max(want)
    # dynamic4 raises at 5 s and the crowd below 40 s
    assert completed == 11


def test_round_step_writes_only_its_solve_memo():
    """The round step reads the sent column it is given and writes nothing
    but the draws' solve memo: a second call on the same draws and column
    hits the memo and returns an equal record, and the column is
    unchanged."""
    scenario = preset_scenario("dynamic4")
    d = simulate._round_draws(scenario)[1]      # three members, a scheduled round
    sent = 0.25 * d.own_mb
    before = sent.copy()
    first = simulate._round(scenario, "gsa", 1, d, sent)
    assert first.schedule is not None and len(d.solves) == 1
    second = simulate._round(scenario, "gsa", 1, d, sent)
    assert len(d.solves) == 1 and second.problem is first.problem
    assert support.exact_bits(first) == support.exact_bits(second)
    assert sent.tobytes() == before.tobytes()


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


def test_report_means_are_np_mean_bit_for_bit(monkeypatch):
    """A report's means take np.mean's float without calling it: the
    pairwise sum over the count, bit for bit at every length up to past
    numpy's 8-wide unrolled blocks, and NaN for no rounds.  A sweep row over
    repetitions that report these values takes np.mean's and np.std's
    floats alike, calling neither."""
    scenario = preset_scenario("table1")
    rng = np.random.default_rng(41)
    for n in list(range(1, 40)) + [128, 129, 1000]:
        values = (rng.standard_normal(n) * 10.0 ** rng.integers(-6, 6, n)).tolist()
        want = float(np.mean(values)).hex(), float(np.std(values)).hex()
        assert simulate._mean(values).hex() == want[0]
        reports = iter(values)
        with monkeypatch.context() as m:
            m.setattr(simulate, "_repetitions", lambda s, count, *parts: [(s, None)] * count)
            m.setattr(simulate, "_run", lambda *args: SimpleNamespace(wpf_aggregate_vs_ideal=next(reports)))
            m.setattr(np, "mean", None)
            m.setattr(np, "std", None)
            [(_, mean, spread)] = slot_size_sweep(scenario, [0.02], repetitions=n)
        assert (mean.hex(), spread.hex()) == want
    assert math.isnan(simulate._mean([]))


def test_same_seed_reproduces_everything():
    a = run_scenario(preset_scenario("dynamic4"))
    b = run_scenario(preset_scenario("dynamic4"))
    assert a.nash_product_realized == b.nash_product_realized
    assert a.transmitted_mb == b.transmitted_mb
    for ra, rb in zip(a.rounds, b.rounds):
        assert ra.realized_broadcast.tolist() == rb.realized_broadcast.tolist()


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
    running, ideal = repeated_contacts(replace(scn, seed=5), 8)
    assert running.shape == (8,)
    assert ideal > 0
    # the running average is the cumulative mean of the per-contact values
    again, _ = repeated_contacts(replace(scn, seed=5), 8)
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


#: noisy table1 (loss U[0, 0.1], PCD error N(0, 1)) and dynamic4, whose own noise is the same
NOISY = {"table1": {**PRESETS["table1"], "loss": {"lo": 0.0, "hi": 0.1}, "pcd_error": {"stddev": 1.0}},
         "dynamic4": PRESETS["dynamic4"]}


def _outcome(experiment) -> list:
    """What ``experiment()`` yields, every float spelled exactly, then the
    error that ends it, if one does."""
    out = []
    try:
        for row in experiment():
            out.append(support.exact_bits(row))
    except (ScheduleError, NoGoCandidateError) as e:
        out.append(f"{type(e).__name__}: {e}")
    return out


def _compare_rows(scenario, durations, reps):
    means = simulate.compare_means([scale_contact_durations(scenario, d) for d in durations], reps)
    return ([m[p] for p in simulate.POLICIES] for m in means)


@pytest.mark.parametrize("seed", (7, 611))
@pytest.mark.parametrize("name", sorted(NOISY))
def test_experiment_folds_match_their_own_loops_bit_for_bit(name, seed):
    """compare, sweep and converge, folds over one generator of seeded
    repetitions, yield what loops that each derive their own seeds yield,
    float for float, and end in the same error where those do."""
    base = scenario_from_dict({**NOISY[name], "seed": seed})
    durations, sizes = (40.0, 20.0, 10.0, 5.0), [0.005, 0.02, 0.05, 0.1]     # rows before dynamic4 raises at 5 s
    outcomes = [(_outcome(lambda: _compare_rows(base, durations, 3)),
                 _outcome(lambda: support.reference_compare(base, durations, 3)))]
    for duration in (5.0, 40.0):
        scaled = scale_contact_durations(base, duration)
        outcomes.append((_outcome(lambda: slot_size_sweep(scaled, sizes, repetitions=4)),
                         _outcome(lambda: support.reference_slot_size_sweep(scaled, sizes, repetitions=4))))
        for seeded in (scaled, replace(scaled, seed=5)):
            outcomes.append((_outcome(lambda: [repeated_contacts(seeded, 5)]),
                             _outcome(lambda: [support.reference_repeated_contacts(seeded, 5)])))
    for folded, looped in outcomes:
        assert folded == looped
    assert sum(not isinstance(looped[-1], str) for _, looped in outcomes) >= 3


@pytest.mark.parametrize("experiment,error", [
    ("compare", "ScheduleError: round 3 at 6s: one cycle (0.508972s) exceeds the interval (0.431496s)"),
    ("sweep", "ScheduleError: round 3 at 3.75s: one cycle (0.200000s) exceeds the interval (0.100000s)"),
], ids=["compare", "sweep"])
def test_experiment_fill_order_decides_the_raised_error(experiment, error):
    """Where several runs of an experiment fail, the fill order picks the
    error raised, and it is the loop's: compare_means runs repetition by
    repetition with the policies inside (dynamic4 at seed 6, 8 s then 3 s,
    6 repetitions), and slot_size_sweep size by size over its repetitions
    (dynamic4 at 5 s, seed 2, 5/20/50/100 ms, 6 repetitions).  Policies
    outside the repetitions, or a sweep filled repetition by repetition,
    raise another run's error."""
    if experiment == "compare":
        base = scenario_from_dict({**NOISY["dynamic4"], "seed": 6})
        folded = _outcome(lambda: _compare_rows(base, (8.0, 3.0), 6))
        looped = _outcome(lambda: support.reference_compare(base, (8.0, 3.0), 6))
    else:
        scaled = scale_contact_durations(scenario_from_dict({**NOISY["dynamic4"], "seed": 2}), 5.0)
        sizes = [0.005, 0.02, 0.05, 0.1]
        folded = _outcome(lambda: slot_size_sweep(scaled, sizes, repetitions=6))
        looped = _outcome(lambda: support.reference_slot_size_sweep(scaled, sizes, repetitions=6))
    assert folded == looped == [error]


def test_experiment_folds_evaluate_only_the_nash_products_they_read(monkeypatch):
    """A round's Nash products are evaluated when read: a slot_size_sweep
    repetition, which folds the wpf aggregate, evaluates none, and
    compare_means and repeated_contacts evaluate one per non-idle round
    and policy, the realized product they fold (the contacts' clean ideal
    run included)."""
    base = scenario_from_dict(NOISY["dynamic4"])
    reps = [compare_policies(replace(base, seed=derive_seed(base.seed, "compare", 0, k))) for k in range(3)]
    contacts = [run_scenario(replace(base, seed=derive_seed(base.seed, "contact", k))) for k in range(3)]
    contacts.append(run_scenario(replace(base, loss=None, pcd_error=None)))
    reports = [report for policies in reps for report in policies.values()] + contacts
    traffic = [sum(not r.idle for r in report.rounds) for report in reports]
    assert 0 < sum(traffic) < sum(len(report.rounds) for report in reports)      # idle rounds evaluate none
    calls = []
    nash = simulate.nash_product
    monkeypatch.setattr(simulate, "nash_product", lambda *args: calls.append(args) or nash(*args))
    slot_size_sweep(base, [0.005, 0.02, 0.1], repetitions=3)
    assert calls == []
    list(simulate.compare_means([base], 3))
    assert len(calls) == sum(traffic[:9])
    calls.clear()
    repeated_contacts(base, 3)
    assert len(calls) == sum(traffic[9:])


def test_compare_means_yields_each_row_before_a_later_duration_raises():
    """dynamic4 at 20 s and then 2 s: the 20 s row comes first, float for
    float the loop's, and then the 2 s repetitions raise the loop's error."""
    base = preset_scenario("dynamic4")
    folded = _outcome(lambda: _compare_rows(base, (20.0, 2.0), 5))
    assert folded == _outcome(lambda: support.reference_compare(base, (20.0, 2.0), 5))
    assert len(folded) == 2
    assert folded[1] == "ScheduleError: round 1 at 0.5s: one cycle (0.400000s) exceeds the interval (0.100000s)"


@pytest.mark.parametrize("call,message", [
    (lambda s: repeated_contacts(s, 0), "need at least one contact"),
    (lambda s: slot_size_sweep(s, [0.02], repetitions=0), "need at least one repetition"),
    (lambda s: next(simulate.compare_means([s], 0)), "need at least one repetition"),
    (lambda s: scale_contact_durations(s, 0.0), "duration must be > 0"),
    (lambda s: scale_contact_durations(s, -1.0), "duration must be > 0"),
], ids=["no-contacts", "no-repetitions", "no-compare-repetitions", "zero-duration", "negative-duration"])
def test_experiment_drivers_reject_empty_input(call, message):
    with pytest.raises(ValueError, match=message):
        call(preset_scenario("table1"))


def test_a_sweep_whose_largest_slot_overflows_raises_schedule_error():
    """A 1e308 s basic slot makes table1's largest slot overflow: the sweep
    raises ScheduleError, naming the round, and numpy warns of nothing
    (RuntimeWarning is an error here)."""
    with pytest.raises(ScheduleError, match=r"^round 0 at 0s: the largest slot, 2 basic slots of 1e\+308s, overflows$"):
        slot_size_sweep(preset_scenario("table1"), [1e308], 1)


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        run_scenario(preset_scenario("table1"), policy="rr")
