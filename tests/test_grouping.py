import itertools
import math
import sys

import numpy as np
import pytest

import support
from airfair import grouping
from airfair.bargaining import gnbs_allocate
from airfair.grouping import (
    ConnectivityGraph,
    ContactEntry,
    ContactTable,
    Join,
    Leave,
    MODE_GO_COORDINATED,
    MODE_UNICAST_PAIR,
    NoGoCandidateError,
    ScheduleError,
    SelfLeave,
    build_schedule,
    elect_go,
    select_roles,
    select_transmission_mode,
    slot_sizes,
    total_broadcast_time,
    update_contact_table,
)

FOUR_LOADS = support.FOUR_LOADS
four_node_tables = support.four_node_tables
four_node_graph = support.four_node_graph


# ---------------------------------------------------------------------------
# contact tables and events


def test_join_appends_entry():
    t = ContactTable("A")
    t = update_contact_table(t, Join("B", pcd=12.0, data_size=5.0))
    assert t.member_ids() == ("B",)
    assert t.entries == (ContactEntry("B", 12.0, 5.0),)


def test_duplicate_join_rejected():
    t = update_contact_table(ContactTable("A"), Join("B", 12.0, 5.0))
    with pytest.raises(ValueError, match="duplicate"):
        update_contact_table(t, Join("B", 9.0, 1.0))
    with pytest.raises(ValueError, match="duplicate"):
        update_contact_table(t, Join("A", 9.0, 1.0))


def test_leave_removes_entry():
    t = update_contact_table(ContactTable("A"), Join("B", 12.0, 5.0))
    t = update_contact_table(t, Join("C", 7.0, 2.0))
    t = update_contact_table(t, Leave("B"))
    assert t.member_ids() == ("C",)


def test_unknown_leave_rejected():
    with pytest.raises(ValueError, match="unknown"):
        update_contact_table(ContactTable("A"), Leave("B"))


def test_self_leave_empties_table():
    t = update_contact_table(ContactTable("A"), Join("B", 12.0, 5.0))
    t = update_contact_table(t, SelfLeave())
    assert t.entries == ()
    assert t.owner == "A"


def test_unknown_event_rejected():
    with pytest.raises(TypeError, match="unknown event 'join'"):
        update_contact_table(ContactTable("A"), "join")


# ---------------------------------------------------------------------------
# connectivity and role selection


def test_reaches_all_and_restriction():
    g = four_node_graph()
    members = list("ABCD")
    assert g.reaches_all("A", members)
    assert g.reaches_all("C", members)
    assert not g.reaches_all("B", members)


@pytest.mark.parametrize("a, b, message", [("A", "A", "is a self loop"), ("A", "C", "names unknown nodes")],
                         ids=["self-loop", "unknown-node"])
def test_self_loop_rejected(a, b, message):
    with pytest.raises(ValueError, match=message):
        ConnectivityGraph("AB", [(a, b)])


def test_relay_cost_of_each_candidate():
    assert total_broadcast_time(FOUR_LOADS, "A", 10.0) == pytest.approx(19.0)
    assert total_broadcast_time(FOUR_LOADS, "C", 10.0) == pytest.approx(17.0)


def test_heaviest_candidate_becomes_go():
    roles = select_roles(four_node_tables(), four_node_graph())
    assert roles == {"A": "client", "B": "client", "C": "go", "D": "client"}


def test_max_load_coincides_with_min_relay_cost():
    # picking the heaviest candidate is the same as picking the cheapest
    # relay, since everyone else's load is doubled either way
    costs = {m: total_broadcast_time(FOUR_LOADS, m, 10.0) for m in ("A", "C")}
    assert min(costs, key=costs.get) == "C"


def test_role_tie_breaks_to_smallest_id():
    loads = {"A": 5.0, "B": 5.0, "C": 5.0}
    tables = {
        owner: ContactTable(
            owner,
            tuple(ContactEntry(n, 10.0, loads[n]) for n in loads if n != owner),
        )
        for owner in loads
    }
    roles = select_roles(tables, ConnectivityGraph(loads, itertools.combinations(loads, 2)))
    assert roles["A"] == "go"


def test_member_no_table_lists_reads_no_load():
    """A's entry is in no peer's table, so A's load reads 0 and the
    slightest load B has elects B."""
    tables = {"A": ContactTable("A", (ContactEntry("B", 10.0, 1e-9),)), "B": ContactTable("B")}
    assert select_roles(tables, ConnectivityGraph("AB", [("A", "B")])) == {"A": "client", "B": "go"}


@pytest.mark.parametrize("go,rate,error,message", [
    ("E", 10.0, KeyError, "E"),
    ("A", 0.0, ValueError, "rate must be > 0"),
    ("A", -1.0, ValueError, "rate must be > 0"),
], ids=["unknown-go", "zero-rate", "negative-rate"])
def test_relay_cost_rejects_bad_input(go, rate, error, message):
    with pytest.raises(error, match=message):
        total_broadcast_time(FOUR_LOADS, go, rate)


def test_no_candidate_raises():
    g = ConnectivityGraph("ABCD", [("A", "B"), ("B", "C"), ("C", "D")])
    with pytest.raises(NoGoCandidateError):
        select_roles(four_node_tables(), g)


def _random_group(rng):
    """Contact tables and a connectivity graph over 2-9 members, with loads
    drawn from few values (ties) or all zero, and random missing edges."""
    ids = [f"m{k}" for k in rng.permutation(int(rng.integers(2, 10)))]
    if rng.random() < 0.2:
        loads = {m: 0.0 for m in ids}
    else:
        loads = {m: float(rng.choice([0.0, 5.0, 7.5, 20.0])) for m in ids}
    tables = {o: ContactTable(o, tuple(ContactEntry(m, 10.0, loads[m]) for m in ids if m != o)) for o in ids}
    keep = rng.uniform(0.6, 1.0)
    edges = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:] if rng.random() < keep]
    return ids, loads, tables, ConnectivityGraph(ids, edges)


def test_elect_go_agrees_with_select_roles():
    rng = np.random.default_rng(5)
    outcomes = {"tie": 0, "zero": 0, "restricted": 0, "none": 0}
    for _ in range(400):
        ids, loads, tables, graph = _random_group(rng)
        hubs = [graph.reaches_all(m, ids) for m in ids]
        try:
            roles = select_roles(tables, graph)
        except NoGoCandidateError:
            with pytest.raises(NoGoCandidateError):
                elect_go(ids, [loads[m] for m in ids], hubs)
            outcomes["none"] += 1
            continue
        go = elect_go(ids, [loads[m] for m in ids], hubs)
        assert roles == {m: ("go" if m == go else "client") for m in ids}
        top = max(loads[m] for m, hub in zip(ids, hubs) if hub)
        outcomes["tie"] += sum(loads[m] == top for m, hub in zip(ids, hubs) if hub) > 1
        outcomes["zero"] += top == 0.0
        outcomes["restricted"] += not all(hubs)
    assert min(outcomes.values()) >= 10, outcomes


def test_select_roles_matches_the_scan_per_member():
    """One pass over the tables elects what a scan per member elects:
    each member's load is its entry in the first peer table holding it.
    The tables carry self entries, repeated and unknown ids, and loads that
    differ between tables, so which table is first decides elections."""
    rng = np.random.default_rng(35)
    outcomes = {"go": 0, "none": 0, "self": 0, "disputed": 0}
    for _ in range(2000):
        members = [f"m{k}" for k in rng.permutation(int(rng.integers(1, 7)))]
        pool = members + ["x"]
        tables = {}
        for o in members:
            size = int(rng.integers(0, 8))
            tables[o] = ContactTable(o, tuple(ContactEntry(pool[i], 10.0, load) for i, load in zip(
                rng.integers(0, len(pool), size).tolist(), rng.choice([0.0, 5.0, 9.0], size).tolist())))
        keep = rng.uniform(0.5, 1.0)
        graph = ConnectivityGraph(members, [(a, b) for i, a in enumerate(members) for b in members[i + 1:]
                                            if rng.random() < keep])
        try:
            expected = support.reference_select_roles(tables, graph)
        except NoGoCandidateError:
            with pytest.raises(NoGoCandidateError):
                select_roles(tables, graph)
            outcomes["none"] += 1
        else:
            assert select_roles(tables, graph) == expected
            outcomes["go"] += 1
        held = [(e.id, e.data_size) for o, t in tables.items() for e in t.entries if e.id != o]
        outcomes["self"] += any(e.id == o for o, t in tables.items() for e in t.entries)
        outcomes["disputed"] += len(set(held)) > len(dict(held))
    assert min(outcomes.values()) >= 100, outcomes


def test_elect_go_ignores_member_order():
    ids, loads, hubs = ["c", "a", "b", "d"], [5.0, 5.0, 9.0, 9.0], [True, True, False, True]
    assert elect_go(ids, loads, hubs) == "d"
    assert elect_go(ids[::-1], loads[::-1], hubs[::-1]) == "d"
    assert elect_go(ids, [5.0, 5.0, 9.0, 1.0], hubs) == "a"


def test_loads_within_1e_9_of_the_largest_tie_to_the_smallest_id():
    # a running sum left n2 one ulp short of n4's 20 mb: exact arithmetic
    # ties them, so n2 wins
    assert elect_go(["n2", "n4"], [math.nextafter(20.0, 0.0), 20.0], [True, True]) == "n2"
    assert elect_go(["n4", "n2"], [20.0, 20.0 * (1 - 0.5e-9)], [True, True]) == "n2"
    assert elect_go(["n2", "n4"], [20.0 * (1 - 2e-9), 20.0], [True, True]) == "n4"
    assert elect_go(["n2", "n4"], [math.nextafter(20.0, 0.0), 20.0], [False, True]) == "n4"
    assert elect_go(["n1", "n2", "n4"], [math.nan, 19.99999999999, 20.0], [True, True, True]) == "n2"


def test_transmission_mode_by_group_size():
    assert select_transmission_mode(2) == MODE_UNICAST_PAIR
    assert select_transmission_mode(3) == MODE_GO_COORDINATED
    assert select_transmission_mode(7) == MODE_GO_COORDINATED
    with pytest.raises(ValueError):
        select_transmission_mode(1)


# ---------------------------------------------------------------------------
# slot sizing and the round-robin schedule


def test_slot_sizes_on_reference_allocation(table1):
    alloc, _ = gnbs_allocate(table1)
    whole, upload, broadcast = slot_sizes(alloc.broadcast_time, table1.betas, t_slot=0.02)
    np.testing.assert_allclose(whole, [0.02, 0.02, 0.02, 0.04, 0.02, 0.02], atol=1e-12)
    np.testing.assert_allclose(upload, [0.01, 0.01, 0.01, 0.0, 0.01, 0.01], atol=1e-12)
    np.testing.assert_allclose(broadcast, [0.01, 0.01, 0.01, 0.04, 0.01, 0.01], atol=1e-12)


def test_slot_ratios_track_weighted_shares(table1):
    alloc, _ = gnbs_allocate(table1)
    whole, _, _ = slot_sizes(alloc.broadcast_time, table1.betas, t_slot=0.02)
    w = (1.0 + table1.betas) * alloc.broadcast_time
    for i in range(6):
        for j in range(6):
            assert whole[i] / whole[j] == pytest.approx(w[i] / w[j], abs=1e-9)


def test_slot_sizes_reject_zero_share(table1):
    alloc, _ = gnbs_allocate(table1)
    crippled = alloc.broadcast_time.copy()
    crippled[2] = 0.0
    with pytest.raises(ScheduleError):
        slot_sizes(crippled, table1.betas, 0.02)
    for t_slot in (0.0, -0.02, math.nan, math.inf):
        with pytest.raises(ScheduleError, match="t_slot must be > 0 and finite"):
            slot_sizes(alloc.broadcast_time, table1.betas, t_slot)


def test_slot_sizes_reject_a_largest_slot_that_overflows(table1):
    """The largest slot is the basic slot times the largest share over the
    smallest; where that overflows, the slots would hold inf and NaN."""
    alloc, _ = gnbs_allocate(table1)
    weighted = (1.0 + table1.betas) * alloc.broadcast_time
    ratio = float(weighted.max()) / float(weighted.min())
    whole, _, _ = slot_sizes(alloc.broadcast_time, table1.betas, 1e308 / ratio)
    assert np.isfinite(whole).all()
    with pytest.raises(ScheduleError, match=rf"^the largest slot, {ratio:g} basic slots of 1e\+308s, overflows$"):
        slot_sizes(alloc.broadcast_time, table1.betas, 1e308)
    with pytest.raises(ScheduleError, match="the largest slot, inf basic slots"):
        slot_sizes(np.array([5e-324, 1.0]), np.zeros(2), 0.02)


#: table1's cycle order: the clients in id order, the GO n4 last
_TABLE1_ORDER = ["n1", "n2", "n3", "n5", "n6", "n4"]


def _legs(slots, order):
    """The (id, upload, broadcast) legs of a slot table in cycle ``order``."""
    return [(i, *slots[i]) for i in order]


def _table1_slots(table1):
    alloc, _ = gnbs_allocate(table1)
    whole, upload, broadcast = slot_sizes(alloc.broadcast_time, table1.betas, t_slot=0.02)
    ids = [p.id for p in table1.players]
    return {i: (u, b) for i, u, b in zip(ids, upload, broadcast)}


def test_schedule_cycle_and_truncation(table1):
    sched = build_schedule(_legs(_table1_slots(table1), _TABLE1_ORDER), interval=10.0)
    assert sched.cycle_length == pytest.approx(0.14, abs=1e-12)
    # 71 full 0.14s cycles fit in 10s, the 72nd is cut off mid-cycle
    entries = tuple(sched.entries)
    assert len(sched.entries) == len(entries) == 71 * 11 + 6
    assert entries[-1].start + entries[-1].duration == pytest.approx(10.0, abs=1e-9)
    total = sum(e.duration for e in entries)
    assert total == pytest.approx(10.0, abs=1e-9)


def test_schedule_entries_are_contiguous(table1):
    sched = build_schedule(_legs(_table1_slots(table1), _TABLE1_ORDER), 10.0)
    entries = tuple(sched.entries)
    for prev, cur in zip(entries, entries[1:]):
        assert cur.start == pytest.approx(prev.start + prev.duration, abs=1e-9)
        assert cur.duration > 0


def test_schedule_truncates_final_slot(table1):
    last = tuple(build_schedule(_legs(_table1_slots(table1), _TABLE1_ORDER), 9.995).entries)[-1]
    assert last.duration == pytest.approx(0.005, abs=1e-9)
    assert last.start + last.duration == pytest.approx(9.995, abs=1e-9)


def test_printed_slots_are_the_slots_the_replay_runs():
    """24 members with 1 ms broadcast legs over exactly 2,000 cycles: the
    print holds 48,000 slots and ends with n23's, and each member's printed
    seconds add up to what ``leg_seconds`` gives its leg.  A running sum
    over the slots falls short of 48 s and printed a 48,001st slot of
    2.1e-11 s that the replay never ran."""
    members = [f"n{k}" for k in range(24)]
    sched = build_schedule([(m, 0.0, 1e-3) for m in members], 48.0)
    entries = tuple(sched.entries)
    assert len(entries) == 48_000
    assert entries[-1].node == "n23"
    printed = dict.fromkeys(members, 0.0)
    for e in entries:
        printed[e.node] += e.duration
    for (node, _, _), seconds in zip(sched.pattern, sched.leg_seconds(math.inf)):
        assert math.isclose(printed[node], seconds, rel_tol=1e-12)


def test_upload_precedes_broadcast_per_client(table1):
    sched = build_schedule(_legs(_table1_slots(table1), _TABLE1_ORDER), 10.0)
    first_cycle = tuple(sched.entries)[:11]
    kinds = [(e.node, e.kind) for e in first_cycle]
    assert kinds[:4] == [("n1", "upload"), ("n1", "broadcast"), ("n2", "upload"), ("n2", "broadcast")]
    assert kinds[-1] == ("n4", "broadcast")


def _random_cycle(rng):
    ids = [f"n{i}" for i in range(int(rng.integers(1, 7)))]
    go = ids[int(rng.integers(len(ids)))]
    slots = {
        i: (0.0 if i == go or rng.random() < 0.2 else float(rng.uniform(1e-3, 0.1)),
            float(rng.uniform(1e-3, 0.1)))
        for i in ids
    }
    return _legs(slots, sorted(ids, key=go.__eq__))


def test_schedule_entries_match_slot_by_slot_reference(rng):
    """The printed slots are those of adding one slot at a time: the same
    nodes and kinds, with starts and durations within 1e-13 of the
    schedule's end.  The reference's running sum drifts, so where its last
    start and the cycle arithmetic fall on opposite sides of the 1e-12 s
    cut, one of the two has one more trailing slot, shorter than 2e-12 s."""
    seen = set()
    for _ in range(150):
        legs = _random_cycle(rng)
        t_start = float(rng.choice([0.0, rng.uniform(0.0, 100.0)]))
        probe = build_schedule(legs, 1.0, t_start)
        cycle = probe.cycle_length
        boundaries = support.reference_entries(probe.pattern, 50 * cycle, t_start)
        j = int(rng.integers(len(boundaries)))
        intervals = {
            "random": float(rng.uniform(cycle, 50 * cycle)),
            "multiple": int(rng.integers(1, 50)) * cycle,
            "boundary": boundaries[j].start + boundaries[j].duration - t_start,
            "stop": boundaries[j].start + boundaries[j].duration - t_start + 5e-13,
            "cut": boundaries[j].start + 0.5 * boundaries[j].duration - t_start,
        }
        for interval in intervals.values():
            if interval < cycle:
                continue
            sched = build_schedule(legs, interval, t_start)
            expected = support.reference_entries(sched.pattern, interval, t_start)
            end = t_start + interval
            entries = tuple(sched.entries)
            n = min(len(entries), len(expected))
            for extra in (entries[n:], expected[n:]):
                assert len(extra) <= 1 and all(e.duration < 2e-12 for e in extra)
            got, want = entries[:n], expected[:n]
            assert [(e.node, e.kind) for e in got] == [(e.node, e.kind) for e in want]
            for field in ("start", "duration"):
                error = max(abs(getattr(a, field) - getattr(b, field)) for a, b in zip(got, want))
                assert error <= 1e-13 * end
            last, leg = expected[-1], sched.pattern[(len(expected) - 1) % len(sched.pattern)][2]
            if last.duration < leg:
                seen.add("truncated")
            elif last.start + last.duration < end - 1e-12:
                raise AssertionError("the reference stops only at a cut or at the end")
            elif last.start + last.duration < end:
                seen.add("1e-12 stop")
            else:
                seen.add("whole")
    assert seen == {"truncated", "1e-12 stop", "whole"}


def test_schedule_rejects_degenerate_cycles(table1):
    slots = _table1_slots(table1)
    legs = _legs(slots, _TABLE1_ORDER)
    with pytest.raises(ScheduleError, match="finite"):
        build_schedule(legs, float("inf"))
    for interval in (0.0, -1.0):
        with pytest.raises(ScheduleError, match="interval must be > 0"):
            build_schedule(legs, interval)
    with pytest.raises(ScheduleError, match="empty"):
        build_schedule([], 10.0)
    with pytest.raises(ScheduleError, match="invalid slot sizes"):
        build_schedule(_legs({**slots, "n1": (0.01, float("nan"))}, _TABLE1_ORDER), 10.0)


def test_cycle_must_fit_interval(table1):
    with pytest.raises(ScheduleError):
        build_schedule(_legs(_table1_slots(table1), _TABLE1_ORDER), 0.1)


def test_slot_count_is_bounded(monkeypatch):
    """The slot count is cycle arithmetic and builds no slot, so only the
    float spacing bounds it: 2 * 2**22 slots count exactly, and 513 members,
    one with a leg at the spacing and 1,024 legs far shorter, count past
    ``sys.maxsize``, which ``len()`` cannot return.  A leg below the spacing
    is rejected."""
    monkeypatch.setattr(grouping, "SlotEntry", None)
    sched = build_schedule([("go", 0.0, 0.5 / 2**22)], 1.0)
    assert sched.leg_seconds(1.0) == [1.0]
    assert len(sched.entries) == 2 * 2**22
    members = [f"n{k:03d}" for k in range(513)]
    slots = {**{m: (1e-300, 1e-300) for m in members[:-1]}, members[-1]: (0.0, math.ulp(1.999))}
    entries = build_schedule(_legs(slots, members), 1.999).entries
    assert entries.count > sys.maxsize
    with pytest.raises(OverflowError):
        len(entries)
    with pytest.raises(ScheduleError, match="below the float spacing"):
        build_schedule([("go", 0.0, 5e-324)], 1.0)
    monkeypatch.undo()
    # 4 whole cycles of 2 legs and the first leg of the cut cycle: 9 slots
    entries = tuple(build_schedule([("go", 0.1, 0.15)], 1.1).entries)
    assert len(entries) == 9 and entries[-1].kind == "upload"


def test_sums_add_left_to_right_on_every_python():
    # sum() over floats is compensated from Python 3.12 on and would give
    # 1.0 here; the schedule and the relay cost add strictly in order
    schedule = build_schedule([(f"n{i}", 0.0, 0.1) for i in range(10)], 5.0)
    assert schedule.cycle_length == 0.9999999999999999
    loads = {"go": 0.0, **{f"n{i}": 0.1 for i in range(10)}}
    assert total_broadcast_time(loads, "go", 2.0) == 0.9999999999999999
