import numpy as np
import pytest

import support
from airfair.bargaining import gnbs_allocate
from airfair.grouping import (
    MAX_SLOTS,
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
    allocation_interval,
    build_schedule,
    default_cycle_order,
    elect_go,
    schedule_csv_rows,
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
    assert t.entry_for("B").pcd == 12.0


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


def test_entry_for_missing_member():
    with pytest.raises(KeyError):
        ContactTable("A").entry_for("B")


# ---------------------------------------------------------------------------
# connectivity and role selection


def test_reaches_all_and_restriction():
    g = four_node_graph()
    members = list("ABCD")
    assert g.reaches_all("A", members)
    assert g.reaches_all("C", members)
    assert not g.reaches_all("B", members)


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        ConnectivityGraph("AB").add_edge("A", "A")


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
    roles = select_roles(tables, ConnectivityGraph.complete(loads))
    assert roles["A"] == "go"


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


def test_elect_go_ignores_member_order():
    ids, loads, hubs = ["c", "a", "b", "d"], [5.0, 5.0, 9.0, 9.0], [True, True, False, True]
    assert elect_go(ids, loads, hubs) == "d"
    assert elect_go(ids[::-1], loads[::-1], hubs[::-1]) == "d"
    assert elect_go(ids, [5.0, 5.0, 9.0, 1.0], hubs) == "a"


def test_allocation_interval_is_min_pcd():
    table = ContactTable(
        "go",
        (ContactEntry("a", 5.0, 1.0), ContactEntry("b", 8.0, 1.0), ContactEntry("c", 12.0, 1.0)),
    )
    assert allocation_interval(table, "go") == 5.0
    with pytest.raises(ValueError):
        allocation_interval(table, "a")
    with pytest.raises(ValueError):
        allocation_interval(ContactTable("go"), "go")


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
    whole, upload, broadcast = slot_sizes(alloc, table1.betas, t_slot=0.02)
    np.testing.assert_allclose(whole, [0.02, 0.02, 0.02, 0.04, 0.02, 0.02], atol=1e-12)
    np.testing.assert_allclose(upload, [0.01, 0.01, 0.01, 0.0, 0.01, 0.01], atol=1e-12)
    np.testing.assert_allclose(broadcast, [0.01, 0.01, 0.01, 0.04, 0.01, 0.01], atol=1e-12)


def test_slot_ratios_track_weighted_shares(table1):
    alloc, _ = gnbs_allocate(table1)
    whole, _, _ = slot_sizes(alloc, table1.betas, t_slot=0.02)
    w = (1.0 + table1.betas) * alloc.broadcast_time
    for i in range(6):
        for j in range(6):
            assert whole[i] / whole[j] == pytest.approx(w[i] / w[j], abs=1e-9)


def test_slot_sizes_reject_zero_share(table1):
    alloc, _ = gnbs_allocate(table1)
    crippled = alloc.broadcast_time.copy()
    crippled[2] = 0.0
    from airfair import Allocation

    with pytest.raises(ScheduleError):
        slot_sizes(Allocation(crippled, crippled * table1.betas, False), table1.betas, 0.02)


def test_default_cycle_order_puts_go_last():
    assert default_cycle_order(["n2", "n4", "n1"], "n2") == ["n1", "n4", "n2"]


def _table1_slots(table1):
    alloc, _ = gnbs_allocate(table1)
    whole, upload, broadcast = slot_sizes(alloc, table1.betas, t_slot=0.02)
    ids = [p.id for p in table1.players]
    return {i: (u, b) for i, u, b in zip(ids, upload, broadcast)}


def test_schedule_cycle_and_truncation(table1):
    slots = _table1_slots(table1)
    order = default_cycle_order(slots, "n4")
    sched = build_schedule(slots, interval=10.0, order=order)
    assert sched.cycle_length == pytest.approx(0.14, abs=1e-12)
    # 71 full 0.14s cycles fit in 10s, the 72nd is cut off mid-cycle
    assert len(sched.entries) == 71 * 11 + 6
    assert sched.end == pytest.approx(10.0, abs=1e-9)
    total = sum(e.duration for e in sched.entries)
    assert total == pytest.approx(10.0, abs=1e-9)


def test_schedule_entries_are_contiguous(table1):
    slots = _table1_slots(table1)
    sched = build_schedule(slots, 10.0, default_cycle_order(slots, "n4"))
    for prev, cur in zip(sched.entries, sched.entries[1:]):
        assert cur.start == pytest.approx(prev.end, abs=1e-9)
        assert cur.duration > 0


def test_schedule_truncates_final_slot(table1):
    slots = _table1_slots(table1)
    sched = build_schedule(slots, 9.995, default_cycle_order(slots, "n4"))
    assert sched.entries[-1].duration == pytest.approx(0.005, abs=1e-9)
    assert sched.end == pytest.approx(9.995, abs=1e-9)


def test_upload_precedes_broadcast_per_client(table1):
    slots = _table1_slots(table1)
    sched = build_schedule(slots, 10.0, default_cycle_order(slots, "n4"))
    first_cycle = sched.entries[:11]
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
    return slots, default_cycle_order(ids, go)


def _entry_bits(entries):
    return [(e.node, e.kind, *support.float_bits((e.start, e.duration))) for e in entries]


def test_schedule_entries_match_slot_by_slot_reference(rng):
    """The slot arrays are running sums; they must give exactly the floats,
    signs of zero included, of adding one slot at a time."""
    seen = set()
    for _ in range(150):
        slots, order = _random_cycle(rng)
        t_start = float(rng.choice([0.0, rng.uniform(0.0, 100.0)]))
        probe = build_schedule(slots, 1.0, order, t_start)
        cycle = probe.cycle_length
        boundaries = support.reference_entries(probe.pattern, 50 * cycle, t_start)
        j = int(rng.integers(len(boundaries)))
        intervals = {
            "random": float(rng.uniform(cycle, 50 * cycle)),
            "multiple": int(rng.integers(1, 50)) * cycle,
            "boundary": boundaries[j].end - t_start,
            "stop": boundaries[j].end - t_start + 5e-13,
            "cut": boundaries[j].start + 0.5 * boundaries[j].duration - t_start,
        }
        for interval in intervals.values():
            if interval < cycle:
                continue
            sched = build_schedule(slots, interval, order, t_start)
            expected = support.reference_entries(sched.pattern, interval, t_start)
            assert _entry_bits(sched.entries) == _entry_bits(expected)
            assert float(sched.end).hex() == float(expected[-1].end).hex()
            last, leg = expected[-1], sched.pattern[(len(expected) - 1) % len(sched.pattern)][2]
            end = t_start + interval
            if last.duration < leg:
                seen.add("truncated")
            elif last.end < end - 1e-12:
                raise AssertionError("the reference stops only at a cut or at the end")
            elif last.end < end:
                seen.add("1e-12 stop")
            else:
                seen.add("whole")
    assert seen == {"truncated", "1e-12 stop", "whole"}


def test_schedule_rejects_degenerate_cycles(table1):
    slots = _table1_slots(table1)
    order = default_cycle_order(slots, "n4")
    with pytest.raises(ScheduleError, match="finite"):
        build_schedule(slots, float("inf"), order)
    with pytest.raises(ScheduleError, match="empty"):
        build_schedule(slots, 10.0, [])
    with pytest.raises(ScheduleError, match="invalid slot sizes"):
        build_schedule({**slots, "n1": (0.01, float("nan"))}, 10.0, order)


def test_cycle_must_fit_interval(table1):
    slots = _table1_slots(table1)
    with pytest.raises(ScheduleError):
        build_schedule(slots, 0.1, default_cycle_order(slots, "n4"))


def test_slot_count_is_bounded():
    # exactly MAX_SLOTS slots fit; half the slot size, or a size so small
    # that interval / cycle overflows to inf, does not
    assert build_schedule({"go": (0.0, 1.0 / MAX_SLOTS)}, 1.0, ["go"]).cycle_length == 1.0 / MAX_SLOTS
    for size in (0.5 / MAX_SLOTS, 5e-324):
        with pytest.raises(ScheduleError, match=f"more than {MAX_SLOTS} slots"):
            build_schedule({"go": (0.0, size)}, 1.0, ["go"])


def test_schedule_csv_shape(table1):
    slots = _table1_slots(table1)
    sched = build_schedule(slots, 0.2, default_cycle_order(slots, "n4"), t_start=4.0)
    rows = schedule_csv_rows(sched)
    assert rows[0] == "node_id,kind,start_s,duration_s"
    assert rows[1] == "n1,upload,4.000000,0.010000"
    assert len(rows) == 1 + len(sched.entries)


def test_sums_add_left_to_right_on_every_python():
    # sum() over floats is compensated from Python 3.12 on and would give
    # 1.0 here; the schedule and the relay cost add strictly in order
    slots = {f"n{i}": (0.0, 0.1) for i in range(10)}
    schedule = build_schedule(slots, 5.0, sorted(slots))
    assert schedule.cycle_length == 0.9999999999999999
    loads = {"go": 0.0, **{f"n{i}": 0.1 for i in range(10)}}
    assert total_broadcast_time(loads, "go", 2.0) == 0.9999999999999999
