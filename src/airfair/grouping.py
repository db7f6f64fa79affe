"""Group formation and slotted scheduling around a group owner.

Nodes that meet exchange a contact profile: who else is reachable, for how
long (the predicted contact duration, PCD), and how much data each peer has
queued.  Every node keeps a contact table with one entry per other member;
join and leave events update it.  The group owner (GO) is picked among the
nodes that reach everyone as the one with the most queued data, because
relaying its traffic costs the group the least total broadcast time;
:func:`elect_go` holds that rule on plain per-member loads and reachability,
and :func:`select_roles` applies it to contact tables.

Once airtime has been allocated, transmission is organized in a round-robin
slot cycle: each client gets an upload slot immediately followed by its
broadcast slot (the GO relays), the GO gets a plain broadcast slot, and the
cycle repeats until the interval ends, truncating the final cycle mid-slot.
Slot widths scale a basic slot so that every node's whole-slot share matches
its allocated share of channel time.  A :class:`Schedule` stores only the
cycle; its slots are derived on demand, as arrays from one running sum over
the repeated cycle, or as :class:`SlotEntry` objects for printing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bargaining import Allocation, left_sum

__all__ = [
    "ContactEntry",
    "ContactTable",
    "Join",
    "Leave",
    "SelfLeave",
    "update_contact_table",
    "ConnectivityGraph",
    "NoGoCandidateError",
    "ScheduleError",
    "elect_go",
    "select_roles",
    "total_broadcast_time",
    "allocation_interval",
    "select_transmission_mode",
    "MODE_UNICAST_PAIR",
    "MODE_GO_COORDINATED",
    "slot_sizes",
    "SlotEntry",
    "Schedule",
    "build_schedule",
    "MAX_SLOTS",
    "default_cycle_order",
    "schedule_csv_rows",
]

MODE_UNICAST_PAIR = "unicast-pair"
MODE_GO_COORDINATED = "go-coordinated"

#: most slots one schedule may hold; :attr:`Schedule.slot_arrays` builds an
#: array entry per slot
MAX_SLOTS = 2**22


class NoGoCandidateError(RuntimeError):
    """No member is adjacent to every other member."""


class ScheduleError(ValueError):
    """A schedule cannot be built from the given slots and interval."""


@dataclass(frozen=True)
class ContactEntry:
    id: str
    pcd: float          # predicted remaining contact duration, seconds
    data_size: float    # megabits the peer has queued


@dataclass(frozen=True)
class ContactTable:
    """One node's view of the group: an entry per other current member."""

    owner: str
    entries: tuple[ContactEntry, ...] = ()

    def member_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.entries)

    def entry_for(self, node_id: str) -> ContactEntry:
        for e in self.entries:
            if e.id == node_id:
                return e
        raise KeyError(node_id)


@dataclass(frozen=True)
class Join:
    id: str
    pcd: float
    data_size: float


@dataclass(frozen=True)
class Leave:
    id: str


@dataclass(frozen=True)
class SelfLeave:
    pass


def update_contact_table(table: ContactTable, event) -> ContactTable:
    """Apply a membership event and return the updated table.

    Joins append an entry (duplicate ids rejected), leaves remove one
    (unknown ids rejected), and a self-leave empties the table.
    """
    if isinstance(event, Join):
        if event.id == table.owner or event.id in table.member_ids():
            raise ValueError(f"duplicate join for {event.id!r}")
        return ContactTable(table.owner, table.entries + (ContactEntry(event.id, event.pcd, event.data_size),))
    if isinstance(event, Leave):
        if event.id not in table.member_ids():
            raise ValueError(f"leave for unknown member {event.id!r}")
        return ContactTable(table.owner, tuple(e for e in table.entries if e.id != event.id))
    if isinstance(event, SelfLeave):
        return ContactTable(table.owner, ())
    raise TypeError(f"unknown event {event!r}")


class ConnectivityGraph:
    """Undirected reachability between nodes (symmetric, no self loops)."""

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        self.nodes = set(nodes)
        self.adjacency: dict[str, set[str]] = {n: set() for n in self.nodes}
        for a, b in edges:
            self.add_edge(a, b)

    def add_edge(self, a: str, b: str) -> None:
        if a == b:
            raise ValueError("self loops are not allowed")
        for n in (a, b):
            if n not in self.nodes:
                self.nodes.add(n)
                self.adjacency[n] = set()
        self.adjacency[a].add(b)
        self.adjacency[b].add(a)

    @classmethod
    def complete(cls, nodes: Iterable[str]) -> "ConnectivityGraph":
        nodes = list(nodes)
        return cls(nodes, [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]])

    def reaches_all(self, node: str, members: Iterable[str]) -> bool:
        others = set(members) - {node}
        return others <= self.adjacency.get(node, set())


def elect_go(members: Sequence[str], loads: Sequence[float], hubs: Sequence[bool]) -> str:
    """The GO: among the members that reach every other member
    (``hubs[k]`` for ``members[k]``), the one with the largest queued load;
    ties go to the smallest id.  A NaN load never wins; with no member left
    to choose, raises :class:`NoGoCandidateError`."""
    go, go_load = None, -math.inf
    for m, load, hub in sorted(zip(members, loads, hubs)):
        if hub and load > go_load:
            go, go_load = m, load
    if go is None:
        raise NoGoCandidateError("no member reaches every other member")
    return go


def select_roles(tables: Mapping[str, ContactTable], graph: ConnectivityGraph) -> dict[str, str]:
    """Pick the GO by :func:`elect_go`, reading each member's load off the
    peers' table entries.  Returns a role per member id ("go" or
    "client")."""
    members = sorted(tables)

    def load_of(m: str) -> float:
        for other, table in tables.items():
            if other == m:
                continue
            try:
                return table.entry_for(m).data_size
            except KeyError:
                continue
        return 0.0

    go = elect_go(members, [load_of(m) for m in members], [graph.reaches_all(m, members) for m in members])
    return {m: ("go" if m == go else "client") for m in members}


def total_broadcast_time(loads: Mapping[str, float], go_candidate: str, rate: float) -> float:
    """Channel seconds to disseminate everything if ``go_candidate`` relays:
    its own load goes out once, every client load is uploaded then relayed."""
    if go_candidate not in loads:
        raise KeyError(go_candidate)
    if not (rate > 0):
        raise ValueError("rate must be > 0")
    total = loads[go_candidate] + 2.0 * left_sum(v for k, v in loads.items() if k != go_candidate)
    return float(total / rate)


def allocation_interval(table: ContactTable, go_id: str) -> float:
    """Allocation horizon: the smallest PCD between the GO and any member."""
    if table.owner != go_id:
        raise ValueError(f"need the GO's own table, got {table.owner!r}")
    if not table.entries:
        raise ValueError("no members to allocate for")
    return float(min(e.pcd for e in table.entries))


def select_transmission_mode(group_size: int) -> str:
    """Two nodes talk directly (no relay, no upload slots); three or more
    go through the GO."""
    if group_size < 2:
        raise ValueError("transmission needs at least two nodes")
    return MODE_UNICAST_PAIR if group_size == 2 else MODE_GO_COORDINATED


def slot_sizes(allocation: Allocation, betas: np.ndarray, t_slot: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whole, upload, and broadcast slot seconds per player.

    The player with the smallest channel-time share gets one basic slot of
    ``t_slot`` seconds; everyone else scales proportionally.  Each whole slot
    splits into the upload leg (fraction beta/(1+beta)) and the broadcast
    leg.  Zero allocations must be dropped by the caller first.
    """
    if not (t_slot > 0):
        raise ScheduleError("t_slot must be > 0")
    x = np.asarray(allocation.broadcast_time, dtype=float)
    betas = np.asarray(betas, dtype=float)
    weighted = (1.0 + betas) * x
    if x.size == 0 or weighted.min() <= 0:
        raise ScheduleError("every scheduled player needs a positive allocation")
    whole = weighted / weighted.min() * t_slot
    upload = betas / (1.0 + betas) * whole
    broadcast = whole / (1.0 + betas)
    return whole, upload, broadcast


@dataclass(frozen=True)
class SlotEntry:
    node: str
    kind: str            # "upload" or "broadcast"
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True, eq=False)
class Schedule:
    """The round-robin slot cycle repeated over (part of) an allocation
    interval.

    Only the cycle ``pattern`` of (node, kind, seconds) legs, the interval,
    the cycle length and the start time are stored.  The slots themselves
    are derived on demand: :attr:`slot_arrays` gives them as arrays for the
    simulator's replay, and :attr:`entries` as :class:`SlotEntry` objects for
    printing and inspection.
    """

    pattern: tuple[tuple[str, str, float], ...]
    interval: float
    cycle_length: float
    t_start: float

    @cached_property
    def slot_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Start and duration of every slot, in time order; slot k plays
        leg ``k % len(pattern)``.

        Starts are a running sum over the repeated legs.  ``np.cumsum`` adds
        strictly in sequence, so every start is the same float that adding
        the slots one at a time gives.  The slots stop at the first start
        within 1e-12 s of the interval's end, or after the first leg that
        overruns it, which is cut to end exactly there.
        """
        legs = np.array([dur for _, _, dur in self.pattern], dtype=float)
        end = self.t_start + self.interval
        cycles = int(self.interval // self.cycle_length) + 2
        while True:
            tiled = np.tile(legs, cycles)
            starts = np.cumsum(np.concatenate(([self.t_start], tiled[:-1])))
            done = starts >= end - 1e-12
            cut = tiled > end - starts
            stops = np.flatnonzero(done | cut)
            if stops.size:
                break
            cycles *= 2    # rounding kept the last start short of the end
        n = int(stops[0])
        if done[n]:
            return starts[:n], tiled[:n]
        durations = tiled[:n + 1]
        durations[n] = end - starts[n]
        return starts[:n + 1], durations

    @cached_property
    def entries(self) -> tuple[SlotEntry, ...]:
        """The slots as :class:`SlotEntry` objects, built on first use."""
        starts, durations = self.slot_arrays
        legs = len(self.pattern)
        return tuple(
            SlotEntry(*self.pattern[k % legs][:2], start, duration)
            for k, (start, duration) in enumerate(zip(starts.tolist(), durations.tolist()))
        )

    @property
    def end(self) -> float:
        starts, durations = self.slot_arrays
        return float(starts[-1] + durations[-1]) if starts.size else self.t_start


def default_cycle_order(ids: Iterable[str], go_id: str) -> list[str]:
    """Clients in ascending id order, GO last."""
    ids = list(ids)
    return sorted(i for i in ids if i != go_id) + ([go_id] if go_id in ids else [])


def build_schedule(slots: Mapping[str, tuple[float, float]], interval: float,
                   order: Sequence[str], t_start: float = 0.0) -> Schedule:
    """Repeat the slot cycle in ``order`` from ``t_start`` until the interval
    ends, truncating the final cycle mid-slot.

    ``slots`` maps node id to (upload seconds, broadcast seconds) per cycle;
    a zero upload leg emits no upload slot.  Raises :class:`ScheduleError`
    when a single cycle does not fit the interval, the interval is not
    finite, or the schedule would hold more than :data:`MAX_SLOTS` slots.
    Only the cycle is built here; the returned schedule derives its slots
    when they are first asked for.
    """
    if not (interval > 0):
        raise ScheduleError("interval must be > 0")
    if math.isinf(interval):
        raise ScheduleError("interval must be finite")
    pattern: list[tuple[str, str, float]] = []
    for node in order:
        up, down = slots[node]
        if not (up >= 0 and down > 0):
            raise ScheduleError(f"invalid slot sizes for {node!r}")
        if up > 0:
            pattern.append((node, "upload", up))
        pattern.append((node, "broadcast", down))
    if not pattern:
        raise ScheduleError("the slot cycle is empty")
    cycle = left_sum(d for _, _, d in pattern)
    if cycle > interval:
        raise ScheduleError(f"one cycle ({cycle:.6f}s) exceeds the interval ({interval:.6f}s)")
    if len(pattern) * interval / cycle > MAX_SLOTS:
        raise ScheduleError(f"the schedule would hold more than {MAX_SLOTS} slots "
                            f"(cycle {cycle:.3g}s, interval {interval:.6f}s)")
    return Schedule(tuple(pattern), float(interval), cycle, t_start)


def schedule_csv_rows(schedule: Schedule) -> list[str]:
    """Serialize a schedule as CSV lines (header first, 6-decimal fields)."""
    rows = ["node_id,kind,start_s,duration_s"]
    for e in schedule.entries:
        rows.append(f"{e.node},{e.kind},{e.start:.6f},{e.duration:.6f}")
    return rows
