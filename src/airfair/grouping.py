"""Group formation and slotted scheduling around a group owner.

Nodes that meet exchange a contact profile: who else is reachable, for how
long (the predicted contact duration, PCD), and how much data each peer has
queued.  Every node keeps a contact table with one entry per other member;
join and leave events update it.  The group owner (GO) is picked among the
nodes that reach everyone as the one with the most queued data, because
relaying its traffic costs the group the least total broadcast time;
:func:`elect_go` holds that rule and its tie rule on plain per-member loads
and reachability, and :func:`select_roles` applies it to contact tables.

Once airtime has been allocated, transmission is organized in a round-robin
slot cycle: each client gets an upload slot immediately followed by its
broadcast slot (the GO relays), the GO gets a plain broadcast slot, and the
cycle repeats until the interval ends, truncating the final cycle mid-slot.
:func:`build_schedule` lays the legs out in the order it is given; the
simulator decides that order (clients in id order, the GO last).
Slot widths scale a basic slot so that every node's whole-slot share matches
its allocated share of channel time.  A :class:`Schedule` stores only the
cycle, and one rule of cycle arithmetic places its slots: the seconds each
leg runs, which the simulator's replay reads, and the :class:`SlotEntry`
objects printed for it come from the same whole-cycle count and cut cycle.
The slots are counted without building one, and built one at a time as
they are printed, so printing holds one slot in memory at any count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .bargaining import ROLE_CLIENT, ROLE_GO, left_sum

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
    "select_transmission_mode",
    "MODE_UNICAST_PAIR",
    "MODE_GO_COORDINATED",
    "slot_sizes",
    "SlotEntry",
    "Schedule",
    "build_schedule",
]

MODE_UNICAST_PAIR = "unicast-pair"
MODE_GO_COORDINATED = "go-coordinated"


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
    """Undirected reachability between nodes (symmetric, no self loops).

    Raises ValueError at the first edge that names a node not in ``nodes``
    or joins a node to itself, checked in that order."""

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        self.adjacency: dict[str, set[str]] = {n: set() for n in nodes}
        for a, b in edges:
            if a not in self.adjacency or b not in self.adjacency:
                raise ValueError(f"connectivity edge ({a!r}, {b!r}) names unknown nodes")
            if a == b:
                raise ValueError(f"connectivity edge ({a!r}, {b!r}) is a self loop")
            self.adjacency[a].add(b)
            self.adjacency[b].add(a)

    def reaches_all(self, node: str, members: Iterable[str]) -> bool:
        others = set(members) - {node}
        return others <= self.adjacency.get(node, set())


def elect_go(members: Sequence[str], loads: Sequence[float], hubs: Sequence[bool]) -> str:
    """The GO: among the members that reach every other member
    (``hubs[k]`` for ``members[k]``), the one with the largest queued load.

    Tie rule: loads within 1e-9 relative of the largest are tied, and the
    smallest id among them wins, so an election never turns on the last
    bits of a running sum.  A NaN load never wins; with no member left to
    choose, raises :class:`NoGoCandidateError`."""
    candidates = [(m, load) for m, load, hub in zip(members, loads, hubs) if hub and load > -math.inf]
    if not candidates:
        raise NoGoCandidateError("no member reaches every other member")
    top = max(load for _, load in candidates)
    tied = top - 1e-9 * abs(top) if top < math.inf else top
    return min(m for m, load in candidates if load >= tied)


def select_roles(tables: Mapping[str, ContactTable], graph: ConnectivityGraph) -> dict[str, str]:
    """Pick the GO by :func:`elect_go`, reading each member's load off the
    peers' table entries.  Returns a role per member id, ``ROLE_GO`` or
    ``ROLE_CLIENT``."""
    members = sorted(tables)
    loads: dict[str, float] = {}
    for owner, table in tables.items():     # the first peer table holding a member gives its load
        for e in table.entries:
            if e.id != owner:
                loads.setdefault(e.id, e.data_size)
    go = elect_go(members, [loads.get(m, 0.0) for m in members], [graph.reaches_all(m, members) for m in members])
    return {m: ROLE_GO if m == go else ROLE_CLIENT for m in members}


def total_broadcast_time(loads: Mapping[str, float], go_candidate: str, rate: float) -> float:
    """Channel seconds to disseminate everything if ``go_candidate`` relays:
    its own load goes out once, every client load is uploaded then relayed."""
    if go_candidate not in loads:
        raise KeyError(go_candidate)
    if not (rate > 0):
        raise ValueError("rate must be > 0")
    total = loads[go_candidate] + 2.0 * left_sum(v for k, v in loads.items() if k != go_candidate)
    return float(total / rate)


def select_transmission_mode(group_size: int) -> str:
    """Two nodes talk directly (no relay, no upload slots); three or more
    go through the GO."""
    if group_size < 2:
        raise ValueError("transmission needs at least two nodes")
    return MODE_UNICAST_PAIR if group_size == 2 else MODE_GO_COORDINATED


def slot_sizes(broadcast_time, betas: np.ndarray, t_slot: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whole, upload, and broadcast slot seconds per player, given the
    broadcast seconds each was allocated.

    The player with the smallest channel-time share gets one basic slot of
    ``t_slot`` seconds; everyone else scales proportionally.  Each whole slot
    splits into the upload leg (fraction beta/(1+beta)) and the broadcast
    leg.  Zero allocations must be dropped by the caller first.
    """
    if not (t_slot > 0):
        raise ScheduleError("t_slot must be > 0")
    x = np.asarray(broadcast_time, dtype=float)
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


@dataclass(frozen=True, eq=False)
class Schedule:
    """The round-robin slot cycle repeated over (part of) an allocation
    interval.

    Only the cycle ``pattern`` of (node, kind, seconds) legs, the interval,
    the cycle length and the start time are stored.  Where every slot falls
    is cycle arithmetic, held by :meth:`leg_seconds`, which the simulator's
    replay reads, and by :attr:`entries`, which prints the same slots.
    """

    pattern: tuple[tuple[str, str, float], ...]
    interval: float
    cycle_length: float
    t_start: float

    def _cut(self, t1: float) -> tuple[int, list[tuple[float, float]]]:
        """K, the whole cycles run before ``t1``, and per leg its offset o
        into the cycle and its seconds in the cut cycle K, by the rule of
        :meth:`leg_seconds`."""
        span = max(min(t1, self.t_start + self.interval) - self.t_start, 0.0)
        cycles = span // self.cycle_length
        rest = span - cycles * self.cycle_length
        legs, offset = [], 0.0
        for _, _, dur in self.pattern:
            left = rest - offset
            legs.append((offset, min(dur, left) if left > 1e-12 else 0.0))
            offset += dur
        return int(cycles), legs

    def leg_seconds(self, t1: float) -> list[float]:
        """Seconds each leg of ``pattern`` runs before ``t1``.

        The schedule runs for T = min(t1, its interval's end) - t_start
        seconds, or none before it starts; K = floor(T / cycle) whole cycles
        fit, and rest = T - K * cycle.  A leg of d seconds at offset o into
        the cycle runs K * d + min(d, rest - o) seconds, but nothing of the
        cut cycle K when rest - o is 1e-12 s or less.
        """
        cycles, legs = self._cut(t1)
        return [cycles * dur + cut for (_, _, dur), (_, cut) in zip(self.pattern, legs)]

    @property
    def entries(self) -> _Slots:
        """The slots as :class:`SlotEntry` objects in time order, counted
        without building one and built one at a time as they are iterated: the
        slot of cycle c at offset o starts at t_start + (c * cycle + o), and
        the cut cycle holds the legs :meth:`leg_seconds` runs in it."""
        return _Slots(self)


class _Slots:
    """The sized iterable :attr:`Schedule.entries` returns.  ``count`` is the
    slot count as a plain int, which ``len()`` gives while it fits ``sys.maxsize``.
    No slot is shorter than ``shortest``: the shortest leg, or a shorter
    slot of the cut cycle."""

    def __init__(self, schedule: Schedule):
        self._schedule = schedule
        self._cycles, self._legs = schedule._cut(math.inf)
        self.count = self._cycles * len(schedule.pattern) + sum(seconds > 0 for _, seconds in self._legs)
        self.shortest = min([dur for _, _, dur in schedule.pattern] + [s for _, s in self._legs if s > 0])

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[SlotEntry]:
        t_start, cycle, cycles = self._schedule.t_start, self._schedule.cycle_length, self._cycles
        legs = list(zip(self._schedule.pattern, self._legs))
        for c in range(cycles):
            for (node, kind, dur), (offset, _) in legs:
                yield SlotEntry(node, kind, t_start + (c * cycle + offset), dur)
        for (node, kind, _), (offset, seconds) in legs:
            if seconds > 0:
                yield SlotEntry(node, kind, t_start + (cycles * cycle + offset), seconds)


def build_schedule(legs: Iterable[tuple[str, float, float]], interval: float, t_start: float = 0.0) -> Schedule:
    """Repeat the slot cycle of ``legs`` from ``t_start`` until the interval
    ends, truncating the final cycle mid-slot.

    ``legs`` lists (node id, upload seconds, broadcast seconds) per cycle,
    laid out in the order given; the caller decides that order.  A zero
    upload leg emits no upload slot.  Raises :class:`ScheduleError`
    when a single cycle does not fit the interval, the interval is not
    finite, or even its longest leg is shorter than the float spacing at
    the interval's end, so that floats there cannot resolve a single slot.
    Only the cycle is built here, so any number of slots is accepted, and
    the returned schedule builds a slot only when it is iterated.
    """
    if not (interval > 0):
        raise ScheduleError("interval must be > 0")
    if math.isinf(interval):
        raise ScheduleError("interval must be finite")
    pattern: list[tuple[str, str, float]] = []
    for node, up, down in legs:
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
    longest, spacing = max(d for _, _, d in pattern), math.ulp(t_start + interval)
    if longest < spacing:
        raise ScheduleError(f"the slots do not reach the interval's end: the longest leg ({longest:.3g}s) "
                            f"is below the float spacing there ({spacing:.3g}s)")
    return Schedule(tuple(pattern), float(interval), cycle, t_start)

