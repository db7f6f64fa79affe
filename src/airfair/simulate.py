"""Discrete-event simulation of dynamic sharing groups.

A scenario lists nodes with join/leave times, queued data, rates, and
optional randomness: estimation error on predicted contact durations (PCDs)
and a per-node packet-loss probability.  Every join or leave starts a new
allocation round: contact tables are rebuilt, roles re-selected, airtime
re-allocated from the *estimated* PCDs, and the slot schedule executed
against the *true* event timeline, so mis-estimation shows up as truncated
or underfilled intervals.  Delivered megabits are tracked across rounds, so
later rounds only bargain over what is still queued.

A schedule is executed as an in-order replay over its slot arrays: the slots
are cut at the true round end, each node's sends are capped at its queue,
and every total is a running sum in slot order, so the results are the same
floats as walking the slots one by one.

All randomness flows through counter-based generators keyed by
(seed, purpose, round, node...), which makes every run bit-reproducible and
lets paired experiments reuse identical draws.

Reported metrics compare three allocations per round: the realized broadcast
seconds, the policy's ideal allocation under true durations and nominal
rates, and the bargaining optimum used as the fairness reference.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .bargaining import (
    Allocation,
    BargainingProblem,
    KktReport,
    Player,
    ROLE_CLIENT,
    ROLE_GO,
    eql_allocate,
    gnbs_allocate,
    nash_product,
    wpf_aggregate,
    wtd_allocate,
)
from .grouping import (
    ConnectivityGraph,
    ContactTable,
    Join,
    MODE_GO_COORDINATED,
    MODE_UNICAST_PAIR,
    NoGoCandidateError,
    Schedule,
    ScheduleError,
    allocation_interval,
    build_schedule,
    default_cycle_order,
    select_roles,
    select_transmission_mode,
    slot_sizes,
    update_contact_table,
)

__all__ = [
    "PCD_FLOOR",
    "POLICIES",
    "LossModel",
    "PcdErrorModel",
    "ScenarioNode",
    "Scenario",
    "RoundRecord",
    "SimulationReport",
    "estimate_pcd",
    "effective_upload_rate",
    "run_scenario",
    "repeated_contacts",
    "slot_size_sweep",
    "compare_policies",
    "scale_contact_durations",
    "derive_seed",
]

#: estimated PCDs never drop below this many seconds
PCD_FLOOR = 0.1

POLICIES = ("gsa", "eql", "wtd")


@dataclass(frozen=True)
class LossModel:
    """Per-node loss probability drawn uniformly from [lo, hi] each round."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi < 1.0):
            raise ValueError("need 0 <= lo <= hi < 1")


@dataclass(frozen=True)
class PcdErrorModel:
    """Additive normal error on estimated contact durations."""

    stddev: float
    mean: float = 0.0

    def __post_init__(self):
        if self.stddev < 0:
            raise ValueError("stddev must be >= 0")


@dataclass(frozen=True)
class ScenarioNode:
    """One node's trajectory and stake.  Exactly one of ``data_mb`` (fixed
    total) or ``data_mb_per_peer`` (scales with group size) must be set."""

    id: str
    join_s: float
    leave_s: float
    upload_mbps: float = 11.0
    alpha: float = 1.0
    data_mb: float | None = None
    data_mb_per_peer: float | None = None

    def __post_init__(self):
        if (self.data_mb is None) == (self.data_mb_per_peer is None):
            raise ValueError(f"node {self.id!r}: set exactly one of data_mb / data_mb_per_peer")
        amount = self.data_mb if self.data_mb is not None else self.data_mb_per_peer
        if amount < 0:
            raise ValueError(f"node {self.id!r}: negative data amount")
        if not (self.join_s < self.leave_s):
            raise ValueError(f"node {self.id!r}: join must precede leave")
        if not (self.upload_mbps > 0):
            raise ValueError(f"node {self.id!r}: upload_mbps must be > 0")
        if not (self.alpha > 0):
            raise ValueError(f"node {self.id!r}: alpha must be > 0")


@dataclass(frozen=True)
class Scenario:
    nodes: tuple[ScenarioNode, ...]
    broadcast_mbps: float
    t_slot_s: float
    loss: LossModel | None = None
    pcd_error: PcdErrorModel | None = None
    seed: int = 0
    connectivity: str | tuple[tuple[str, str], ...] = "complete"
    go: str | None = None
    go_alpha_factor: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise ValueError("scenario needs at least one node")
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        object.__setattr__(self, "_by_id", {n.id: n for n in self.nodes})
        if not (self.broadcast_mbps > 0):
            raise ValueError("broadcast_mbps must be > 0")
        if not (self.t_slot_s > 0):
            raise ValueError("t_slot_s must be > 0")
        if self.go is not None and self.go not in ids:
            raise ValueError(f"pinned GO {self.go!r} is not a node")
        if not (self.go_alpha_factor > 0):
            raise ValueError("go_alpha_factor must be > 0")
        if self.connectivity != "complete":
            object.__setattr__(self, "connectivity", tuple(tuple(e) for e in self.connectivity))
            for a, b in self.connectivity:
                if a not in ids or b not in ids:
                    raise ValueError(f"connectivity edge ({a!r}, {b!r}) names unknown nodes")

    def node(self, node_id: str) -> ScenarioNode:
        return self._by_id[node_id]

    def graph(self) -> ConnectivityGraph:
        ids = [n.id for n in self.nodes]
        if self.connectivity == "complete":
            return ConnectivityGraph.complete(ids)
        return ConnectivityGraph(ids, self.connectivity)


@dataclass(eq=False)
class RoundRecord:
    index: int
    t_start: float
    t_end: float
    members: tuple[str, ...]
    go_id: str
    mode: str
    airtime: float                      # allocation horizon from estimated PCDs
    problem: BargainingProblem          # estimated durations, loss-adjusted rates
    ideal_problem: BargainingProblem    # true horizon, nominal rates
    allocation: Allocation
    kkt: KktReport | None
    schedule: Schedule | None
    ideal_broadcast: dict[str, float]
    realized_broadcast: dict[str, float]
    delivered_mb: dict[str, float]
    realized_rate: dict[str, float]
    nash_realized: float
    nash_ideal: float
    wpf_vs_ideal: float
    idle: bool


@dataclass(eq=False)
class SimulationReport:
    scenario: Scenario
    policy: str
    rounds: list[RoundRecord]
    transmitted_mb: dict[str, float]
    received_mb: dict[str, float]
    nash_product_realized: float
    nash_product_ideal: float
    wpf_aggregate_vs_ideal: float


def _key(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return int(part)


def _stream(seed: int, *parts) -> np.random.Generator:
    entropy = [seed & 0xFFFFFFFFFFFFFFFF] + [_key(p) for p in parts]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, *parts) -> int:
    """Stable child seed for independent runs (repetitions, contacts)."""
    entropy = [seed & 0xFFFFFFFFFFFFFFFF] + [_key(p) for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def estimate_pcd(true_duration: float, error_model: PcdErrorModel | None,
                 rng: np.random.Generator) -> float:
    """Perturb a true contact duration with the estimation error model,
    floored at :data:`PCD_FLOOR` seconds."""
    if error_model is None:
        return float(true_duration)
    est = true_duration + rng.normal(error_model.mean, error_model.stddev)
    return float(max(PCD_FLOOR, est))


def effective_upload_rate(nominal_rate: float, loss_probability: float) -> float:
    """Upload rate left after retransmitting lost packets."""
    if not (0.0 <= loss_probability < 1.0):
        raise ValueError("loss probability must lie in [0, 1)")
    return float(nominal_rate * (1.0 - loss_probability))


def _members_at(scenario: Scenario, t: float) -> list[str]:
    return sorted(n.id for n in scenario.nodes if n.join_s <= t < n.leave_s)


def _allocate(policy: str, problem: BargainingProblem) -> tuple[Allocation, KktReport | None]:
    if policy == "gsa":
        alloc, report = gnbs_allocate(problem)
        return alloc, report
    if policy == "eql":
        return eql_allocate(problem), None
    if policy == "wtd":
        return wtd_allocate(problem), None
    raise ValueError(f"unknown policy {policy!r}")


def _build_problem(scenario: Scenario, members: Sequence[str], go_id: str, mode: str,
                   loads: Mapping[str, float], airtime: float,
                   loss_probs: Mapping[str, float] | None) -> BargainingProblem:
    players = []
    for m in members:
        node = scenario.node(m)
        role = ROLE_GO if m == go_id else ROLE_CLIENT
        if mode == MODE_UNICAST_PAIR or role == ROLE_GO:
            upload = math.inf
        elif loss_probs is not None:
            upload = effective_upload_rate(node.upload_mbps, loss_probs[m])
        else:
            upload = node.upload_mbps
        alpha = node.alpha * (scenario.go_alpha_factor if role == ROLE_GO else 1.0)
        players.append(Player(m, loads[m], upload, alpha=alpha, role=role))
    return BargainingProblem(tuple(players), airtime, scenario.broadcast_mbps)


def _fold(total, steps: np.ndarray):
    """``total`` plus ``steps[0]``, ``steps[1]``, ... added one at a time
    (column by column when ``steps`` is 2-D)."""
    return np.cumsum(np.concatenate(([total], steps)), axis=0)[-1]


def _replay(schedule: Schedule, t1: float, members: Sequence[str], need: Sequence[float],
            rate: float, rx_ok: np.ndarray, transmitted: dict[str, float],
            received: dict[str, float]) -> tuple[dict[str, float], dict[str, float]]:
    """Carry out the schedule's broadcast slots until the true round end ``t1``.

    A broadcast slot sends for as long as it lasts before ``t1``, but no
    longer than its node's queue (``need[k]`` seconds for ``members[k]``)
    still lasts; uploads only relay.  ``rx_ok[r, s]`` tells whether member r
    receives member s.  Returns the realized broadcast seconds and the
    delivered megabits per member, and adds what was sent to ``transmitted``
    and what arrived to ``received``.

    The slots are laid out as one row per cycle and one column per leg.
    Every total is a running sum in slot order that starts from its prior
    value, so it is the same float that carrying out one slot at a time
    gives; a slot that sends nothing adds an exact zero.
    """
    starts, durations = schedule.slot_arrays
    n = int(np.searchsorted(starts, t1))            # slots that start before t1
    legs = len(schedule.pattern)
    take = np.zeros(-(-n // legs) * legs)           # the last cycle padded with empty slots
    np.minimum(durations[:n], t1 - starts[:n], out=take[:n])
    columns = [j for j, (_, kind, _) in enumerate(schedule.pattern) if kind == "broadcast"]
    sender = [members.index(schedule.pattern[j][0]) for j in columns]
    take = take.reshape(-1, legs)[:, columns]       # cycle x broadcasting node

    # Each node's queue before each of its slots, while every slot takes in
    # full; the first slot that finds no more than its length left empties it.
    left = np.cumsum(np.concatenate(([np.asarray(need)[sender]], -take)), axis=0)[:-1]
    drained = take >= left
    last = np.where(drained.any(axis=0), drained.argmax(axis=0), len(take))
    cycle = np.arange(len(take))[:, None]
    use = np.where(cycle < last, take, np.where(cycle == last, left, 0.0))
    mb = use * rate

    zeros = np.zeros(len(sender))
    seconds, megabits = _fold(zeros, use), _fold(zeros, mb)
    sent = _fold(np.array([transmitted[members[k]] for k in sender]), mb)
    realized = {m: 0.0 for m in members}
    delivered = {m: 0.0 for m in members}
    for j, k in enumerate(sender):
        m = members[k]
        realized[m], delivered[m], transmitted[m] = float(seconds[j]), float(megabits[j]), float(sent[j])
    for r, m in enumerate(members):
        received[m] = float(_fold(received[m], mb[:, rx_ok[r, sender]].ravel()))
    return realized, delivered


def run_scenario(scenario: Scenario, policy: str = "gsa") -> SimulationReport:
    """Simulate the scenario under one allocation policy.

    Rounds are delimited by the true join/leave times; only periods with at
    least two members allocate and transmit.  Idle rounds (nothing queued)
    are recorded but excluded from the report-level metric averages.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    rate = scenario.broadcast_mbps
    graph = scenario.graph()
    events = sorted({t for n in scenario.nodes for t in (n.join_s, n.leave_s)})
    transmitted = {n.id: 0.0 for n in scenario.nodes}
    received = {n.id: 0.0 for n in scenario.nodes}
    rounds: list[RoundRecord] = []

    for t0, t1 in zip(events, events[1:]):
        members = _members_at(scenario, t0)
        if len(members) < 2:
            continue
        ridx = len(rounds)

        loads = {}
        for m in members:
            node = scenario.node(m)
            total = node.data_mb if node.data_mb is not None else node.data_mb_per_peer * (len(members) - 1)
            loads[m] = max(0.0, total - transmitted[m])

        true_pcd = {}
        est_pcd = {}
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                true = min(scenario.node(a).leave_s, scenario.node(b).leave_s) - t0
                rng = _stream(scenario.seed, "pcd", ridx, a, b)
                true_pcd[(a, b)] = true_pcd[(b, a)] = true
                est_pcd[(a, b)] = est_pcd[(b, a)] = estimate_pcd(true, scenario.pcd_error, rng)

        tables = {}
        for m in members:
            table = ContactTable(m)
            for other in members:
                if other != m:
                    table = update_contact_table(table, Join(other, est_pcd[(m, other)], loads[other]))
            tables[m] = table

        if scenario.go is not None and scenario.go in members:
            go_id = scenario.go
        else:
            try:
                roles = select_roles(tables, graph.restricted(members))
            except NoGoCandidateError as e:
                raise NoGoCandidateError(f"round {ridx} at {t0:g}s: {e}") from e
            go_id = next(m for m, r in roles.items() if r == "go")

        airtime = allocation_interval(tables[go_id], go_id)
        mode = select_transmission_mode(len(members))

        loss_probs = None
        if scenario.loss is not None:
            loss_probs = {
                m: float(_stream(scenario.seed, "loss", ridx, m).uniform(scenario.loss.lo, scenario.loss.hi))
                for m in members
            }

        problem = _build_problem(scenario, members, go_id, mode, loads, airtime,
                                 loss_probs if mode == MODE_GO_COORDINATED else None)
        allocation, kkt = _allocate(policy, problem)

        round_len = t1 - t0
        ideal_problem = _build_problem(scenario, members, go_id, mode, loads, round_len, None)
        ideal_alloc, _ = _allocate(policy, ideal_problem)
        if policy == "gsa":
            gnbs_ideal = ideal_alloc
        else:
            gnbs_ideal, _ = gnbs_allocate(ideal_problem)

        idle = not problem.active
        schedule = None
        if not idle:
            x = allocation.broadcast_time
            actors = [m for k, m in enumerate(members) if x[k] > 1e-15]
            if actors:
                sel = [members.index(m) for m in actors]
                sub = Allocation(x[sel], allocation.upload_time[sel], allocation.saturated)
                try:
                    whole, up, down = slot_sizes(sub, problem.betas[sel], scenario.t_slot_s)
                    slots = {m: (float(up[k]), float(down[k])) for k, m in enumerate(actors)}
                    order = default_cycle_order(actors, go_id)
                    schedule = build_schedule(slots, airtime, order, t_start=t0)
                except ScheduleError as e:
                    raise ScheduleError(f"round {ridx} at {t0:g}s: {e}") from e

        rx_ok = ~np.eye(len(members), dtype=bool)
        if loss_probs is not None:
            for i, a in enumerate(members):
                for j, b in enumerate(members):
                    if a != b:
                        draw = _stream(scenario.seed, "rx", ridx, a, b).random()
                        rx_ok[i, j] = draw >= loss_probs[a]

        if schedule is None:
            realized = {m: 0.0 for m in members}
            delivered = {m: 0.0 for m in members}
        else:
            need = [loads[m] / rate for m in members]
            realized, delivered = _replay(schedule, t1, members, need, rate, rx_ok, transmitted, received)

        if idle:
            nash_real = nash_ideal = wpf = float("nan")
        else:
            x_real = np.array([realized[m] for m in members])
            real_alloc = Allocation(x_real, ideal_problem.betas * x_real, saturated=False)
            nash_real = nash_product(ideal_problem, real_alloc)
            nash_ideal = nash_product(ideal_problem, ideal_alloc)
            wpf = wpf_aggregate(ideal_problem, gnbs_ideal, real_alloc)

        rounds.append(RoundRecord(
            index=ridx,
            t_start=t0,
            t_end=t1,
            members=tuple(members),
            go_id=go_id,
            mode=mode,
            airtime=airtime,
            problem=problem,
            ideal_problem=ideal_problem,
            allocation=allocation,
            kkt=kkt,
            schedule=schedule,
            ideal_broadcast={m: float(ideal_alloc.broadcast_time[k]) for k, m in enumerate(members)},
            realized_broadcast=realized,
            delivered_mb=delivered,
            realized_rate={m: delivered[m] / round_len for m in members},
            nash_realized=nash_real,
            nash_ideal=nash_ideal,
            wpf_vs_ideal=wpf,
            idle=idle,
        ))

    traffic = [r for r in rounds if not r.idle]
    if traffic:
        nash_real = float(np.mean([r.nash_realized for r in traffic]))
        nash_ideal = float(np.mean([r.nash_ideal for r in traffic]))
        wpf = float(np.mean([r.wpf_vs_ideal for r in traffic]))
    else:
        nash_real = nash_ideal = wpf = float("nan")

    return SimulationReport(
        scenario=scenario,
        policy=policy,
        rounds=rounds,
        transmitted_mb=transmitted,
        received_mb=received,
        nash_product_realized=nash_real,
        nash_product_ideal=nash_ideal,
        wpf_aggregate_vs_ideal=wpf,
    )


def repeated_contacts(scenario: Scenario, n_contacts: int,
                      seed: int | None = None) -> tuple[np.ndarray, float]:
    """Independent perturbed repetitions of one scenario.

    Every contact reruns the scenario with a fresh derived seed (fresh PCD
    error and loss draws).  Returns the running average of the realized Nash
    product and, as the asymptote reference, the value the same pipeline
    reaches with randomness switched off.
    """
    if n_contacts < 1:
        raise ValueError("need at least one contact")
    base = scenario.seed if seed is None else seed
    values = np.empty(n_contacts)
    for k in range(n_contacts):
        rep = run_scenario(replace(scenario, seed=derive_seed(base, "contact", k)))
        values[k] = rep.nash_product_realized
    running = np.cumsum(values) / np.arange(1, n_contacts + 1)
    ideal = run_scenario(replace(scenario, loss=None, pcd_error=None)).nash_product_realized
    return running, float(ideal)


def slot_size_sweep(scenario: Scenario, t_slot_list: Sequence[float],
                    repetitions: int = 20) -> list[tuple[float, float, float]]:
    """Mean and spread of the fairness aggregate per basic slot size.

    Repetitions are paired: repetition r uses the same derived seed for every
    slot size, so differences across sizes isolate the slotting granularity.
    Returns (t_slot_s, mean wpf, stddev) per requested size.
    """
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    seeds = [derive_seed(scenario.seed, "sweep", r) for r in range(repetitions)]
    out = []
    for t_slot in t_slot_list:
        vals = [
            run_scenario(replace(scenario, t_slot_s=float(t_slot), seed=s)).wpf_aggregate_vs_ideal
            for s in seeds
        ]
        out.append((float(t_slot), float(np.mean(vals)), float(np.std(vals))))
    return out


def compare_policies(scenario: Scenario,
                     policies: Sequence[str] = POLICIES) -> dict[str, SimulationReport]:
    """Run the same scenario (identical seeds and draws) once per policy."""
    return {p: run_scenario(scenario, policy=p) for p in policies}


def scale_contact_durations(scenario: Scenario, duration: float) -> Scenario:
    """Dilate the whole timeline so the longest presence window lasts
    ``duration`` seconds (used for contact-duration sweeps).

    Joins and leaves scale together, so relative overlap between nodes is
    preserved."""
    if not (duration > 0):
        raise ValueError("duration must be > 0")
    longest = max(n.leave_s - n.join_s for n in scenario.nodes)
    factor = duration / longest
    nodes = tuple(
        replace(n, join_s=n.join_s * factor, leave_s=n.leave_s * factor)
        for n in scenario.nodes
    )
    return replace(scenario, nodes=nodes)
