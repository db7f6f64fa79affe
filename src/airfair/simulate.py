"""Discrete-event simulation of dynamic sharing groups.

A scenario lists nodes with join/leave times, queued data, rates, and
optional randomness: estimation error on predicted contact durations (PCDs)
and a per-node packet-loss probability.  Every join or leave starts a new
allocation round: the GO is re-elected, airtime re-allocated from the
*estimated* PCDs, and the slot schedule executed against the *true* event
timeline, so mis-estimation shows up as truncated or underfilled intervals.
The contact profiles the members swap come down to two arrays per round,
the loads and a mask of who reaches everyone, which is all the election
reads; only the GO's contact table is built, for the horizon.  Delivered
megabits are tracked across rounds, so later rounds only bargain over what
is still queued.

A schedule is executed as an in-order replay over its slot arrays: the slots
are cut at the true round end, each node's sends are capped at its queue,
and every total is a running sum in slot order, so the results are the same
floats as walking the slots one by one.

All randomness flows through counter-based generators keyed by
(seed, purpose, round, node...), which makes every run bit-reproducible and
lets paired experiments reuse identical draws.  A scenario's draws are made
before any round runs: all Philox keys come from one batch that runs
numpy's SeedSequence hash on arrays, the uniform draws from a vectorized
Philox4x64-10 over all keys, and the normal draws from one Philox moved to
the start of each key's stream in turn (see :mod:`airfair.streams`).  Draws
depend on neither the policy nor the slot size, so policy comparison and
slot-size sweeps derive them once and share them.

Reported metrics compare three allocations per round: the realized broadcast
seconds, the policy's ideal allocation under true durations and nominal
rates, and the bargaining optimum used as the fairness reference.
"""

from __future__ import annotations

import math
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
    ContactEntry,
    ContactTable,
    MODE_GO_COORDINATED,
    MODE_UNICAST_PAIR,
    NoGoCandidateError,
    Schedule,
    ScheduleError,
    allocation_interval,
    build_schedule,
    default_cycle_order,
    elect_go,
    select_transmission_mode,
    slot_sizes,
)
from .grouping import select_roles, update_contact_table  # noqa: F401  (not called here; perfbench/spans.py wraps both by name)
from .streams import derive_seed, first_uniforms, part_key, restarted, word_keys

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


@dataclass(frozen=True, eq=False)
class _RoundDraws:
    """What no policy can change about one round: its true span, its
    members, which of them reach all others, and the round's random draws."""

    t0: float
    t1: float
    members: tuple[str, ...]
    hubs: tuple[bool, ...]       # hubs[i]: member i reaches every other member
    est_pcd: np.ndarray          # est_pcd[i, j]: estimated PCD of members i and j
    loss: tuple[float, ...] | None   # loss probability per member
    rx_ok: np.ndarray            # rx_ok[r, s]: member r receives member s


_PCD, _LOSS, _RX = (part_key(p) for p in ("pcd", "loss", "rx"))


def _word_rows(purpose: int, r: int, *nodes: np.ndarray) -> np.ndarray:
    """The entropy words (purpose, round, *nodes) of streams whose parts are
    one word each, one row per stream, padded with zeros to four."""
    rows = np.zeros((len(nodes[0]), 4), np.uint32)
    rows[:, 0], rows[:, 1] = purpose, r
    for k, column in enumerate(nodes):
        rows[:, 2 + k] = column
    return rows


def _round_draws(scenario: Scenario) -> list[_RoundDraws]:
    """The span, members and draws of every round with at least two members.

    Each draw comes from its own stream keyed by (seed, purpose, round,
    node...): "pcd" per member pair, "loss" per member, "rx" per receiver
    and sender.  Every part is one entropy word, so the word rows of all
    streams are put together from per-member CRC arrays and hashed in one
    batch.  Loss and rx are each their stream's first uniform draw, made for
    all keys at once; a PCD error is a normal draw from one Philox moved to
    the start of its stream.  Draws depend only on the timeline, the seed
    and the noise models, not on the policy or the slot size.
    """
    events = sorted({t for n in scenario.nodes for t in (n.join_s, n.leave_s)})
    spans = []
    for t0, t1 in zip(events, events[1:]):
        members = _members_at(scenario, t0)
        if len(members) >= 2:
            spans.append((t0, t1, tuple(members)))

    est = []
    for t0, _, members in spans:
        leave = np.array([scenario.node(m).leave_s for m in members])
        est.append(np.minimum.outer(leave, leave) - t0)     # the true PCDs
    rx_ok = [~np.eye(len(members), dtype=bool) for _, _, members in spans]
    model, loss_model = scenario.pcd_error, scenario.loss
    loss: list = [None] * len(spans)
    if spans and (model is not None or loss_model is not None):
        pairs = [np.triu_indices(len(members), 1) for _, _, members in spans]
        pcd_rows, loss_rows, rx_rows = [], [], []
        for r, ((_, _, members), (i, j), ok) in enumerate(zip(spans, pairs, rx_ok)):
            crc = np.array([part_key(m) for m in members], np.uint32)
            if model is not None:
                pcd_rows.append(_word_rows(_PCD, r, crc[i], crc[j]))
            if loss_model is not None:
                receiver, sender = np.nonzero(ok)
                loss_rows.append(_word_rows(_LOSS, r, crc))
                rx_rows.append(_word_rows(_RX, r, crc[receiver], crc[sender]))
        n_pcd = sum(map(len, pcd_rows))
        n_loss = sum(map(len, loss_rows))
        words = np.concatenate(pcd_rows + loss_rows + rx_rows)
        lengths = np.full(len(words), 4)
        lengths[n_pcd:n_pcd + n_loss] = 3
        keys = word_keys(scenario.seed, words, lengths)

        if model is not None:
            rngs = restarted(keys[:n_pcd], np.random.Generator(np.random.Philox(0)))
            for e, (i, j) in zip(est, pairs):
                e[i, j] = e[j, i] = [estimate_pcd(t, model, next(rngs)) for t in e[i, j].tolist()]
        if loss_model is not None:
            u = first_uniforms(keys[n_pcd:])
            probs = loss_model.lo + (loss_model.hi - loss_model.lo) * u[:n_loss]   # Generator.uniform's arithmetic
            heard = u[n_loss:]
            for r, ok in enumerate(rx_ok):
                size = len(ok)
                loss[r] = tuple(probs[:size].tolist())
                draw = np.zeros(ok.shape)
                draw[ok] = heard[:size * (size - 1)]        # row by row: receiver, then sender
                ok &= draw >= probs[:size, None]
                probs, heard = probs[size:], heard[size * (size - 1):]
    for array in (*est, *rx_ok):
        array.flags.writeable = False       # shared by every policy that runs on them
    if scenario.connectivity == "complete":
        hubs = [(True,) * len(members) for _, _, members in spans]
    else:
        graph = scenario.graph()
        hubs = [tuple(graph.reaches_all(m, members) for m in members) for _, _, members in spans]
    return [_RoundDraws(t0, t1, members, hubs[r], est[r], loss[r], rx_ok[r])
            for r, (t0, t1, members) in enumerate(spans)]


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
    return _run(scenario, policy, _round_draws(scenario))


def _run(scenario: Scenario, policy: str, draws: Sequence[_RoundDraws]) -> SimulationReport:
    """:func:`run_scenario` on the scenario's precomputed round draws.

    Loads, the GO, its contact table and the bargaining reference depend
    on what the policy delivered in earlier rounds, so they are derived
    here.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    rate = scenario.broadcast_mbps
    transmitted = {n.id: 0.0 for n in scenario.nodes}
    received = {n.id: 0.0 for n in scenario.nodes}
    rounds: list[RoundRecord] = []

    for ridx, d in enumerate(draws):
        t0, t1, members = d.t0, d.t1, d.members

        loads = {}
        for m in members:
            node = scenario.node(m)
            total = node.data_mb if node.data_mb is not None else node.data_mb_per_peer * (len(members) - 1)
            loads[m] = max(0.0, total - transmitted[m])

        if scenario.go is not None and scenario.go in members:
            go_id = scenario.go
        else:
            try:
                go_id = elect_go(members, [loads[m] for m in members], d.hubs)
            except NoGoCandidateError as e:
                raise NoGoCandidateError(f"round {ridx} at {t0:g}s: {e}") from e

        g = members.index(go_id)
        go_table = ContactTable(go_id, tuple(ContactEntry(o, pcd, loads[o])
                                             for o, pcd in zip(members, d.est_pcd[g].tolist()) if o != go_id))
        airtime = allocation_interval(go_table, go_id)
        mode = select_transmission_mode(len(members))
        loss_probs = None if d.loss is None else dict(zip(members, d.loss))

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

        if schedule is None:
            realized = {m: 0.0 for m in members}
            delivered = {m: 0.0 for m in members}
        else:
            need = [loads[m] / rate for m in members]
            realized, delivered = _replay(schedule, t1, members, need, rate, d.rx_ok, transmitted, received)

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
    runs = []
    for r in range(repetitions):
        paired = replace(scenario, seed=derive_seed(scenario.seed, "sweep", r))
        runs.append((paired, _round_draws(paired)))      # draws do not depend on the slot size
    out = []
    for t_slot in t_slot_list:
        vals = [
            _run(replace(paired, t_slot_s=float(t_slot)), "gsa", draws).wpf_aggregate_vs_ideal
            for paired, draws in runs
        ]
        out.append((float(t_slot), float(np.mean(vals)), float(np.std(vals))))
    return out


def compare_policies(scenario: Scenario,
                     policies: Sequence[str] = POLICIES) -> dict[str, SimulationReport]:
    """Run the same scenario once per policy, on one shared set of draws."""
    draws = _round_draws(scenario)
    return {p: _run(scenario, p, draws) for p in policies}


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
