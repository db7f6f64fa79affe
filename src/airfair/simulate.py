"""Discrete-event simulation of dynamic sharing groups.

A scenario lists nodes with join/leave times, queued data, rates, and
optional randomness: estimation error on predicted contact durations (PCDs)
and a per-node packet-loss probability.  Every join or leave starts a new
allocation round: the GO is re-elected, airtime re-allocated from the
*estimated* PCDs, and the slot schedule executed against the *true* event
timeline, so mis-estimation shows up as truncated or underfilled intervals.
The contact profiles the members swap come down to two arrays per round,
the loads and a mask of who reaches everyone, which is all the election
reads; the horizon is the GO's smallest estimated PCD.  A run is a fold of
one round step over the rounds: the step elects the GO, bargains the
airtime, lays out the slot cycle, disseminates, and returns the round's
record, writing nothing but its solve memo.  The fold owns the totals,
arrays in scenario node order: the megabits each node has sent, which each
round reads at its members' positions, so later rounds only bargain over
what is still queued, and those it heard, which each round's receive
outcomes add to in round order.  The draw pass hands each round its mode,
its member columns (positions, own data, raw weights, upload rates in that
mode) and, where no policy can change it, its GO, so a round step is array
arithmetic over columns.  The step decides the slot cycle's order once,
as member positions (the scheduled clients in id order, the GO last): the
schedule is built from legs in that order, and the replay writes its
broadcast legs back to those positions.  Dicts keyed by node id appear
only in the report.

A schedule is executed by the cycle arithmetic of
:meth:`~airfair.grouping.Schedule.leg_seconds`, the rule that also places
the slots ``airfair schedule`` prints: each node broadcasts its leg times
the whole cycles that end before the true round end, plus its share of the
cut cycle, capped at its queue, and each receiver hears what the senders it
receives delivered.  So a round's cost follows its members, not its slots.
A load at or below 1e-12 of a node's own data is a rounding residue of what
it sent and counts as drained, so the node sits the round out.

All randomness flows through counter-based generators keyed by
(seed, purpose, round, node...), which makes every run bit-reproducible and
lets paired experiments reuse identical draws.  A scenario's draws are made
before any round runs: all Philox keys come from one batch that runs
numpy's SeedSequence hash on all rows together, and one Philox4x64-10 pass
makes the first word of every key's stream, from which the uniform draws
and the normal draws are read (see :mod:`airfair.streams`).  Draws
depend on neither the policy nor the slot size, so policy comparison and
slot-size sweeps derive them once and share them.  A round keeps its PCD
draws as drawn, a list of member pairs and one estimate per pair.  A round
whose GO no policy can change, the first round or one with its pinned GO
present, elects it with the draws and draws only the pairs that hold it,
the ones its horizon reads; since a stream's key names its draw, skipping
the others leaves every drawn number as it was.  For the same reason an
experiment's repetitions, which never read what a node heard, leave the
receive outcomes, its only input, out of the batch, and their reports'
``received_mb`` is None.

The three repeated experiments (:func:`compare_means`,
:func:`slot_size_sweep`, :func:`repeated_contacts`) are folds over one
kind of per-repetition record, which :func:`_records` alone makes from
one generator of repetitions, :func:`_repetitions`: repetition k reruns
the scenario at the seed ``derive_seed(seed, *parts, k)``, where the parts
name the experiment ("compare" and the scenario's index, "sweep",
"contact"), every run of a repetition shares its draws, and its record
holds one report metric per policy.  compare and converge fill their
records repetition by repetition, the policies inside each; the sweep
lists its repetitions once and fills one size's column at a time.  Each
order is the one separate runs have, and it decides which run's error a
failing experiment raises, so neither may change.  A run computes each
round's wpf aggregate, which the sweep folds, with the round; a round's two
Nash products and the report's two Nash means are computed when first
read, so each experiment evaluates only the metric it folds.

A round's two bargaining problems, its GNBS reference and each policy's
allocations depend on its draws, its loads, its GO and the scenario's
``broadcast_mbps`` and ``go_alpha_factor``.  Each round's draws keep them,
keyed by the exact bits of the loads alone, since the draws and the loads
decide the GO, so runs that share one set of draws may differ only in
policy and ``t_slot_s``, as every caller's do: a round that several
policies or slot sizes reach with the same loads is solved once, and gives
the floats a fresh solve would.  Only gsa's allocation of the estimated
problem is certified.

Reported metrics compare three allocations per round: the realized broadcast
seconds, the policy's ideal allocation under true durations and nominal
rates, and the bargaining optimum used as the fairness reference.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

import numpy as np

from .bargaining import (
    Allocation,
    BargainingProblem,
    KktReport,
    _gnbs_solve,
    eql_allocate,
    gnbs_allocate,
    left_sum,
    nash_product,
    wpf_aggregate,
    wtd_allocate,
)
from .grouping import (
    ConnectivityGraph,
    MODE_UNICAST_PAIR,
    NoGoCandidateError,
    Schedule,
    ScheduleError,
    build_schedule,
    elect_go,
    select_transmission_mode,
    slot_sizes,
)
from .grouping import select_roles, update_contact_table  # noqa: F401  (not called here; perfbench/spans.py wraps both by name)
from .streams import derive_seed, first_normals, first_uniforms, first_words, part_key, word_keys

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
    "compare_means",
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
        if not (self.stddev >= 0):     # NaN fails too
            raise ValueError("stddev must be >= 0")
        if math.isnan(self.mean):
            raise ValueError("mean must not be NaN")


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
        if not (amount < math.inf):     # NaN fails too
            raise ValueError(f"node {self.id!r}: data amount must be finite")
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
    #: the graph of the given edges, which checks them; None when complete
    graph: ConnectivityGraph | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise ValueError("scenario needs at least one node")
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        # a round's group size less one scales a per-peer amount, which must stay finite
        for n in self.nodes:
            if n.data_mb_per_peer is not None and not math.isfinite(n.data_mb_per_peer * (len(ids) - 1)):
                raise ValueError(f"node {n.id!r}: data_mb_per_peer overflows at {len(ids) - 1} peers")
        if not (0 < self.broadcast_mbps < math.inf):
            raise ValueError("broadcast_mbps must be > 0 and finite")
        if not (0 < self.t_slot_s < math.inf):
            raise ValueError("t_slot_s must be > 0 and finite")
        # a client's relay overhead, broadcast_mbps over its upload rate,
        # must stay finite at its worst loss-adjusted rate, and a queue's cap,
        # its largest round load over broadcast_mbps, must stay finite too,
        # by the bargaining problem's bounds; the first comparison fails a
        # rate that underflows to 0, and the second's bound is a Python
        # float, which overflows to inf without a warning
        worst = 1.0 - (0.0 if self.loss is None else self.loss.hi)
        bound, load_bound = self.broadcast_mbps / sys.float_info.max, float(self.broadcast_mbps) * sys.float_info.max
        for n in self.nodes:
            if not (n.upload_mbps * worst > bound):
                raise ValueError(f"node {n.id!r}: relay overhead broadcast_mbps / upload_mbps overflows "
                                 f"at its worst loss-adjusted rate {n.upload_mbps * worst:g}")
            load = n.data_mb if n.data_mb is not None else n.data_mb_per_peer * (len(ids) - 1)
            if not (load < load_bound):
                raise ValueError(f"node {n.id!r}: queue time data / broadcast_mbps overflows "
                                 f"at its largest round load {load:g} mb")
        if self.go is not None and self.go not in ids:
            raise ValueError(f"pinned GO {self.go!r} is not a node")
        if not (self.go_alpha_factor > 0):
            raise ValueError("go_alpha_factor must be > 0")
        # a round's raw weights are its members' alphas, the GO's scaled
        # by go_alpha_factor; the largest such sum must stay finite
        alphas = [n.alpha for n in self.nodes]
        if not math.isfinite(sum(alphas) + max(alphas) * max(self.go_alpha_factor - 1.0, 0.0)):
            raise ValueError("alpha weights overflow once the GO's is scaled by go_alpha_factor and summed")
        if self.connectivity != "complete":
            object.__setattr__(self, "connectivity", tuple(tuple(e) for e in self.connectivity))
            # raises at an edge it rejects
            object.__setattr__(self, "graph", ConnectivityGraph(ids, self.connectivity))


@dataclass(eq=False)
class RoundRecord:
    """What one round of a run did.  Per-member values are arrays in member
    order: those of the allocations and the problems, and
    ``realized_broadcast`` and ``delivered_mb``, which are read-only.

    A round is idle when no member has anything queued: it has no schedule,
    realizes and delivers 0, and its three metrics are NaN.  A round that is
    not idle has no schedule either when no member's broadcast share
    exceeds 1e-15 s.  ``kkt`` is gsa's certificate, None for eql and wtd.
    ``wpf_vs_ideal`` is computed with the round; the two Nash products are
    computed when first read, since an experiment that folds another metric
    never reads them.
    """

    index: int                          # the round's place among the run's rounds of two or more members
    t_start: float                      # true round start, s
    t_end: float                        # true round end, the next join or leave, s
    members: tuple[str, ...]            # ids present, sorted
    go_id: str
    mode: str                           # MODE_UNICAST_PAIR for two members, else MODE_GO_COORDINATED
    airtime: float                      # allocation horizon from estimated PCDs, s
    problem: BargainingProblem          # estimated durations, loss-adjusted rates
    ideal_problem: BargainingProblem    # true horizon, nominal rates
    allocation: Allocation              # the policy's broadcast and upload seconds for ``problem``
    ideal_allocation: Allocation        # the policy's allocation of ``ideal_problem``
    kkt: KktReport | None
    schedule: Schedule | None
    realized_broadcast: np.ndarray      # broadcast seconds sent before t_end, capped at the queue
    delivered_mb: np.ndarray            # megabits broadcast in the round
    wpf_vs_ideal: float                 # wpf aggregate of the realized seconds against the GNBS optimum
    idle: bool

    @cached_property
    def nash_realized(self) -> float:
        """Nash product of the realized seconds on ``ideal_problem``."""
        if self.idle:
            return math.nan
        return nash_product(self.ideal_problem, _realized(self.ideal_problem, self.realized_broadcast))

    @cached_property
    def nash_ideal(self) -> float:
        """Nash product of the policy's allocation of ``ideal_problem``."""
        return math.nan if self.idle else nash_product(self.ideal_problem, self.ideal_allocation)


@dataclass(eq=False)
class SimulationReport:
    """One policy's run of a scenario.  The three averages are over the
    rounds that are not idle, and NaN when every round is.

    The run folds the node totals and ``wpf_aggregate_vs_ideal``; the two
    Nash means are computed when first read, from the rounds, since an
    experiment that folds another metric never reads them."""

    scenario: Scenario
    policy: str                         # one of POLICIES
    rounds: list[RoundRecord]           # every round of two or more members, in time order
    transmitted_mb: dict[str, float]    # megabits each node broadcast, keyed by node id in scenario order
    received_mb: dict[str, float] | None    # megabits each node heard, alike; None if the draws have no rx outcomes
    wpf_aggregate_vs_ideal: float       # mean of the rounds' wpf_vs_ideal

    @cached_property
    def nash_product_realized(self) -> float:
        """Mean of the rounds' ``nash_realized``."""
        return _mean([r.nash_realized for r in self.rounds if not r.idle])

    @cached_property
    def nash_product_ideal(self) -> float:
        """Mean of the rounds' ``nash_ideal``."""
        return _mean([r.nash_ideal for r in self.rounds if not r.idle])


def _mean(values: list[float]) -> float:
    """The float ``np.mean`` gives for a list of floats (a run's per-round
    metrics, a sweep's repetitions), NaN for none: their pairwise sum,
    ``np.add.reduce``, over their count, without ``np.mean``'s fixed cost of
    several microseconds per call."""
    return float(np.add.reduce(np.array(values))) / len(values) if values else math.nan


def _realized(ideal_problem: BargainingProblem, x: np.ndarray) -> Allocation:
    """A round's realized broadcast seconds ``x`` as an allocation of its
    ideal problem: each client uploads what it broadcast."""
    return Allocation(x, ideal_problem.betas * x, saturated=False)


def estimate_pcd(true_duration: float, error_model: PcdErrorModel | None,
                 rng: np.random.Generator) -> float:
    """Perturb a true contact duration with the estimation error model,
    floored at :data:`PCD_FLOOR` seconds.

    This is the scalar rule, one draw from ``rng``; the simulator applies
    it to all of a scenario's pairs at once in :func:`_round_draws`, and
    ``tests/support.py`` holds it to this function stream by stream.
    """
    if error_model is None:
        return float(true_duration)
    est = true_duration + rng.normal(error_model.mean, error_model.stddev)
    return float(max(PCD_FLOOR, est))


def effective_upload_rate(nominal_rate, loss_probability):
    """Upload rate left after retransmitting lost packets.  Takes floats, or
    arrays of one rate or loss probability per node, which broadcast
    together; returns a float when both are scalars."""
    loss = np.asarray(loss_probability)
    if not ((0.0 <= loss) & (loss < 1.0)).all():
        raise ValueError("loss probability must lie in [0, 1)")
    rate = nominal_rate * (1.0 - loss)
    return float(rate) if np.ndim(rate) == 0 else rate


@dataclass(frozen=True, eq=False)
class _RoundDraws:
    """What no policy can change about one round, which the draw pass hands
    it: its true span, its members, their member columns, its transmission
    mode, which members reach all others, its GO where that is fixed before
    any policy runs (a pinned GO that is a member always is), and its random
    draws; and its solves, filled in by the runs on these draws.  A round
    with a fixed GO draws the PCDs of the n - 1 pairs that hold it, the ones
    its horizon reads, and an open round those of every pair.  Draws made
    for an experiment's repetitions have no rx outcomes: ``rx_ok`` is None."""

    t0: float
    t1: float
    members: tuple[str, ...]
    at: np.ndarray               # at[i]: member i's position in scenario.nodes
    own_mb: np.ndarray           # own_mb[i]: member i's own data, a per-peer amount times n - 1
    alpha: np.ndarray            # alpha[i]: member i's raw weight
    upload_mbps: np.ndarray      # upload_mbps[i]: member i's nominal upload rate in the mode, inf in a pair
    mode: str                    # the transmission mode for the round's member count
    hubs: tuple[bool, ...]       # hubs[i]: member i reaches every other member
    go: int | None               # the GO's member index if no policy can change it, else None
    pairs: tuple[np.ndarray, np.ndarray]    # (i, j): member indices, i < j, of each drawn pair
    pcd: np.ndarray              # pcd[k]: estimated PCD of the members of pair k
    loss: np.ndarray | None      # loss probability per member
    rx_ok: np.ndarray | None     # rx_ok[r, s]: member r receives member s; None if not drawn
    solves: dict[bytes, _RoundSolve] = field(default_factory=dict, init=False)  # by loads.tobytes()

    def horizon(self, g: int) -> float:
        """Member g's horizon as GO: its smallest estimated PCD to another
        member.  A round with a fixed GO drew no other member's PCDs."""
        if self.go is not None and g != self.go:
            raise ValueError(f"the round drew only the PCDs of its GO, member {self.go}, not member {g}")
        i, j = self.pairs
        return float(self.pcd[(i == g) | (j == g)].min())


_PCD, _LOSS, _RX = (part_key(p) for p in ("pcd", "loss", "rx"))


def _word_rows(purpose: int, r: int, *nodes: np.ndarray) -> np.ndarray:
    """The entropy words (purpose, round, *nodes) of streams whose parts are
    one word each, one row per stream, padded with zeros to four."""
    rows = np.zeros((len(nodes[0]), 4), np.uint32)
    rows[:, 0], rows[:, 1] = purpose, r
    for k, column in enumerate(nodes):
        rows[:, 2 + k] = column
    return rows


@lru_cache(maxsize=128)
def _pairs(size: int, go: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The member pairs (i, j), i < j, whose PCDs a round of ``size``
    members draws: all of them in ``np.triu_indices`` order, or with a
    fixed GO only those that hold it.  Read-only, built once per size and
    GO."""
    if go is None:
        pairs = np.triu_indices(size, 1)
    else:
        others = np.delete(np.arange(size), go)
        pairs = np.minimum(others, go), np.maximum(others, go)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _round_draws(scenario: Scenario, rx: bool = True) -> list[_RoundDraws]:
    """The span, members and draws of every round with at least two members.

    Each draw comes from its own stream keyed by (seed, purpose, round,
    node...): "pcd" per member pair, "loss" per member, "rx" per receiver
    and sender.  Every part is one entropy word, so the word rows of all
    streams are put together from the nodes' CRC words, made once per
    scenario, and hashed in one batch, and one Philox pass makes the first
    word of every stream.  Loss and rx are each their stream's first
    uniform draw, and a PCD error its stream's first normal draw, read off
    that word for all keys at once; an estimate is floored at
    :data:`PCD_FLOOR` the way :func:`estimate_pcd` floors it.  Draws depend
    only on the timeline, the seed and the noise models, not on the policy
    or the slot size.

    The rx outcomes feed only a report's ``received_mb``, which no
    experiment reads, so ``rx=False`` leaves their n(n - 1) keys per round
    with loss out of the batch (30 of noisy table1's 41) and sets each
    round's ``rx_ok`` to None, on which :func:`_run` folds no
    ``received_mb``.  Every other stream keeps its key, so every other draw
    is the same to the bit.

    A round's members come in id order, with three read-only columns in
    member order that the runs read instead of the nodes: own data (a
    per-peer amount times the member count less one), raw weight and the
    rate it uploads at in the round's mode, its nominal one, or inf in a
    unicast pair, which talks directly.  A round reads only the PCDs of the
    pairs that hold its GO, the horizon being the smallest of them.  Where
    no policy can change the GO, it is fixed here and only those pairs are
    drawn: a pinned GO that is a member, or the first round's election from
    the own-data column, the loads every policy starts from.  Every stream
    keeps its key, so each drawn estimate is the one a draw of every pair
    gives.  Other rounds, and a first round whose election raises, draw
    every pair and leave the election to the run.
    """
    nodes = scenario.nodes
    events = sorted({t for n in nodes for t in (n.join_s, n.leave_s)})
    graph, model, loss_model = scenario.graph, scenario.pcd_error, scenario.loss
    by_id = sorted(range(len(nodes)), key=lambda k: nodes[k].id)
    per_peer = [n.data_mb is None for n in nodes]
    amount = [n.data_mb_per_peer if p else n.data_mb for n, p in zip(nodes, per_peer)]
    alpha, upload, leave = (np.array([getattr(n, a) for n in nodes]) for a in ("alpha", "upload_mbps", "leave_s"))
    words = np.array([part_key(n.id) for n in nodes], np.uint32)     # each node's stream word
    rounds, pcd_rows, loss_rows, rx_rows = [], [], [], []
    for t0, t1 in zip(events, events[1:]):
        present = [k for k in by_id if nodes[k].join_s <= t0 < nodes[k].leave_s]
        if len(present) < 2:
            continue
        r, at = len(rounds), np.array(present)
        members = tuple(nodes[k].id for k in present)
        own = np.array([amount[k] * (len(present) - 1) if per_peer[k] else amount[k] for k in present])
        mode = select_transmission_mode(len(members))       # a unicast pair talks directly: nobody uploads
        columns = (at, own, alpha[at], np.full(2, math.inf) if mode == MODE_UNICAST_PAIR else upload[at])
        hubs = (True,) * len(members) if graph is None else tuple(graph.reaches_all(m, members) for m in members)
        go = None
        if scenario.go in members:
            go = members.index(scenario.go)
        elif r == 0:
            try:
                go = members.index(elect_go(members, own.tolist(), hubs))
            except NoGoCandidateError:
                pass
        i, j = pairs = _pairs(len(members), go)
        true = np.minimum(leave[at[i]], leave[at[j]]) - t0      # the true PCDs
        rx_ok = ~np.eye(len(members), dtype=bool) if rx else None
        if model is not None or loss_model is not None:
            crc = words[at]
            if model is not None:
                pcd_rows.append(_word_rows(_PCD, r, crc[i], crc[j]))
            if loss_model is not None:
                loss_rows.append(_word_rows(_LOSS, r, crc))
                if rx:
                    receiver, sender = np.nonzero(rx_ok)
                    rx_rows.append(_word_rows(_RX, r, crc[receiver], crc[sender]))
        rounds.append((t0, t1, members, columns, mode, hubs, go, pairs, true, rx_ok))

    if pcd_rows or loss_rows:
        n_pcd = sum(map(len, pcd_rows))
        n_loss = sum(map(len, loss_rows))
        rows = np.concatenate(pcd_rows + loss_rows + rx_rows)
        lengths = np.full(len(rows), 4)
        lengths[n_pcd:n_pcd + n_loss] = 3
        keys = word_keys(scenario.seed, rows, lengths)

        word0 = first_words(keys)
        if model is not None:
            v = np.concatenate([true for *_, true, _ in rounds])
            v = v + first_normals(keys[:n_pcd], word0[:n_pcd], model.mean, model.stddev)
            est = np.where(v > PCD_FLOOR, v, PCD_FLOOR)     # max(PCD_FLOOR, v), as estimate_pcd floors
        if loss_model is not None:
            u = first_uniforms(word0[n_pcd:])
            probs = loss_model.lo + (loss_model.hi - loss_model.lo) * u[:n_loss]   # Generator.uniform's arithmetic
            probs.flags.writeable = False       # its round slices are shared like pcd and rx_ok
            heard = u[n_loss:]

    out, p, q, h = [], 0, 0, 0      # offsets of a round's pcd, loss and rx draws
    for t0, t1, members, columns, mode, hubs, go, pairs, true, rx_ok in rounds:
        n = len(members)
        pcd = true if model is None else est[p:p + len(true)]
        loss = None if loss_model is None else probs[q:q + n]
        if rx:
            if loss is not None:    # the rx draws run row by row: receiver, then sender
                rx_ok[rx_ok] = heard[h:h + n * (n - 1)] >= np.repeat(loss, n - 1)
            rx_ok.flags.writeable = False
        p, q, h = p + len(true), q + n, h + n * (n - 1)
        for array in (pcd, *columns):     # shared by every run on them
            array.flags.writeable = False
        out.append(_RoundDraws(t0, t1, members, *columns, mode, hubs, go, pairs, pcd, loss, rx_ok))
    return out


@dataclass(eq=False)
class _RoundSolve:
    """A round's bargaining work for one GO and one set of member loads.
    ``policies`` maps a policy to its allocation, its certificate (gsa
    only) and its allocation of the ideal problem."""

    problem: BargainingProblem          # estimated horizon, loss-adjusted rates
    ideal_problem: BargainingProblem    # true round length, nominal rates
    reference: Allocation               # the GNBS allocation of the ideal problem
    policies: dict[str, tuple[Allocation, KktReport | None, Allocation]]


def _solve_round(scenario: Scenario, d: _RoundDraws, loads: np.ndarray, g: int) -> _RoundSolve:
    """Build the round's two problems, as member columns, and solve the
    GNBS reference.  The estimated problem's horizon is the GO's
    :meth:`_RoundDraws.horizon`, and its upload rates lose what the loss
    draw says; the ideal problem has the true round length and the nominal
    rates.  The draws set a unicast pair's rates to inf, and the problem
    gives the GO a zero relay overhead, so neither uploads.  The ideal
    problem is the estimated one on another channel
    (:meth:`~airfair.bargaining.BargainingProblem.with_channel`)."""
    alphas = d.alpha.copy()
    alphas[g] *= scenario.go_alpha_factor
    upload = d.upload_mbps if d.loss is None else effective_upload_rate(d.upload_mbps, d.loss)
    problem = BargainingProblem(airtime=d.horizon(g), broadcast_rate=scenario.broadcast_mbps, ids=d.members,
                                data_sizes=loads, upload_rates=upload, raw_alphas=alphas, go=g)
    ideal_problem = problem.with_channel(d.t1 - d.t0, d.upload_mbps)
    return _RoundSolve(problem, ideal_problem, _gnbs_solve(ideal_problem)[0], {})


def _allocate(policy: str, solved: _RoundSolve) -> tuple[Allocation, KktReport | None, Allocation]:
    """The policy's allocation of the round, its certificate and its ideal
    allocation.  gsa's ideal allocation is the reference."""
    if policy == "gsa":
        allocation, kkt = gnbs_allocate(solved.problem)
        return allocation, kkt, solved.reference
    allocate = eql_allocate if policy == "eql" else wtd_allocate
    return allocate(solved.problem), None, allocate(solved.ideal_problem)


def _replay(schedule: Schedule, t1: float, order: Sequence[int], need: np.ndarray) -> np.ndarray:
    """The broadcast seconds each member realizes when the schedule runs
    until the true round end ``t1``, in member order: what its broadcast
    slots last before ``t1``, capped at its queue, ``need[k]`` seconds for
    member ``k``.  The i-th broadcast leg of the cycle is member
    ``order[i]``'s, the cycle order :func:`_round` built the schedule in;
    members outside it realize nothing.  Uploads only relay.

    No slot is visited: each leg's seconds come from
    :meth:`Schedule.leg_seconds`, so the replay runs the slots ``entries``
    prints, those after a node's queue drains sending nothing.  The floats
    differ from adding one slot at a time only by rounding.
    """
    realized = np.zeros(len(need))
    realized[order] = [s for (_, kind, _), s in zip(schedule.pattern, schedule.leg_seconds(t1)) if kind == "broadcast"]
    return np.minimum(realized, need, out=realized)


def run_scenario(scenario: Scenario, policy: str = "gsa") -> SimulationReport:
    """Simulate the scenario under one allocation policy.

    Rounds are delimited by the true join/leave times; only periods with at
    least two members allocate and transmit.  Idle rounds (nothing queued)
    are recorded but excluded from the report-level metric averages.
    """
    return _run(scenario, policy, _round_draws(scenario))


def _run(scenario: Scenario, policy: str, draws: Sequence[_RoundDraws]) -> SimulationReport:
    """:func:`run_scenario` on the scenario's precomputed round draws, a
    fold of :func:`_round` over them that alone writes the node totals:
    each round's ``delivered_mb`` adds to ``transmitted``, which the next
    round reads, and what its receivers heard, ``rx_ok @ delivered_mb``,
    to ``received``, in round order.  Draws without rx outcomes, the
    experiments' repetitions, fold no ``received`` and report None.  A
    round's election or schedule error names the round."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    ids = [n.id for n in scenario.nodes]
    transmitted = np.zeros(len(ids))
    received = np.zeros(len(ids)) if all(d.rx_ok is not None for d in draws) else None
    rounds: list[RoundRecord] = []
    for index, d in enumerate(draws):
        try:
            rounds.append(_round(scenario, policy, index, d, transmitted[d.at]))
        except (NoGoCandidateError, ScheduleError) as e:
            raise type(e)(f"round {index} at {d.t0:g}s: {e}") from e
        transmitted[d.at] += rounds[-1].delivered_mb
        if received is not None:
            received[d.at] += d.rx_ok @ rounds[-1].delivered_mb
    return SimulationReport(
        scenario=scenario,
        policy=policy,
        rounds=rounds,
        transmitted_mb=dict(zip(ids, transmitted.tolist())),
        received_mb=None if received is None else dict(zip(ids, received.tolist())),
        wpf_aggregate_vs_ideal=_mean([r.wpf_vs_ideal for r in rounds if not r.idle]),
    )


def _round(scenario: Scenario, policy: str, index: int, d: _RoundDraws, sent: np.ndarray) -> RoundRecord:
    """Round ``index`` of the policy's run on its draws ``d``, given the
    megabits each member has ``sent`` so far, in member order.  A member's
    load is its own data less what it has sent, 0 once drained.  The solve
    is looked up in, or added to, ``d.solves``, the only state the step
    writes; only a new one elects the GO: the one the draws fixed, a pinned
    one among them, else :func:`elect_go`'s pick by the loads."""
    members, rate = d.members, scenario.broadcast_mbps
    left = d.own_mb - sent
    loads = np.where(left > 1e-12 * d.own_mb, left, 0.0)
    key = loads.tobytes()       # float bits: 0.0 and -0.0 differ
    solved = d.solves.get(key)
    if solved is None:
        g = d.go if d.go is not None else members.index(elect_go(members, loads, d.hubs))
        solved = d.solves[key] = _solve_round(scenario, d, loads, g)
    if policy not in solved.policies:
        solved.policies[policy] = _allocate(policy, solved)
    problem, ideal_problem = solved.problem, solved.ideal_problem
    g = problem.go
    allocation, kkt, ideal_alloc = solved.policies[policy]

    schedule = None
    realized = np.zeros(len(members))
    wpf = math.nan
    if problem.active:      # else the round is idle
        x = allocation.broadcast_time
        # the cycle order: members are id-sorted, so the clients in id order, the GO last
        order = sorted((x > 1e-15).nonzero()[0].tolist(), key=g.__eq__)
        if order:
            _, up, down = slot_sizes(x[order], problem.betas[order], scenario.t_slot_s)
            legs = zip([members[k] for k in order], up.tolist(), down.tolist())
            schedule = build_schedule(legs, problem.airtime, t_start=d.t0)
            realized = _replay(schedule, d.t1, order, problem.caps)
        wpf = wpf_aggregate(ideal_problem, solved.reference, _realized(ideal_problem, realized))

    delivered = realized * rate
    realized.flags.writeable = delivered.flags.writeable = False
    return RoundRecord(
        index=index,
        t_start=d.t0,
        t_end=d.t1,
        members=members,
        go_id=members[g],
        mode=d.mode,
        airtime=problem.airtime,
        problem=problem,
        ideal_problem=ideal_problem,
        allocation=allocation,
        ideal_allocation=ideal_alloc,
        kkt=kkt,
        schedule=schedule,
        realized_broadcast=realized,
        delivered_mb=delivered,
        wpf_vs_ideal=wpf,
        idle=not problem.active,
    )


def _repetitions(scenario: Scenario, count: int, *parts):
    """The repetitions of an experiment: for each k < ``count``, the
    scenario reseeded with ``derive_seed(scenario.seed, *parts, k)`` and its
    :func:`_round_draws`, which every run of that repetition shares.  The
    experiments fold a Nash or wpf mean and never a report's
    ``received_mb``, so the draws have no rx outcomes and the runs' reports
    have ``received_mb`` None.  A generator, so a caller that fills its
    records repetition by repetition draws repetition k + 1 only once k's
    runs have ended."""
    for k in range(count):
        run = replace(scenario, seed=derive_seed(scenario.seed, *parts, k))
        yield run, _round_draws(run, rx=False)


def _records(runs, policies: Sequence[str], metric: str) -> Iterator[list[float]]:
    """An experiment's records, one per repetition of ``runs`` (pairs of a
    scenario and its shared draws, as :func:`_repetitions` yields them), in
    repetition order: the report's ``metric`` of each of ``policies``, in
    that order, from runs on the repetition's draws.  The runs go
    repetition by repetition, the policies inside each, so a failing
    experiment raises the error of the first failing run in that order; a
    caller that wants another order makes its records in several calls."""
    for run, draws in runs:
        yield [getattr(_run(run, policy, draws), metric) for policy in policies]


def repeated_contacts(scenario: Scenario, n_contacts: int) -> tuple[np.ndarray, float]:
    """Independent perturbed repetitions of one scenario.

    Every contact reruns the scenario with a fresh seed (fresh PCD error and
    loss draws) derived from the scenario's.
    Returns the running average of the realized Nash product and, as the
    asymptote reference, the value the same pipeline reaches with
    randomness switched off.

    The running average is ``np.cumsum`` of gsa's one-column records over
    the contacts, filled contact by contact, so the first contact that
    fails raises its error.
    """
    if n_contacts < 1:
        raise ValueError("need at least one contact")
    values = [v for v, in _records(_repetitions(scenario, n_contacts, "contact"), ("gsa",), "nash_product_realized")]
    running = np.cumsum(values) / np.arange(1, n_contacts + 1)
    ideal = run_scenario(replace(scenario, loss=None, pcd_error=None)).nash_product_realized
    return running, float(ideal)


def slot_size_sweep(scenario: Scenario, t_slot_list: Sequence[float],
                    repetitions: int) -> list[tuple[float, float, float]]:
    """Mean and spread of the fairness aggregate per basic slot size.

    Repetitions are paired: repetition r uses the same derived seed for every
    slot size, so differences across sizes isolate the slotting granularity.
    Returns (t_slot_s, mean wpf, stddev) per requested size: the floats
    ``np.mean`` and ``np.std`` give, both taken as :func:`_mean`.

    Neither the draws nor the bargaining depend on the slot size, so each
    repetition derives its draws once for all sizes, and a round that
    starts from the same loads at several sizes is solved once.  The sweep
    lists its repetitions once and then reads one size's column of gsa's
    wpf records at a time, over every repetition, so it fills size by size,
    in the order of a loop over sizes: the first error raised is the one
    separate runs of each size would raise, which a fill repetition by
    repetition would not be.
    """
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    runs = list(_repetitions(scenario, repetitions, "sweep"))
    out = []
    for t_slot in t_slot_list:
        sized = ((replace(paired, t_slot_s=float(t_slot)), draws) for paired, draws in runs)
        vals = [v for v, in _records(sized, ("gsa",), "wpf_aggregate_vs_ideal")]
        mean = _mean(vals)
        out.append((float(t_slot), mean, math.sqrt(_mean([(v - mean) * (v - mean) for v in vals]))))
    return out


def compare_policies(scenario: Scenario) -> dict[str, SimulationReport]:
    """Run the same scenario once per policy of ``POLICIES``, in that order,
    on one shared set of draws.

    A round that the policies reach with the same loads, as every round up
    to the first traffic round is, is built and solved once, not once per
    policy.  Each report is the one a separate :func:`run_scenario`
    returns, float for float.
    """
    draws = _round_draws(scenario)
    return {p: _run(scenario, p, draws) for p in POLICIES}


def compare_means(scenarios: Sequence[Scenario], repetitions: int) -> Iterator[dict[str, float]]:
    """The mean realized Nash product of each policy over ``repetitions``
    runs of each scenario, one dict per scenario, yielded as its runs end.

    Scenario d's repetition k is the one :func:`_repetitions` derives with
    the parts ("compare", d), and the policies share its draws, as in
    :func:`compare_policies`.  The records fill repetition by repetition,
    the policies of ``POLICIES`` inside each, the order of separate
    :func:`compare_policies` calls, so a failing scenario raises the error
    those would.  A policy's products are added from 0.0 in repetition
    order (:func:`~airfair.bargaining.left_sum`) and divided by
    ``repetitions``.
    """
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    for d, scenario in enumerate(scenarios):
        records = list(_records(_repetitions(scenario, repetitions, "compare", d), POLICIES, "nash_product_realized"))
        yield {policy: left_sum(column) / repetitions for policy, column in zip(POLICIES, zip(*records))}


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
