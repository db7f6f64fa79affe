"""Shared problem builders for the test suite."""

import math

import numpy as np

from airfair import BargainingProblem, Player, Utility
from airfair.bargaining import ROLE_CLIENT, ROLE_GO
from airfair.grouping import ConnectivityGraph, ContactEntry, ContactTable, SlotEntry
from airfair.simulate import estimate_pcd
from airfair.streams import part_key

# The six-node example bundled as the "table1" preset: one group owner (n4)
# with double bargaining power, five clients uploading at the broadcast rate.
TABLE1_LOADS = {"n1": 10.0, "n2": 20.0, "n3": 40.0, "n4": 40.0, "n5": 60.0, "n6": 80.0}
TABLE1_RATE = 11.0
TABLE1_AIRTIME = 10.0
TABLE1_GO = "n4"


def table1_problem(airtime: float = TABLE1_AIRTIME) -> BargainingProblem:
    players = []
    for nid, load in TABLE1_LOADS.items():
        is_go = nid == TABLE1_GO
        players.append(
            Player(
                id=nid,
                data_size=load,
                upload_rate=math.inf if is_go else TABLE1_RATE,
                alpha=2.0 if is_go else 1.0,
                role=ROLE_GO if is_go else ROLE_CLIENT,
            )
        )
    return BargainingProblem(players, airtime=airtime, broadcast_rate=TABLE1_RATE)


# Four nodes where B and D are out of each other's range, so only A and C
# can coordinate the whole group; C holds the most data.
FOUR_LOADS = {"A": 10.0, "B": 20.0, "C": 30.0, "D": 40.0}


def four_node_tables() -> dict[str, ContactTable]:
    tables = {}
    for owner in FOUR_LOADS:
        entries = tuple(
            ContactEntry(nid, pcd=30.0, data_size=load)
            for nid, load in FOUR_LOADS.items()
            if nid != owner
        )
        tables[owner] = ContactTable(owner, entries)
    return tables


def four_node_graph() -> ConnectivityGraph:
    return ConnectivityGraph("ABCD", [("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"), ("C", "D")])


def random_problem(
    rng: np.random.Generator,
    size: int | None = None,
    kinds: tuple[str, ...] = ("normalized-linear", "log-shifted"),
    beta_hi: float = 3.0,
    allow_disagreement: bool = False,
) -> BargainingProblem:
    """Draw a feasible random instance with one group owner.

    Weighted demand lands anywhere between well under and well over the
    airtime budget, so both contended and saturated cases show up.
    """
    n = int(size if size is not None else rng.integers(2, 5))
    go = int(rng.integers(0, n))
    airtime = float(rng.uniform(2.0, 20.0))
    rate = float(rng.uniform(5.0, 20.0))
    betas = np.where(np.arange(n) == go, 0.0, rng.uniform(0.0, beta_hi, size=n))
    caps = rng.uniform(0.1, 0.9, size=n) * airtime / (1.0 + betas)
    disagreements = np.zeros(n)
    if allow_disagreement:
        disagreements = caps * rng.uniform(0.0, 0.3, size=n)
        weighted = float(np.sum((1.0 + betas) * disagreements))
        if weighted >= 0.8 * airtime:
            disagreements *= 0.8 * airtime / weighted
    players = []
    for i in range(n):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind == "normalized-linear":
            utility = None  # problem constructor defaults to data_size / rate cap
        elif kind == "log-shifted":
            utility = Utility.log_shifted(float(rng.uniform(0.2, 3.0)))
        else:
            utility = Utility.power(float(rng.uniform(0.3, 1.0)))
        players.append(
            Player(
                id=f"p{i}",
                data_size=float(caps[i] * rate),
                upload_rate=math.inf if betas[i] == 0.0 else rate / float(betas[i]),
                alpha=float(rng.uniform(0.5, 2.0)),
                disagreement=float(disagreements[i]),
                utility=utility,
                role=ROLE_GO if i == go else ROLE_CLIENT,
            )
        )
    return BargainingProblem(players, airtime=airtime, broadcast_rate=rate)


def wide_problem(rng: np.random.Generator) -> BargainingProblem:
    """Draw a contended instance over wide parameter ranges.

    Group sizes are log-uniform over 2..64 and mix all three utility kinds.
    Bargaining weights span four decades; caps, upload ratios (beta) and
    log gains three; power exponents lie in [0.1, 1].  Half of the players
    hold a disagreement point, and the budget sits 5-95% of the way from the
    disagreement spend to the full demand.
    """
    n = int(round(2.0 * 32.0 ** rng.uniform()))
    go = int(rng.integers(n))
    rate = 11.0
    alphas = 10.0 ** rng.uniform(-2.0, 2.0, size=n)
    caps = 10.0 ** rng.uniform(-2.0, 1.0, size=n)
    betas = np.where(np.arange(n) == go, 0.0, 10.0 ** rng.uniform(-2.0, 1.0, size=n))
    disagreements = np.where(rng.random(n) < 0.5, caps * rng.uniform(0.0, 0.9, size=n), 0.0)
    kinds = rng.integers(3, size=n)
    gains = 10.0 ** rng.uniform(-1.5, 1.5, size=n)
    exponents = rng.uniform(0.1, 1.0, size=n)
    players = []
    for i in range(n):
        utility = None
        if kinds[i] == 1:
            utility = Utility.log_shifted(float(gains[i]))
        elif kinds[i] == 2:
            utility = Utility.power(float(exponents[i]))
        players.append(Player(
            id=f"p{i}",
            data_size=float(caps[i] * rate),
            upload_rate=math.inf if i == go else rate / float(betas[i]),
            alpha=float(alphas[i]),
            disagreement=float(disagreements[i]),
            utility=utility,
            role=ROLE_GO if i == go else ROLE_CLIENT,
        ))
    spent = float(np.sum((1.0 + betas) * disagreements))
    demand = float(np.sum((1.0 + betas) * caps))
    airtime = spent + rng.uniform(0.05, 0.95) * (demand - spent)
    return BargainingProblem(players, airtime=airtime, broadcast_rate=rate)


# ---------------------------------------------------------------------------
# Slot-by-slot reference for the schedule and its replay: plain loops that
# define, float for float, what the simulator's array code must compute.


def reference_entries(pattern, interval: float, t_start: float) -> list[SlotEntry]:
    """Repeat the (node, kind, seconds) cycle from ``t_start`` until the
    interval ends, one slot at a time, truncating the final slot."""
    end = t_start + interval
    entries = []
    t = t_start
    while True:
        for node, kind, dur in pattern:
            if t >= end - 1e-12:
                break
            take = min(dur, end - t)
            entries.append(SlotEntry(node, kind, t, take))
            t += take
            if take < dur:
                break
        else:
            continue
        break
    return entries


def reference_replay(schedule, t1, members, need, rate, rx_ok, transmitted, received):
    """Walk the schedule's slots one at a time; same contract as
    ``airfair.simulate._replay``."""
    col = {m: k for k, m in enumerate(members)}
    need = {m: need[k] for k, m in enumerate(members)}
    realized = {m: 0.0 for m in members}
    delivered = {m: 0.0 for m in members}
    for entry in reference_entries(schedule.pattern, schedule.interval, schedule.t_start):
        if entry.start >= t1:
            break
        if entry.kind != "broadcast":
            continue
        take = min(entry.duration, t1 - entry.start)
        use = min(take, need[entry.node])
        if use <= 0:
            continue
        need[entry.node] -= use
        realized[entry.node] += use
        mb = use * rate
        delivered[entry.node] += mb
        transmitted[entry.node] += mb
        for receiver in members:
            if receiver != entry.node and rx_ok[col[receiver], col[entry.node]]:
                received[receiver] += mb
    return realized, delivered


# ---------------------------------------------------------------------------
# Per-draw reference for the simulator's random draws: every draw builds its
# own SeedSequence and Philox, which defines the numbers the batched
# derivation must reproduce.


def reference_stream(seed: int, *parts) -> np.random.Generator:
    """A fresh generator on the stream keyed by (seed, parts...)."""
    entropy = [seed & 0xFFFFFFFFFFFFFFFF] + [part_key(p) for p in parts]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def reference_round_draws(scenario) -> list[tuple]:
    """(t0, t1, members, estimated PCDs, loss probabilities, rx_ok) of every
    round with at least two members, one stream per draw."""
    events = sorted({t for n in scenario.nodes for t in (n.join_s, n.leave_s)})
    out = []
    for t0, t1 in zip(events, events[1:]):
        members = sorted(n.id for n in scenario.nodes if n.join_s <= t0 < n.leave_s)
        if len(members) < 2:
            continue
        ridx = len(out)
        est = np.zeros((len(members), len(members)))
        for i, a in enumerate(members):
            for j in range(i + 1, len(members)):
                b = members[j]
                true = min(scenario.node(a).leave_s, scenario.node(b).leave_s) - t0
                rng = reference_stream(scenario.seed, "pcd", ridx, a, b)
                est[i, j] = est[j, i] = estimate_pcd(true, scenario.pcd_error, rng)
        loss = None
        if scenario.loss is not None:
            loss = [float(reference_stream(scenario.seed, "loss", ridx, m).uniform(scenario.loss.lo, scenario.loss.hi))
                    for m in members]
        rx_ok = ~np.eye(len(members), dtype=bool)
        if loss is not None:
            for i, a in enumerate(members):
                for j, b in enumerate(members):
                    if a != b:
                        rx_ok[i, j] = reference_stream(scenario.seed, "rx", ridx, a, b).random() >= loss[i]
        out.append((t0, t1, tuple(members), est, loss, rx_ok))
    return out


def float_bits(values) -> list[str]:
    """Exact spelling of floats, sign of zero included, for ``==`` checks."""
    return [float(v).hex() for v in values]
