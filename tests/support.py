"""Shared problem builders for the test suite."""

import dataclasses
import math

import numpy as np

from airfair import BargainingProblem, KktReport, Player, Utility
from airfair.bargaining import (
    ROLE_CLIENT,
    ROLE_GO,
    Allocation,
    DomainError,
    _Curves,
    eql_allocate,
    gnbs_allocate,
    level,
    weighted_airtime,
    wtd_allocate,
)
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


def mixed_problem(rng: np.random.Generator, n: int, disagreements: bool = True) -> BargainingProblem:
    """Draw a feasible instance of ``n`` players over every utility form:
    the default normalized-linear over the cap, an explicit normalized-linear
    over another coefficient, log-shifted and power.  About one player in
    eight holds no data, and (with ``disagreements``) half of the others hold
    a disagreement point.  The budget lies between the disagreement spend and
    1.2 times the demand, so both contended and saturated cases show up.
    """
    rate = 11.0
    go = int(rng.integers(n))
    loads = 10.0 ** rng.uniform(-1.0, 2.0, size=n)
    loads[rng.random(n) < 0.125] = 0.0
    caps = loads / rate
    betas = np.where(np.arange(n) == go, 0.0, 10.0 ** rng.uniform(-1.0, 1.0, size=n))
    d = np.zeros(n)
    if disagreements:
        d = np.where(rng.random(n) < 0.5, caps * rng.uniform(0.0, 0.9, size=n), 0.0)
    forms = rng.integers(4, size=n)
    players = []
    for i in range(n):
        utility = (None, Utility.normalized_linear(float(caps[i] or 1.0) * float(rng.uniform(0.5, 2.0))),
                   Utility.log_shifted(float(10.0 ** rng.uniform(-1.5, 1.5))),
                   Utility.power(float(rng.uniform(0.1, 1.0))))[forms[i]]
        players.append(Player(
            id=f"p{i}",
            data_size=float(loads[i]),
            upload_rate=math.inf if i == go else rate / float(betas[i]),
            alpha=float(10.0 ** rng.uniform(-1.0, 1.0)),
            disagreement=float(d[i]),
            utility=utility,
            role=ROLE_GO if i == go else ROLE_CLIENT,
        ))
    spent = float(np.sum((1.0 + betas) * d))
    demand = float(np.sum((1.0 + betas) * caps))
    airtime = spent + rng.uniform(0.05, 1.2) * (demand - spent) if demand > spent else 1.0
    return BargainingProblem(players, airtime=airtime, broadcast_rate=rate)


def probe_allocations(problem: BargainingProblem, rng: np.random.Generator) -> list:
    """The three policies' allocations of ``problem`` and a random one in
    which about a fifth of the players sit at their disagreement point (a
    zero gain) and another fifth at their cap."""
    n = len(problem.ids)
    d, cap = problem.disagreements, problem.caps
    pick = rng.random(n)
    x = np.where(pick < 0.2, d, np.where(pick > 0.8, cap, d + rng.uniform(0.05, 1.0, size=n) * (cap - d)))
    return [gnbs_allocate(problem)[0], eql_allocate(problem), wtd_allocate(problem),
            Allocation(x, problem.betas * x, saturated=False)]


# group sizes 1..64: every size up to 8, then a roughly log-spaced ladder
GROUP_SIZES = (*range(1, 9), 10, 12, 16, 20, 24, 32, 40, 48, 56, 64)


# ---------------------------------------------------------------------------
# Player-by-player references for the bargaining layer's array forms: plain
# loops over the players that evaluate every utility through its own
# ``value`` and ``derivative``, in the order the array forms must keep.


def reference_columns(players, broadcast_rate: float) -> dict[str, np.ndarray]:
    """alphas, betas, caps and disagreements of ``players``, one at a time."""
    raw = np.array([p.alpha for p in players], dtype=float)
    return {
        "alphas": raw / raw.sum(),
        "betas": np.array([0.0 if p.role == ROLE_GO else broadcast_rate / p.upload_rate for p in players]),
        "caps": np.array([p.data_size / broadcast_rate for p in players]),
        "disagreements": np.array([p.disagreement for p in players], dtype=float),
    }


def reference_demand(problem) -> float:
    total = 0.0
    for i in problem.active:
        total += (1.0 + problem.betas[i]) * problem.caps[i]
    return float(total)


def reference_curves(problem) -> _Curves:
    """The active players' level curves, their kinds set player by player."""
    idx = np.array(problem.active, dtype=np.intp)
    weight = 1.0 + problem.betas[idx]
    d, cap = problem.disagreements[idx], problem.caps[idx]
    r = problem.alphas[idx] / weight
    kind = np.zeros(len(idx), dtype=np.int8)
    coeff = np.zeros(len(idx))
    for j, i in enumerate(idx):
        u = problem.utilities[i]
        if u.kind == "log-shifted":
            kind[j], coeff[j] = 1, u.coeff / (1.0 + u.coeff * d[j])
        elif u.kind == "power":
            kind[j], coeff[j] = (2 if d[j] > 0 else 0), u.coeff
            r[j] *= u.coeff
    top = (cap - d) / r
    m = kind == 1
    k, room = coeff[m], cap[m] - d[m]
    top[m] = np.log1p(k * room) * (1.0 + k * room) / (r[m] * k)
    m = kind == 2
    t = (cap[m] - d[m]) / d[m]
    top[m] = d[m] * (t - np.expm1((1.0 - coeff[m]) * np.log1p(t))) / r[m]
    return _Curves.sorted_by_top(idx, weight, d, cap, r, kind, coeff, top)


def reference_time_at_level(problem, i: int, lvl: float) -> float:
    """Broadcast time at which player i reaches ``lvl``, by bisection on
    :func:`airfair.bargaining.level` over (disagreement, cap] to a relative
    tolerance of 1e-9."""
    lo, hi = problem.disagreements[i], problem.caps[i]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        val = level(problem, i, mid)
        if abs(val - lvl) <= 1e-9 * max(1.0, abs(lvl)):
            return float(mid)
        if val < lvl:
            lo = mid
        else:
            hi = mid
    return float(hi)


def reference_sample_feasible(problem, count: int, rng: np.random.Generator) -> np.ndarray:
    """Random feasible allocations by spilling: hand the remaining budget to
    the uncapped players in proportion to Dirichlet shares, clip those that
    pass their caps, and repeat with the rest until the budget is spent."""
    act = list(problem.active)
    if problem.demand <= problem.airtime:
        raise ValueError("sampling needs an unsaturated problem")
    out = np.zeros((count, len(problem.ids)))
    betas = problem.betas
    caps = problem.caps
    for r in range(count):
        weights = rng.dirichlet(np.ones(len(act)))
        x = np.zeros(len(problem.ids))
        remaining = problem.airtime
        pool = {act[k]: weights[k] for k in range(len(act))}
        while remaining > 1e-15 and pool:
            wsum = sum(pool.values())
            spill = {}
            for i, w in pool.items():
                xi = x[i] + remaining * (w / wsum) / (1.0 + betas[i])
                if xi >= caps[i]:
                    spill[i] = True
                    xi = caps[i]
                x[i] = xi
            used = weighted_airtime(problem, x)
            remaining = problem.airtime - used
            for i in spill:
                pool.pop(i)
        out[r] = x
    return out


def reference_nash_product(problem, allocation) -> float:
    prod = 1.0
    x = allocation.broadcast_time
    for i in problem.active:
        u = problem.utilities[i]
        gain = float(u.value(x[i]) - u.value(problem.disagreements[i]))
        if gain <= 0:
            return 0.0
        prod *= gain ** problem.alphas[i]
    return float(prod)


def reference_log_nash_welfare(problem, allocation) -> float:
    total = 0.0
    x = allocation.broadcast_time
    for i in problem.active:
        u = problem.utilities[i]
        gain = float(u.value(x[i]) - u.value(problem.disagreements[i]))
        if gain <= 0:
            return -math.inf
        total += problem.alphas[i] * math.log(gain)
    return float(total)


def reference_wpf_aggregate(problem, gnbs_alloc, other_alloc) -> float:
    total = 0.0
    for i in problem.active:
        if problem.disagreements[i] != 0:
            raise DomainError("wpf_aggregate assumes zero disagreement points")
        u = problem.utilities[i]
        ug = float(u.value(gnbs_alloc.broadcast_time[i]))
        if ug <= 0:
            raise DomainError("bargaining allocation must give positive utility")
        uo = float(u.value(other_alloc.broadcast_time[i]))
        total += problem.alphas[i] * (uo - ug) / ug
    return float(total)


def reference_kkt_residuals(problem, allocation, lam: float, iterations: int = 0) -> KktReport:
    """The certificate with every level from :func:`airfair.bargaining.level`."""
    n = len(problem.ids)
    stationarity = np.zeros(n)
    slackness = np.zeros(n)
    x = allocation.broadcast_time
    for i in problem.active:
        cap = problem.caps[i]
        if x[i] <= problem.disagreements[i]:
            stationarity[i] = math.inf
            continue
        inv_level = 1.0 / level(problem, i, min(x[i], cap))
        if cap - x[i] <= 1e-9 * max(1.0, cap):
            slackness[i] = max(max(0.0, lam - inv_level), abs((inv_level - lam) * (x[i] - cap)))
        else:
            stationarity[i] = abs(inv_level - lam)
    target = problem.demand if allocation.saturated else problem.airtime
    budget = abs(weighted_airtime(problem, x) - target)
    stat = float(stationarity.max(initial=0.0))
    worst = max(stat, float(slackness.max(initial=0.0)), budget)
    relative = max(stat / lam if lam > 0 else stat, budget / target if target > 0 else budget)
    path = "saturated" if allocation.saturated else "contended"
    return KktReport(float(lam), stationarity, slackness, float(budget), float(worst),
                     float(relative), path, int(iterations))


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


def exact_bits(value):
    """A report as nested lists, every float spelled exactly."""
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [(f.name, exact_bits(getattr(value, f.name))) for f in dataclasses.fields(value)]
    if isinstance(value, np.ndarray):
        return [value.dtype.str, value.shape, exact_bits(value.tolist())]
    if isinstance(value, dict):
        return [(k, exact_bits(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [exact_bits(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    return value
