"""Shared problem builders for the test suite."""

import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np

from airfair import BargainingProblem, KktReport, Player, Utility, bargaining, simulate
from airfair.bargaining import (
    _EPS,
    _ROOT_MAX_ITER,
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
from airfair.grouping import ConnectivityGraph, ContactEntry, ContactTable, SlotEntry, elect_go
from airfair.simulate import (
    PCD_FLOOR,
    POLICIES,
    _round_draws,
    _run,
    compare_policies,
    derive_seed,
    estimate_pcd,
    run_scenario,
    scale_contact_durations,
)
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


def reference_select_roles(tables, graph) -> dict[str, str]:
    """``select_roles`` as a scan per member: its load is its entry in the
    first other member's table that holds it, else 0."""
    members = sorted(tables)

    def load_of(m: str) -> float:
        for other, table in tables.items():
            if other == m:
                continue
            for e in table.entries:
                if e.id == m:
                    return e.data_size
        return 0.0

    go = elect_go(members, [load_of(m) for m in members], [graph.reaches_all(m, members) for m in members])
    return {m: ("go" if m == go else "client") for m in members}


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


def wide_problem(rng: np.random.Generator, linear: bool = False) -> BargainingProblem:
    """Draw a contended instance over wide parameter ranges.

    Group sizes are log-uniform over 2..64 and mix all three utility kinds.
    Bargaining weights span four decades; caps, upload ratios (beta) and
    log gains three; power exponents lie in [0.1, 1].  Half of the players
    hold a disagreement point, and the budget sits 5-95% of the way from the
    disagreement spend to the full demand.  A ``linear`` instance makes the
    same draws, then gives every player the normalized-linear utility and no
    disagreement point.
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
    if linear:
        kinds[:], disagreements[:] = 0, 0.0
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


@st.composite
def documents(draw, rates=(11.0, 24.0, 54.0), uploads=(5.5, 11.0, 24.0, 54.0), amounts=st.integers(0, 120)) -> dict:
    """Scenario documents: 2-8 nodes with joins and leaves on a 1 s grid,
    each with an upload rate of ``uploads`` and a fixed or per-peer amount
    of whole megabits (0 included; ``amounts`` draws it), a broadcast rate of
    ``rates``, loss and PCD noise each on or off, and a pinned GO or none."""
    ids = [f"m{k}" for k in draw(st.lists(st.integers(1, 99), min_size=2, max_size=8, unique=True))]
    nodes = []
    for i in ids:
        join = draw(st.integers(0, 12))
        nodes.append({"id": i, "join_s": float(join), "leave_s": float(join + draw(st.integers(1, 16))),
                      "upload_mbps": draw(st.sampled_from(uploads)),
                      "alpha": draw(st.sampled_from((0.5, 1.0, 2.0))),
                      draw(st.sampled_from(("data_mb", "data_mb_per_peer"))): float(draw(amounts))})
    doc = {"nodes": nodes, "broadcast_mbps": draw(st.sampled_from(rates)),
           "t_slot_ms": draw(st.sampled_from((1.0, 5.0, 20.0))), "seed": draw(st.integers(0, 2**16))}
    if draw(st.booleans()):
        lo = draw(st.sampled_from((0.0, 0.05, 0.2)))
        doc["loss"] = {"lo": lo, "hi": lo + draw(st.sampled_from((0.0, 0.1, 0.3)))}
    if draw(st.booleans()):
        doc["pcd_error"] = {"stddev": draw(st.sampled_from((0.04, 1.0))), "mean": draw(st.sampled_from((0.0, 0.5)))}
    if draw(st.booleans()):
        doc["go"] = draw(st.sampled_from(ids))
    return doc


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


def reference_water_fill(curves: _Curves, budget: float) -> tuple[float, np.ndarray, int]:
    """Common level, sorted broadcast times and iteration count that spend
    ``budget``, as ``_Curves.water_fill`` found them by probing: a binary
    search over the sorted cap levels that inverts every curve past each
    probe, then, on the segment where the budget binds, a closed form when
    its players are all linear and Newton's method from the segment's lower
    end otherwise, and one more inversion for the times."""
    w, d, r, cap, top = curves.weight, curves.d, curves.r, curves.cap, curves.top
    spent = np.cumsum(w * cap)
    lo, hi = 0, len(top) - 1
    probes = 0
    while lo < hi:
        mid = (lo + hi) // 2
        x, _ = curves.times(top[mid], slice(mid + 1, None))
        probes += 1
        if spent[mid] + w[mid + 1:] @ x >= budget:
            hi = mid
        else:
            lo = mid + 1
    s_lo, s_hi = (top[lo - 1] if lo else 0.0), top[lo]
    target = budget - (spent[lo - 1] if lo else 0.0)
    steps = 0
    if not np.count_nonzero(curves.kind[lo:]):
        s = (target - w[lo:] @ d[lo:]) / (w[lo:] @ r[lo:])
        s = min(max(s, s_lo), s_hi)
    else:
        s = s_lo
        for steps in range(1, _ROOT_MAX_ITER + 1):
            x, dx = curves.times(s, slice(lo, None))
            step = (target - w[lo:] @ x) / (w[lo:] @ dx)
            if step <= 4.0 * _EPS * s:
                s = min(max(s + step, s_lo), s_hi)
                break
            s = min(s + step, s_hi)
    x = cap.copy()
    x[lo:] = np.minimum(cap[lo:], curves.times(s, slice(lo, None))[0])
    return float(s), x, probes + steps


def reference_lambert_w(q: np.ndarray) -> np.ndarray:
    """Principal branch of y e^y = q for q >= 0, as ``bargaining._lambert_w``
    solved it before its two fixed steps: Halley's method from Winitzki's
    approximation, until every step is within rounding.  e^y overflows for q
    above about 5e307."""
    l1 = np.log1p(q)
    y = l1 * (1.0 - np.log1p(l1) / (2.0 + l1))
    for _ in range(_ROOT_MAX_ITER):
        e = np.exp(y)
        f = y * e - q
        step = f / (e * (y + 1.0) - (y + 2.0) * f / (2.0 * y + 2.0))
        y = y - step
        if np.all(np.abs(step) <= 4.0 * _EPS * y):
            break
    return y


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
    """The certificate player by player, with each inverse level, alpha /
    (1 + beta) times the utility's derivative over its gain, from the
    player's own :class:`Utility`, as :func:`airfair.bargaining.level`
    evaluates it."""
    n = len(problem.ids)
    stationarity = np.zeros(n)
    slackness = np.zeros(n)
    x = allocation.broadcast_time
    for i in problem.active:
        cap = problem.caps[i]
        if x[i] <= problem.disagreements[i]:
            stationarity[i] = math.inf
            continue
        u, xc = problem.utilities[i], min(x[i], cap)
        gain = u.value(xc) - u.value(problem.disagreements[i])
        inv_level = problem.alphas[i] / (1.0 + problem.betas[i]) * u.derivative(xc) / gain
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
# add one slot at a time, which the cycle arithmetic must match within the
# bounds its tests state.


def exact_linear_allocation(problem, policy: str) -> list[Fraction]:
    """The exact broadcast times that ``policy`` ("gsa", "eql" or "wtd")
    gives a normalized-linear problem without disagreement points, its float
    columns (airtime, alphas, betas, caps, data sizes) taken as exact
    rationals.  Saturation is the problem's own test, ``problem.saturated``.

    Each policy sets x_i = min(cap_i, r_i s) for one level s that spends
    the airtime, with r_i = alpha_i / (1 + beta_i) for gsa, 1 for eql and
    data_i for wtd.  The caps bind in the order of cap_i / r_i, so s is
    found by walking that order, one player at a time and without
    rounding, where the solver searches the breakpoints in floats."""
    if np.count_nonzero(problem.kinds) or np.count_nonzero(problem.disagreements):
        raise ValueError("needs a normalized-linear problem without disagreement points")
    caps = [Fraction(c) for c in problem.caps.tolist()]
    if problem.saturated:
        return caps
    weight = [1 + Fraction(b) for b in problem.betas.tolist()]
    slope = {"gsa": [Fraction(a) / w for a, w in zip(problem.alphas.tolist(), weight)],
             "eql": [Fraction(1)] * len(caps),
             "wtd": [Fraction(d) for d in problem.data_sizes.tolist()]}[policy]
    order = sorted((k for k, c in enumerate(caps) if c > 0), key=lambda k: caps[k] / slope[k])
    capped, rate = Fraction(0), sum(weight[k] * slope[k] for k in order)
    for k in order:     # cap each player whose cap level spends less than the airtime
        if capped + rate * (caps[k] / slope[k]) >= Fraction(problem.airtime):
            break
        capped, rate = capped + weight[k] * caps[k], rate - weight[k] * slope[k]
    s = (Fraction(problem.airtime) - capped) / rate
    return [min(c, r * s) for c, r in zip(caps, slope)]


def exact_replay(pattern, members, t_start, interval, t1, need, cycles=None, runs=None):
    """The broadcast seconds each member sends by the rule of
    ``Schedule.leg_seconds``, capped at its queue, in rationals: every
    argument but ``members`` is exact, the legs of ``pattern`` as
    (node, kind, seconds) and ``need`` one queue in seconds per member.

    The cycle is the exact sum of the legs, K = floor(T / cycle) over the
    T = min(t1, t_start + interval) - t_start seconds the schedule runs,
    rest = T - K * cycle, and a leg of d at offset o runs K * d +
    min(d, rest - o), or K * d alone when rest - o is 1e-12 s or less.
    Returns the realized seconds in member order, the exact K and whether
    each leg runs in the cut cycle.  ``cycles`` and ``runs``, when given,
    take the place of K and of those decisions in the realized seconds, so
    that a float replay whose floor or cut test went the other way is
    measured on its own decisions."""
    cycle = sum(d for *_, d in pattern)
    span = max(min(t1, t_start + interval) - t_start, Fraction(0))
    exact_cycles = span // cycle
    k = exact_cycles if cycles is None else cycles
    rest = span - k * cycle
    offsets = list(itertools.accumulate((d for *_, d in pattern), initial=Fraction(0)))
    exact_runs = [rest - o > Fraction(1e-12) for o in offsets[:-1]]
    realized = [Fraction(0)] * len(members)
    for (node, kind, d), o, run in zip(pattern, offsets, exact_runs if runs is None else runs):
        if kind == "broadcast":
            realized[members.index(node)] += k * d + (min(d, rest - o) if run else 0)
    return [min(r, q) for r, q in zip(realized, need)], exact_cycles, exact_runs


def ulps_from_exact(values, exact) -> float:
    """The largest distance of ``values`` from their ``exact`` rationals, in
    units in the last place of each exact value rounded to a float."""
    return max(float(abs(Fraction(v) - e) / Fraction(math.ulp(float(e)))) for v, e in zip(values, exact))


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


def _broadcast_columns(schedule, order) -> dict:
    """Each broadcasting node's member position: the i-th broadcast leg of
    the cycle is member ``order[i]``'s."""
    return dict(zip((node for node, kind, _ in schedule.pattern if kind == "broadcast"), order))


def reference_replay(schedule, t1, order, need):
    """Walk the schedule's slots one at a time; same contract as
    ``airfair.simulate._replay``."""
    col = _broadcast_columns(schedule, order)
    need = np.array(need, dtype=float)
    realized = np.zeros(len(need))
    for entry in reference_entries(schedule.pattern, schedule.interval, schedule.t_start):
        if entry.start >= t1:
            break
        if entry.kind != "broadcast":
            continue
        k = col[entry.node]
        take = min(entry.duration, t1 - entry.start)
        use = min(take, need[k])
        if use <= 0:
            continue
        need[k] -= use
        realized[k] += use
    return realized


def reference_fold_replay(schedule, t1, order, need):
    """Fold the reference slots (``reference_entries``) per member as
    arrays: each broadcast slot sends for as long as it lasts before
    ``t1``, and a member sends no more than its queue; same contract as
    ``airfair.simulate._replay``."""
    entries = reference_entries(schedule.pattern, schedule.interval, schedule.t_start)
    starts = np.array([e.start for e in entries])
    durations = np.array([e.duration for e in entries])
    col = _broadcast_columns(schedule, order)
    slot_col = np.array([col[e.node] if e.kind == "broadcast" else -1 for e in entries])
    take = np.clip(t1 - starts, 0.0, durations)
    broadcast = slot_col >= 0
    realized = np.bincount(slot_col[broadcast], weights=take[broadcast], minlength=len(need))
    return np.minimum(realized, np.asarray(need, dtype=float))


def normal_cdf(z: float) -> float:
    """Φ, the standard normal CDF, from ``math.erf``."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def expected_nash(scenario, steps) -> list[dict[str, tuple[float, float]]]:
    """E[f(H)] and sd(f(H)) of every policy for a one-round scenario whose
    GO is fixed before any policy runs and whose only noise is PCD error,
    once per grid step in ``steps``.  f(h) is the policy's realized Nash
    product when the round's horizon is h, and H, the GO's horizon, is the
    smallest of its n - 1 estimates T + e over the true PCD T, with
    e ~ N(mean, stddev).

    f(h) runs the clean scenario's round with every PCD set to h, once per
    distinct h over all the grids, on draws that every policy shares, so
    the round's problems are built once per h.  H has the density
    (n - 1) φ(z) (1 - Φ(z))^(n - 2) / stddev at z = (h - T - mean) / stddev
    (order statistics; David & Nagaraja, "Order Statistics", 2003),
    integrated by the trapezoid rule at about ``step`` seconds over z in
    [-8, 4], which holds all but some 3e-15 of the mass for n = 6.  The
    floor at PCD_FLOOR puts an atom there, where the schedule does not fit;
    it must be below 1e-12 to be left out."""
    model = scenario.pcd_error
    assert scenario.loss is None and model is not None and model.stddev > 0
    clean = dataclasses.replace(scenario, pcd_error=None)
    d, = _round_draws(clean)
    assert d.go is not None and (d.pcd == d.pcd[0]).all()     # the GO's n - 1 pairs, each with true PCD T
    n, T = len(d.members), float(d.pcd[0])
    assert 1.0 - (1.0 - normal_cdf((PCD_FLOOR - T - model.mean) / model.stddev)) ** (n - 1) < 1e-12
    lo, hi = T + model.mean - 8.0 * model.stddev, T + model.mean + 4.0 * model.stddev
    assert lo > PCD_FLOOR
    nash = {}

    def f(h: float) -> list[float]:
        if h not in nash:
            d_h = dataclasses.replace(d, pcd=np.full(len(d.pcd), h))
            nash[h] = [_run(clean, p, [d_h]).nash_product_realized for p in POLICIES]
        return nash[h]

    out = []
    for step in steps:
        h = np.linspace(lo, hi, round((hi - lo) / step) + 1)
        z = (h - T - model.mean) / model.stddev
        density = np.array([(n - 1) * math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
                            * (1.0 - normal_cdf(x)) ** (n - 2) for x in z.tolist()]) / model.stddev
        values = np.array([f(x) for x in h.tolist()]).T      # one row per policy

        def trapezoid(y):       # by hand: numpy 2 dropped np.trapz, and numpy 1.24 has no np.trapezoid
            return (h[1] - h[0]) * (y.sum(axis=-1) - 0.5 * (y[..., 0] + y[..., -1]))

        assert abs(trapezoid(density) - 1.0) < 1e-9
        means = trapezoid(values * density)
        sds = np.sqrt(trapezoid(values * values * density) - means * means)
        out.append({p: (float(m), float(sd)) for p, m, sd in zip(POLICIES, means, sds)})
    return out


# ---------------------------------------------------------------------------
# Per-draw reference for the simulator's random draws: every draw builds its
# own SeedSequence and Philox, which defines the numbers the batched
# derivation must reproduce.


def reference_stream(seed: int, *parts) -> np.random.Generator:
    """A fresh generator on the stream keyed by (seed, parts...)."""
    entropy = [seed & 0xFFFFFFFFFFFFFFFF] + [part_key(p) for p in parts]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


# Philox4x64-10 per key lane (c0 with k0, c2 with k1): the round multiplier,
# its low and high 32-bit halves, and counter word c1 or c3 after the first
# round on counter (1, 0, 0, 0); then the Weyl increments that bump the key
# before rounds 2..10.
_REF_PHILOX_LANES = np.array([[0xD2E7470EE14C6C93, 0xCA5A826395121157],
                              [0xE14C6C93, 0x95121157],
                              [0xD2E7470E, 0xCA5A8263],
                              [0, 0xD2E7470EE14C6C93]], np.uint64)
_REF_PHILOX_BUMPS = np.arange(1, 10, dtype=np.uint64)[:, None] * np.array(
    [0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], np.uint64)
_REF_LO32, _REF_32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def reference_first_words(keys: np.ndarray) -> np.ndarray:
    """Word 0 of Philox4x64-10 at counter (1, 0, 0, 0) for every key row,
    as ``streams.first_words`` computed it with fresh arrays in every round
    and both counter lanes kept: the bit-exact reference for its in-place
    pass."""
    n = len(keys)
    m, m_lo, m_hi, b = np.repeat(_REF_PHILOX_LANES, n, axis=1)   # b = [c1 | c3]
    a = keys.T.ravel()                                           # [c0 | c2] = [k0 | k1] after round 1
    for k in a + np.repeat(_REF_PHILOX_BUMPS, n, axis=1):        # the keys of rounds 2..10
        x_lo, x_hi = a & _REF_LO32, a >> _REF_32
        mid = x_lo * m_hi + (x_lo * m_lo >> _REF_32)             # < 2**64: no carry is lost
        top = x_hi * m_lo + (mid & _REF_LO32)
        hi = x_hi * m_hi + (mid >> _REF_32) + (top >> _REF_32)
        lo = a * m
        a = np.concatenate((hi[n:], hi[:n])) ^ b ^ k             # c0 = hi1 ^ c1 ^ k0, c2 = hi0 ^ c3 ^ k1
        b = np.concatenate((lo[n:], lo[:n]))                     # c1 = lo1, c3 = lo0
    return a[:n]


def reference_round_draws(scenario) -> list[tuple]:
    """(t0, t1, members, estimated PCDs, loss probabilities, rx_ok) of every
    round with at least two members, one stream per draw."""
    events = sorted({t for n in scenario.nodes for t in (n.join_s, n.leave_s)})
    leave = {n.id: n.leave_s for n in scenario.nodes}
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
                true = min(leave[a], leave[b]) - t0
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


def average_ranks(values) -> np.ndarray:
    """Ranks 1..n of ``values`` in ascending order, tied values sharing the
    mean of the ranks they span."""
    values = np.asarray(values, dtype=float)
    ranks = np.empty(len(values))
    ranks[np.argsort(values, kind="stable")] = np.arange(1, len(values) + 1)
    _, tie, count = np.unique(values, return_inverse=True, return_counts=True)
    return (np.bincount(tie, weights=ranks) / count)[tie]


def rank_correlation(x, y) -> float:
    """Spearman's rank correlation: the Pearson correlation of the average
    ranks of ``x`` and of ``y``."""
    return float(np.corrcoef(average_ranks(x), average_ranks(y))[1, 0])


def float_bits(values) -> list[str]:
    """Exact spelling of floats, sign of zero included, for ``==`` checks."""
    return [float(v).hex() for v in values]


def exact_bits(value, skip=frozenset()):
    """A report as nested lists, every float spelled exactly.  A dataclass
    gives its compared fields (a report's ``received_mb`` is one), then the
    public values its cached properties compute on first read (a record's
    Nash products and a report's Nash means), so a value moved from a field
    to a property is still compared.  Names in ``skip`` are left out,
    unread."""
    if dataclasses.is_dataclass(value):
        names = [f.name for f in dataclasses.fields(value) if f.compare]
        names += [name for name, attr in vars(type(value)).items()
                  if isinstance(attr, functools.cached_property) and not name.startswith("_")]
        return [type(value).__name__] + [(name, exact_bits(getattr(value, name), skip))
                                         for name in names if name not in skip]
    if isinstance(value, np.ndarray):
        return [value.dtype.str, value.shape, exact_bits(value.tolist(), skip)]
    if isinstance(value, dict):
        return [(k, exact_bits(v, skip)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [exact_bits(v, skip) for v in value]
    if isinstance(value, float):
        return value.hex()
    return value


def assert_gsa_certified(report) -> None:
    """Read gsa's certificate of every round of ``report``, which the
    simulator computes only when ``kkt`` is first read, and check that its
    residuals are finite."""
    assert report.policy == "gsa"
    for rnd in report.rounds:
        assert math.isfinite(rnd.kkt.max_residual), (rnd.index, rnd.kkt)


def record_round_work(monkeypatch) -> dict[str, list]:
    """Record, while ``monkeypatch`` holds, what the simulator asks of the
    bargaining layer: every problem it builds (``built``), every one it
    derives from a built one by ``with_channel`` (``derived``), every
    problem a GNBS solve runs on (``solved``) and every problem a
    certificate is computed for (``certified``), which the simulator does
    when a record's ``kkt`` is first read.  Inside the bargaining layer it
    records the bargaining columns of every problem whose levels are built
    (``levels``, the ``_Active`` that ``_level_columns`` reads) and the
    slopes ``r`` of every curve set sorted (``sorted``): for a GNBS solve's
    curves, the levels' own array."""
    work = {"built": [], "derived": [], "solved": [], "certified": [], "levels": [], "sorted": []}
    build, solve, certify = simulate.BargainingProblem, bargaining._gnbs_solve, bargaining.kkt_residuals
    derive, level_columns, sort = BargainingProblem.with_channel, bargaining._level_columns, _Curves.sorted_by_top

    def built(*args, **kwargs):
        work["built"].append(build(*args, **kwargs))
        return work["built"][-1]

    def derived(problem, *args):
        work["derived"].append(derive(problem, *args))
        return work["derived"][-1]

    monkeypatch.setattr(simulate, "BargainingProblem", built)
    monkeypatch.setattr(BargainingProblem, "with_channel", derived)
    for module in (simulate, bargaining):
        monkeypatch.setattr(module, "_gnbs_solve", lambda problem: work["solved"].append(problem) or solve(problem))
    for module in (simulate, bargaining):
        monkeypatch.setattr(module, "kkt_residuals",
                            lambda problem, *args: work["certified"].append(problem) or certify(problem, *args))
    monkeypatch.setattr(bargaining, "_level_columns", lambda act: work["levels"].append(act) or level_columns(act))

    def sorted_by_top(cls, index, weight, d, cap, r, *args, **kwargs):
        work["sorted"].append(r)
        return sort(index, weight, d, cap, r, *args, **kwargs)

    monkeypatch.setattr(_Curves, "sorted_by_top", classmethod(sorted_by_top))
    return work


# ---------------------------------------------------------------------------
# the three repeated experiments as loops that each derive their own seeds,
# the references for the folds over simulate._repetitions


def reference_repeated_contacts(scenario, n_contacts: int) -> tuple[np.ndarray, float]:
    """``simulate.repeated_contacts``: contact k runs at
    ``derive_seed(seed, "contact", k)``."""
    if n_contacts < 1:
        raise ValueError("need at least one contact")
    values = np.empty(n_contacts)
    for k in range(n_contacts):
        rep = run_scenario(dataclasses.replace(scenario, seed=derive_seed(scenario.seed, "contact", k)))
        values[k] = rep.nash_product_realized
    running = np.cumsum(values) / np.arange(1, n_contacts + 1)
    ideal = run_scenario(dataclasses.replace(scenario, loss=None, pcd_error=None)).nash_product_realized
    return running, float(ideal)


def reference_slot_size_sweep(scenario, t_slot_list, repetitions: int) -> list[tuple[float, float, float]]:
    """``simulate.slot_size_sweep``: repetition r runs every size at
    ``derive_seed(seed, "sweep", r)``, all draws made before the first size."""
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    runs = []
    for r in range(repetitions):
        paired = dataclasses.replace(scenario, seed=derive_seed(scenario.seed, "sweep", r))
        runs.append((paired, _round_draws(paired)))
    out = []
    for t_slot in t_slot_list:
        vals = [
            _run(dataclasses.replace(paired, t_slot_s=float(t_slot)), "gsa", draws).wpf_aggregate_vs_ideal
            for paired, draws in runs
        ]
        out.append((float(t_slot), float(np.mean(vals)), float(np.std(vals))))
    return out


def reference_compare(scenario, durations, reps: int):
    """``airfair compare``'s rows, each a list of means in POLICIES order,
    yielded as each duration ends: repetition rep of duration index di
    runs at ``derive_seed(seed, "compare", di, rep)``."""
    base_seed = scenario.seed
    scaled_runs = [scale_contact_durations(scenario, duration) for duration in durations]
    for di, scaled in enumerate(scaled_runs):
        sums = dict.fromkeys(POLICIES, 0.0)
        for rep in range(reps):
            run = dataclasses.replace(scaled, seed=derive_seed(base_seed, "compare", di, rep))
            for policy, rpt in compare_policies(run).items():
                sums[policy] += rpt.nash_product_realized
        yield [sums[p] / reps for p in POLICIES]
