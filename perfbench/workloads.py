"""Inputs, operations and output checks of the four benchmark workloads.

Every workload is built from the benchmark seed alone.  ``solve`` hands the
program generated players and budgets; the others hand it scenario documents
passed through ``scenario_from_dict``.  One operation (op) is one call into
the program on one input, followed by the output checks.

Each airfair function an op calls is looked up in this module's namespace at
call time, so ``spans.Tracer`` can wrap it here for the traced run only.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from airfair.bargaining import (
    ROLE_CLIENT,
    ROLE_GO,
    BargainingProblem,
    Player,
    Utility,
    eql_allocate,
    gnbs_allocate,
    nash_product,
    wpf_aggregate,
    wtd_allocate,
)
from airfair.cli import main as cli_main
from airfair.scenario_io import PRESETS, scenario_from_dict
from airfair.simulate import compare_policies, derive_seed, scale_contact_durations, slot_size_sweep

#: every gsa solve must certify its optimality to this KKT residual
KKT_TOL = 1e-7
#: relative slack on the budget equation and on gsa's Nash-product dominance
REL_TOL = 1e-9

BROADCAST_MBPS = 11.0
LOSS = {"lo": 0.0, "hi": 0.1}
PCD_ERROR = {"stddev": 1.0}
CONTACT_DURATIONS = (2.0, 5.0, 10.0, 20.0, 40.0)
SWEEP_SLOTS_MS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
SWEEP_DURATION = 40.0
CROWD_NODES = 48
CROWD_DURATION = 30.0
CROWD_RATES = (5.5, 11.0, 24.0, 54.0)


class CheckFailure(Exception):
    """An op returned, but its output broke one of the benchmark's checks."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


@dataclass
class Workload:
    """Generated inputs and how to run them.

    ``fixed_ops`` is the length of the op prefix that the digest and every
    traced pass cover, so their counts repeat exactly for one seed.
    ``ops_per_s`` sets how many ops a run attempts: ``--seconds`` times this
    rate, a little more than the reference host completes at its slowest
    speed seen, so that all runs the contract asks for fit its time.  The
    count does not depend on timing, so for one seed every run attempts the
    same ops and ``attempted`` and ``failed`` repeat exactly.
    ``tail_pct`` is the percentile op_tail_ms reports.  It is fixed per
    workload, so commits that change how many ops finish in a run still
    report the same percentile.
    ``probe_argv`` is the ``airfair`` command run once on the first input;
    ``{scenario}`` in it stands for the path of ``probe_doc`` written to disk.
    """

    inputs: list
    op: Callable[[Any], Any]
    fixed_ops: int
    ops_per_s: float
    tail_pct: float
    probe_argv: list[str]
    probe_doc: dict


# ---------------------------------------------------------------------------
# checks


def _check_budget(problem, alloc) -> None:
    used = float(np.sum((1.0 + problem.betas) * alloc.broadcast_time))
    target = problem.demand if alloc.saturated else problem.airtime
    if not abs(used - target) <= REL_TOL * max(1.0, target):
        raise CheckFailure("budget", f"spent {used!r} s of {target!r} s")


def _check_kkt(kkt) -> None:
    if not kkt.max_residual <= KKT_TOL:
        raise CheckFailure("kkt_residual", f"{kkt.max_residual:.3e} > {KKT_TOL:g}")


def _check_finite(values) -> None:
    if not all(math.isfinite(v) for v in values):
        raise CheckFailure("finite", f"non-finite metric in {values}")


def _check_reports(reports) -> tuple:
    """Checks shared by every op that returns one report per policy."""
    for rnd in reports["gsa"].rounds:
        if rnd.kkt is not None:
            _check_kkt(rnd.kkt)
    for report in reports.values():
        for rnd in report.rounds:
            _check_budget(rnd.problem, rnd.allocation)
    # Only the first traffic round poses the same problem to every policy;
    # later loads depend on what each policy delivered.
    first = next((k for k, r in enumerate(reports["gsa"].rounds) if not r.idle), None)
    out = []
    for policy, report in reports.items():
        traffic = [r for r in report.rounds if not r.idle]
        metrics = (report.nash_product_realized, report.nash_product_ideal, report.wpf_aggregate_vs_ideal)
        if traffic:
            _check_finite(metrics)
        if first is not None and policy != "gsa":
            gsa = reports["gsa"].rounds[first].nash_ideal
            other = report.rounds[first].nash_ideal
            if not gsa >= other - REL_TOL * max(1.0, abs(other)):
                raise CheckFailure("nash_dominance", f"gsa {gsa!r} < {policy} {other!r}")
        out.append((policy, len(report.rounds), len(report.rounds) - len(traffic), metrics,
                    tuple(sorted(report.transmitted_mb.items())),
                    tuple(sorted(report.received_mb.items()))))
    return tuple(out)


# ---------------------------------------------------------------------------
# solve: the bargaining layer alone


def _bit_reverse(j: int, bits: int) -> int:
    return int(format(j, f"0{bits}b")[::-1], 2)


def _latin(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """``n`` uniform draws over [lo, hi), one from each of ``n`` equal strata,
    in random order (one column of a Latin hypercube sample)."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def _solve_inputs(rng: np.random.Generator, grid: int, reps: int) -> list:
    """``reps`` blocks of ``2 * grid`` (players, budget, upload rates)
    triples, alternating normalized-linear and mixed utilities.

    Within each half of a block, group sizes sit on the ``grid``-point
    quantile grid of a log-uniform law over 2..64 and budgets on a grid over
    0.2..1.2 x demand, visited in bit-reversed order, so every prefix of a run
    spans both ranges.  ``grid`` is a power of two.  The seed draws everything
    else, each per-player parameter as a Latin hypercube column: weights,
    rates, loads, utility parameters, and the offset of the cycle of utility
    kinds over the players ranked by load.
    """
    bits = grid.bit_length() - 1
    order = sorted(range(grid), key=lambda j: _bit_reverse(j, bits))
    out = []
    for k in range(2 * grid * reps):
        mixed = k % 2
        j = order[k // 2 % grid]
        n = int(round(2.0 * 32.0 ** ((j + 0.5) / grid)))
        ratio = 0.2 + ((j * 37 + mixed * 11) % grid + 0.5) / grid
        alphas = 10.0 ** _latin(rng, n, -1.0, 1.0)
        rates = 10.0 ** _latin(rng, n, 0.0, 2.0)
        loads = 10.0 ** _latin(rng, n, 0.0, 3.0)
        kinds = (np.argsort(np.argsort(loads)) + rng.integers(3)) % 3 if mixed else np.zeros(n, dtype=int)
        gains = 10.0 ** _latin(rng, n, -2.0, 2.0)
        exponents = _latin(rng, n, 0.2, 1.0)
        go = int(np.argmax(loads))
        players = []
        demand = 0.0
        for i in range(n):
            utility = None
            if kinds[i] == 1:
                utility = Utility.log_shifted(float(gains[i]))
            elif kinds[i] == 2:
                utility = Utility.power(float(exponents[i]))
            is_go = i == go
            players.append(Player(
                f"p{i}", float(loads[i]),
                upload_rate=math.inf if is_go else float(rates[i]),
                alpha=float(alphas[i]) * (2.0 if is_go else 1.0),
                utility=utility,
                role=ROLE_GO if is_go else ROLE_CLIENT,
            ))
            beta = 0.0 if is_go else BROADCAST_MBPS / rates[i]
            demand += (1.0 + beta) * loads[i] / BROADCAST_MBPS
        out.append((tuple(players), float(ratio * demand), rates))
    return out


def solve_op(item):
    players, budget, _ = item
    problem = BargainingProblem(players, budget, BROADCAST_MBPS)
    gsa, kkt = gnbs_allocate(problem)
    eql = eql_allocate(problem)
    wtd = wtd_allocate(problem)
    _check_kkt(kkt)
    for alloc in (gsa, eql, wtd):
        _check_budget(problem, alloc)
    metrics = [nash_product(problem, a) for a in (gsa, eql, wtd)]
    metrics += [wpf_aggregate(problem, gsa, a) for a in (eql, wtd)]
    _check_finite(metrics)
    return (tuple(metrics),) + tuple(tuple(a.broadcast_time) for a in (gsa, eql, wtd))


def _solve_probe_doc(item) -> dict:
    """The first problem as a one-round scenario whose horizon is its budget.
    The GO is left to election, which picks the same player: the one with the
    largest load."""
    players, budget, rates = item
    return {
        "nodes": [
            {"id": p.id, "join_s": 0.0, "leave_s": budget, "data_mb": p.data_size,
             "upload_mbps": float(rates[i]), "alpha": p.alpha / (2.0 if p.role == ROLE_GO else 1.0)}
            for i, p in enumerate(players)
        ],
        "broadcast_mbps": BROADCAST_MBPS,
        "t_slot_ms": 20.0,
        "seed": 0,
    }


def _solve(seed: int, tiny: bool) -> Workload:
    rng = np.random.default_rng([seed, 1])
    inputs = _solve_inputs(rng, 2, 1) if tiny else _solve_inputs(rng, 64, 6)
    return Workload(inputs, solve_op, 2 if tiny else 32, 16.0, 90.0,
                    ["allocate", "--scenario", "{scenario}", "--policy", "gsa"],
                    _solve_probe_doc(inputs[0]))


# ---------------------------------------------------------------------------
# contact, sweep, crowd: whole simulated contacts


def compare_op(scenario):
    return _check_reports(compare_policies(scenario))


def _noisy_table1() -> dict:
    return {**copy.deepcopy(PRESETS["table1"]), "loss": dict(LOSS), "pcd_error": dict(PCD_ERROR)}


def _contact(seed: int, tiny: bool) -> Workload:
    """Cells in the order of ``airfair compare`` repetitions: every repetition
    visits both presets at every duration, so any prefix of a run mixes them."""
    docs = {"table1": {**_noisy_table1(), "seed": seed},
            "dynamic4": {**copy.deepcopy(PRESETS["dynamic4"]), "seed": seed}}
    bases = {name: scenario_from_dict(doc) for name, doc in docs.items()}
    reps = 1 if tiny else 112
    cells = []
    for rep in range(reps):
        for base in bases.values():
            for di, duration in enumerate(CONTACT_DURATIONS):
                scaled = scale_contact_durations(base, duration)
                cells.append(replace(scaled, seed=derive_seed(seed, "compare", di, rep)))
    argv = ["compare", "--scenario", "{scenario}", "--durations", f"{CONTACT_DURATIONS[0]:g}", "--reps", "1"]
    return Workload(cells, compare_op, 2 if tiny else 60, 42.0, 90.0, argv, docs["table1"])


def sweep_op(item):
    scenario, t_slot_s = item
    result = slot_size_sweep(scenario, [t_slot_s], repetitions=1)
    _check_finite(result[0])
    return tuple(result[0])


def _sweep(seed: int, tiny: bool) -> Workload:
    doc = _noisy_table1()
    factor = SWEEP_DURATION / max(n["leave_s"] - n["join_s"] for n in doc["nodes"])
    for node in doc["nodes"]:
        node["join_s"] *= factor
        node["leave_s"] *= factor
    reps = 1 if tiny else 144
    items = []
    for rep in range(reps):
        scenario = scenario_from_dict({**doc, "seed": derive_seed(seed, "sweep", rep)})
        items += [(scenario, ms / 1000.0) for ms in SWEEP_SLOTS_MS]
    probe_doc = {**doc, "seed": derive_seed(seed, "sweep", 0)}
    argv = ["sweep", "--scenario", "{scenario}", "--slot-sizes", f"{SWEEP_SLOTS_MS[0]:g}", "--reps", "1"]
    return Workload(items, sweep_op, 2 if tiny else 14, 38.0, 90.0, argv, probe_doc)


def _crowd_doc(rng: np.random.Generator, seed: int, nodes: int) -> dict:
    """One crowd contact.  Loads are a Latin column over 10..80 Mb and each
    upload rate goes to an equal share of the nodes, so contacts differ in
    who has what rather than in totals, which keeps op costs alike."""
    loads = _latin(rng, nodes, 10.0, 80.0)
    rates = rng.permutation(np.resize(CROWD_RATES, nodes))
    return {
        "nodes": [
            {"id": f"c{i:02d}", "join_s": 0.0, "leave_s": CROWD_DURATION,
             "data_mb": float(loads[i]), "upload_mbps": float(rates[i])}
            for i in range(nodes)
        ],
        "broadcast_mbps": BROADCAST_MBPS,
        "t_slot_ms": 20.0,
        "loss": dict(LOSS),
        "pcd_error": dict(PCD_ERROR),
        "seed": seed,
    }


def _crowd(seed: int, tiny: bool) -> Workload:
    rng = np.random.default_rng([seed, 4])
    count, nodes = (1, 8) if tiny else (32, CROWD_NODES)
    docs = [_crowd_doc(rng, derive_seed(seed, "crowd", k), nodes) for k in range(count)]
    scenarios = [scenario_from_dict(doc) for doc in docs]
    argv = ["compare", "--scenario", "{scenario}", "--durations", f"{CROWD_DURATION:g}", "--reps", "1"]
    return Workload(scenarios, compare_op, 1 if tiny else 2, 0.64, 50.0, argv, docs[0])


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """Generate the named workload's inputs from ``seed``.  ``tiny`` shrinks
    every pool to a few small inputs for the smoke test."""
    return {"solve": _solve, "contact": _contact, "sweep": _sweep, "crowd": _crowd}[name](seed, tiny)
