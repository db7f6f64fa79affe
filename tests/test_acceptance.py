"""End-to-end acceptance gate.

Each test checks one release criterion at its pinned tolerance and prints a
single live PASS/FAIL line (bypassing capture) so the verdicts are readable
straight from the pytest log.  Tolerances and runtime budgets are asserted,
not just reported.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import support
from airfair import cli
from airfair.bargaining import (
    Allocation,
    gnbs_allocate,
    level,
    level_order,
    oracle_allocate,
    sample_feasible,
    tail_airtime,
    wpf_aggregate,
)
from airfair.grouping import (
    MODE_GO_COORDINATED,
    MODE_UNICAST_PAIR,
    select_roles,
    total_broadcast_time,
)
from airfair.scenario_io import preset_scenario
from airfair.simulate import (
    LossModel,
    PcdErrorModel,
    compare_policies,
    derive_seed,
    repeated_contacts,
    run_scenario,
    scale_contact_durations,
    slot_size_sweep,
)

ACCEPT_SEED = 20240824


def announce(capfd, num: int, ok: bool, detail: str) -> None:
    with capfd.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: the bundled six-node example reproduces its reference table


# (upload_s, broadcast_s) per node and policy, +-0.001
REFERENCE_TABLE = {
    "gsa": {
        "n1": (0.714, 0.714), "n2": (0.714, 0.714), "n3": (0.714, 0.714),
        "n4": (0.0, 2.857), "n5": (0.714, 0.714), "n6": (0.714, 0.714),
    },
    "eql": {
        "n1": (0.909, 0.909), "n2": (0.909, 0.909), "n3": (0.909, 0.909),
        "n4": (0.0, 0.909), "n5": (0.909, 0.909), "n6": (0.909, 0.909),
    },
    "wtd": {
        "n1": (0.217, 0.217), "n2": (0.435, 0.435), "n3": (0.870, 0.870),
        "n4": (0.0, 0.870), "n5": (1.304, 1.304), "n6": (1.739, 1.739),
    },
}


def test_criterion_01_reference_allocation_table(capfd):
    t0 = time.perf_counter()
    got = {}
    for policy in REFERENCE_TABLE:
        exit_code = cli.main(["allocate", "--preset", "table1", "--policy", policy, "--format", "csv"])
        out = capfd.readouterr().out
        assert exit_code == 0, out
        got[policy] = {
            row.split(",")[0]: (float(row.split(",")[2]), float(row.split(",")[3]))
            for row in out.strip().splitlines()[1:]
        }
    elapsed = time.perf_counter() - t0

    worst = 0.0
    for policy, table in REFERENCE_TABLE.items():
        for node, (y, x) in table.items():
            worst = max(worst, abs(got[policy][node][0] - y), abs(got[policy][node][1] - x))
    ok = worst <= 0.001 and elapsed < 1.0
    announce(capfd, 1, ok, f"36/36 values within 0.001 (worst dev {worst:.2e}), {elapsed:.2f}s < 1s")


# ---------------------------------------------------------------------------
# criteria 2 + 3: solver equals the brute-force oracle; KKT certificates


@pytest.fixture(scope="module")
def solved_batch():
    rng = np.random.default_rng(ACCEPT_SEED)
    t0 = time.perf_counter()
    batch = []
    for k in range(50):
        prob = support.random_problem(rng, size=2 + k % 3, kinds=("normalized-linear", "log-shifted"))
        alloc, report = gnbs_allocate(prob)
        grid = oracle_allocate(prob, resolution=200, refine_decades=3)
        batch.append((prob, alloc, report, grid))
    return batch, time.perf_counter() - t0


def test_criterion_02_oracle_equivalence(capfd, solved_batch):
    batch, elapsed = solved_batch
    worst = max(
        float(np.max(np.abs(alloc.broadcast_time - grid.broadcast_time)))
        for _, alloc, _, grid in batch
    )
    ok = worst <= 1e-4 and elapsed < 60.0
    announce(capfd, 2, ok,
             f"50 instances, worst coordinate dev {worst:.2e} <= 1e-4, {elapsed:.1f}s < 60s")


def test_criterion_03_kkt_certification(capfd, solved_batch):
    batch, _ = solved_batch
    residuals = [report.max_residual for _, _, report, _ in batch]
    _, table1_report = gnbs_allocate(support.table1_problem())
    residuals.append(table1_report.max_residual)
    worst = max(residuals)
    ok = worst <= 1e-7
    announce(capfd, 3, ok, f"{len(residuals)} solves, max KKT residual {worst:.2e} <= 1e-7")


# ---------------------------------------------------------------------------
# criterion 4: randomized property suites, >= 1000 cases each

ALL_KINDS = ("normalized-linear", "log-shifted", "power")


def test_criterion_04_property_suites(capfd):
    cases = 1000
    root = np.random.default_rng(derive_seed(ACCEPT_SEED, "properties"))
    fails = {"gains": 0, "level": 0, "tail": 0, "wpf": 0}

    for _ in range(cases):  # allocation strictly improves on every fallback
        prob = support.random_problem(root, kinds=ALL_KINDS, allow_disagreement=True)
        alloc, _ = gnbs_allocate(prob)
        if not all(alloc.broadcast_time[i] > prob.disagreements[i] for i in prob.active):
            fails["gains"] += 1

    for _ in range(cases):  # the per-player level curve is strictly increasing
        prob = support.random_problem(root, kinds=ALL_KINDS, allow_disagreement=True)
        i = prob.active[int(root.integers(len(prob.active)))]
        d, cap = prob.disagreements[i], prob.caps[i]
        xs = d + (cap - d) * np.sort(root.uniform(0.01, 1.0, size=4))
        lvls = [level(prob, i, x) for x in xs]
        if not all(a < b for a, b in zip(lvls, lvls[1:])):
            fails["level"] += 1

    for _ in range(cases):  # aggregate airtime is strictly increasing in the level
        prob = support.random_problem(root, kinds=ALL_KINDS, allow_disagreement=True)
        order = level_order(prob)
        start = int(root.integers(len(order)))
        top = level(prob, order[start], prob.caps[order[start]])
        l1, l2 = np.sort(root.uniform(0.05, 1.0, size=2)) * top
        if l1 < l2 and not tail_airtime(prob, start, l1) < tail_airtime(prob, start, l2):
            fails["tail"] += 1

    kept = 0
    while kept < cases:  # no feasible alternative scores positive against the optimum
        prob = support.random_problem(root, kinds=("normalized-linear", "log-shifted"))
        if prob.demand <= prob.airtime:
            continue
        kept += 1
        best, _ = gnbs_allocate(prob)
        x = sample_feasible(prob, 1, root)[0]
        other = Allocation(x, x * prob.betas, saturated=False)
        if not wpf_aggregate(prob, best, other) <= 1e-9:
            fails["wpf"] += 1

    ok = not any(fails.values())
    announce(capfd, 4, ok, f"4 property suites x {cases} cases, failures {fails}")


# ---------------------------------------------------------------------------
# criterion 5: policy dominance across contact durations


def test_criterion_05_policy_dominance(capfd):
    t0 = time.perf_counter()
    base = replace(
        preset_scenario("table1"),
        loss=LossModel(0.0, 0.1),
        pcd_error=PcdErrorModel(stddev=1.0),
    )
    # 5 s keeps the shortest estimated horizon clear of one round-robin cycle;
    # the top end reaches past the point where every queue drains.
    durations = np.linspace(5.0, 43.0, 20)
    reps = 100
    ok = True
    worst_margin = np.inf
    for di, duration in enumerate(durations):
        scaled = scale_contact_durations(base, float(duration))
        sums_real = dict.fromkeys(("gsa", "eql", "wtd"), 0.0)
        sums_ideal = dict.fromkeys(("gsa", "eql", "wtd"), 0.0)
        for rep in range(reps):
            seeded = replace(scaled, seed=derive_seed(ACCEPT_SEED, "dominance", di, rep))
            for policy, report in compare_policies(seeded).items():
                sums_real[policy] += report.nash_product_realized
                sums_ideal[policy] += report.nash_product_ideal
        for sums in (sums_real, sums_ideal):
            margin = min(sums["gsa"] - sums["eql"], sums["gsa"] - sums["wtd"]) / reps
            worst_margin = min(worst_margin, margin)
            ok = ok and margin >= -1e-12
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    announce(capfd, 5, ok,
             f"20 durations x {reps} reps, min mean margin {worst_margin:+.2e}, {elapsed:.0f}s < 120s")


# ---------------------------------------------------------------------------
# criterion 6: role selection picks the cheapest full-coverage relay


def test_criterion_06_role_selection(capfd):
    cost_a = total_broadcast_time(support.FOUR_LOADS, "A", 10.0)
    cost_c = total_broadcast_time(support.FOUR_LOADS, "C", 10.0)
    roles = select_roles(support.four_node_tables(), support.four_node_graph())
    ok = cost_a == pytest.approx(19.0) and cost_c == pytest.approx(17.0) and roles["C"] == "go"
    announce(capfd, 6, ok, f"relay costs A={cost_a:.0f}s C={cost_c:.0f}s, GO=C")


# ---------------------------------------------------------------------------
# criterion 7: dynamic scenario round structure and slot ratios


def test_criterion_07_dynamic_round_structure(capfd):
    report = run_scenario(preset_scenario("dynamic4"))
    bounds = [r.t_start for r in report.rounds] + [report.rounds[-1].t_end]
    ok = len(report.rounds) == 5 and bounds == [0.0, 4.0, 8.0, 12.0, 16.0, 20.0]
    worst_ratio_dev = 0.0
    for k, r in enumerate(report.rounds):
        if k in (1, 3):
            ok = ok and len(r.members) == 3 and r.mode == MODE_GO_COORDINATED and not r.idle
            w = (1.0 + r.problem.betas) * r.allocation.broadcast_time
            gi = r.members.index(r.go_id)
            for j in range(3):
                if j != gi:
                    worst_ratio_dev = max(worst_ratio_dev, abs(w[gi] / w[j] - 2.0))
        else:
            ok = ok and len(r.members) == 2 and r.mode == MODE_UNICAST_PAIR
    ok = ok and worst_ratio_dev <= 1e-9
    announce(capfd, 7, ok,
             f"5 rounds at {{0,4,8,12,16,20}}s, GO:client slot ratio 2:1 (dev {worst_ratio_dev:.1e})")


# ---------------------------------------------------------------------------
# criterion 8: running average converges to the no-randomness ideal


def test_criterion_08_convergence(capfd):
    scn = replace(
        scale_contact_durations(preset_scenario("table1"), 20.0),
        pcd_error=PcdErrorModel(stddev=1.0),
        seed=derive_seed(ACCEPT_SEED, "convergence"),
    )
    running, ideal = repeated_contacts(scn, 200)
    rel = abs(running[-1] - ideal) / ideal
    ok = rel <= 0.05
    announce(capfd, 8, ok, f"final running avg {running[-1]:.4f} vs ideal {ideal:.4f} ({rel:.1%} <= 5%)")


# ---------------------------------------------------------------------------
# criterion 9: finer slots are fairer


def test_criterion_09_slot_size_trend(capfd):
    scn = replace(
        scale_contact_durations(preset_scenario("table1"), 20.0),
        loss=LossModel(0.0, 0.1),
        pcd_error=PcdErrorModel(stddev=1.0),
        seed=derive_seed(ACCEPT_SEED, "slots"),
    )
    sizes = [0.005, 0.01, 0.02, 0.05, 0.1]
    rows = slot_size_sweep(scn, sizes, repetitions=20)
    means = [m for _, m, _ in rows]
    rho = support.rank_correlation(sizes, means)
    ok = all(m <= 1e-9 for m in means) and rho < 0
    detail = ", ".join(f"{int(s * 1000)}ms:{m:+.4f}" for (s, m, _) in rows)
    announce(capfd, 9, ok, f"mean wpf per slot [{detail}], spearman {rho:+.2f} < 0")


# ---------------------------------------------------------------------------
# criterion 10: byte-identical reruns


def test_criterion_10_determinism(capfd, tmp_path):
    ok = True
    for run in ("a", "b"):
        ok = ok and cli.main(["simulate", "--preset", "dynamic4", "--out", str(tmp_path / run)]) == 0
        capfd.readouterr()
    for name in ("rounds.csv", "delivery.csv", "metrics.csv"):
        ok = ok and (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    outs = []
    for _ in range(2):
        ok = ok and cli.main(["compare", "--preset", "table1", "--durations", "5,10", "--reps", "3"]) == 0
        outs.append(capfd.readouterr().out)
    ok = ok and outs[0] == outs[1]

    outs = []
    for _ in range(2):
        ok = ok and cli.main(["sweep", "--preset", "table1", "--slot-sizes", "20,50", "--reps", "3"]) == 0
        outs.append(capfd.readouterr().out)
    ok = ok and outs[0] == outs[1]
    announce(capfd, 10, ok, "simulate/compare/sweep reruns byte-identical")
