import math
import warnings
from dataclasses import replace
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import support
from airfair import BargainingProblem, InfeasibleProblemError, Player, Utility, simulate
from airfair.bargaining import (
    Allocation,
    _Curves,
    DomainError,
    ROLE_GO,
    _lambert_w,
    _winitzki,
    eql_allocate,
    gnbs_allocate,
    kkt_residuals,
    level,
    level_for_airtime,
    level_order,
    oracle_allocate,
    sample_feasible,
    tail_airtime,
    time_at_level,
    weighted_airtime,
    wtd_allocate,
)
from airfair.grouping import ScheduleError
from airfair.scenario_io import PRESETS, scenario_from_dict


# ---------------------------------------------------------------------------
# utility evaluators


def test_normalized_linear_value_and_slope():
    u = Utility.normalized_linear(4.0)
    assert u.value(2.0) == pytest.approx(0.5)
    assert u.derivative(2.0) == pytest.approx(0.25)
    np.testing.assert_allclose(u.value(np.array([0.0, 4.0])), [0.0, 1.0])


def test_log_shifted_value_and_slope():
    u = Utility.log_shifted(2.0)
    assert u.value(3.0) == pytest.approx(math.log1p(6.0))
    assert u.derivative(3.0) == pytest.approx(2.0 / 7.0)


def test_power_value_and_slope():
    u = Utility.power(0.5)
    assert u.value(9.0) == pytest.approx(3.0)
    assert u.derivative(9.0) == pytest.approx(0.5 / 3.0)


def test_unknown_utility_kind():
    with pytest.raises(ValueError):
        Utility(kind="quadratic", coeff=1.0)


# ---------------------------------------------------------------------------
# problem construction


def test_alpha_normalization(table1):
    assert table1.alphas.sum() == pytest.approx(1.0, abs=1e-9)
    assert table1.alphas[3] == pytest.approx(2.0 / 7.0)
    assert table1.alphas[0] == pytest.approx(1.0 / 7.0)


def test_beta_and_cap_derivation(table1):
    np.testing.assert_allclose(table1.betas, [1, 1, 1, 0, 1, 1])
    np.testing.assert_allclose(table1.caps, np.array([10, 20, 40, 40, 60, 80]) / 11.0)


def test_exactly_one_go_required():
    client = Player(id="a", data_size=1.0, upload_rate=5.0)
    with pytest.raises(ValueError, match="one GO"):
        BargainingProblem([client], airtime=1.0, broadcast_rate=5.0)


def test_duplicate_ids_rejected():
    ps = [
        Player(id="a", data_size=1.0, role=ROLE_GO),
        Player(id="a", data_size=1.0, upload_rate=5.0),
    ]
    with pytest.raises(ValueError, match="duplicate"):
        BargainingProblem(ps, airtime=1.0, broadcast_rate=5.0)


def test_disagreement_at_cap_is_infeasible():
    ps = [
        Player(id="go", data_size=5.0, role=ROLE_GO, disagreement=1.0),
        Player(id="c", data_size=5.0, upload_rate=5.0),
    ]
    with pytest.raises(InfeasibleProblemError):
        BargainingProblem(ps, airtime=10.0, broadcast_rate=5.0)


def test_disagreements_exhausting_airtime_are_infeasible():
    ps = [
        Player(id="go", data_size=50.0, role=ROLE_GO, disagreement=0.6),
        Player(id="c", data_size=50.0, upload_rate=5.0, disagreement=0.3),
    ]
    with pytest.raises(InfeasibleProblemError):
        BargainingProblem(ps, airtime=1.0, broadcast_rate=5.0)


def test_zero_load_player_sits_out(table1):
    ps = list(table1.players) + [Player(id="idle", data_size=0.0, upload_rate=11.0)]
    prob = BargainingProblem(ps, airtime=10.0, broadcast_rate=11.0)
    assert 6 not in prob.active
    alloc, _ = gnbs_allocate(prob)
    assert alloc.broadcast_time[6] == 0.0
    assert alloc.upload_time[6] == 0.0


# ---------------------------------------------------------------------------
# level curve and its inverses


def test_level_domain_errors(table1):
    with pytest.raises(DomainError):
        level(table1, 0, 0.0)
    with pytest.raises(DomainError):
        level(table1, 0, table1.caps[0] * 1.01)


def test_level_closed_form_normalized_linear(table1):
    # (1+beta)/alpha * u/u' with u = x/cap collapses to (1+beta) x / alpha
    x = 0.5
    assert level(table1, 0, x) == pytest.approx(2.0 * x / table1.alphas[0])


def test_time_at_level_closed_form_matches_bisection(table1):
    for i in table1.active:
        top = level(table1, i, table1.caps[i])
        for lvl in (0.3 * top, 0.7 * top, top):
            auto = time_at_level(table1, i, lvl)
            forced = support.reference_time_at_level(table1, i, lvl)
            assert auto == pytest.approx(forced, abs=1e-8)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_time_at_level_matches_bisection_for_every_kind(seed):
    # Lambert W (log-shifted) and Newton (power with a disagreement point)
    # against the generic bisection on the level curve
    _, prob = _draw(seed, kinds=ALL_KINDS, allow_disagreement=True)
    for i in prob.active:
        top = level(prob, i, prob.caps[i])
        for lvl in (0.2 * top, 0.6 * top, top):
            auto = time_at_level(prob, i, lvl)
            forced = support.reference_time_at_level(prob, i, lvl)
            assert auto == pytest.approx(forced, rel=1e-7, abs=1e-9)


def test_time_at_level_roundtrip_log_shifted():
    ps = [
        Player(id="go", data_size=30.0, role=ROLE_GO, utility=Utility.log_shifted(1.5)),
        Player(id="c", data_size=20.0, upload_rate=5.0, utility=Utility.log_shifted(0.7)),
    ]
    prob = BargainingProblem(ps, airtime=4.0, broadcast_rate=10.0)
    for i in prob.active:
        top = level(prob, i, prob.caps[i])
        x = time_at_level(prob, i, 0.4 * top)
        assert level(prob, i, x) == pytest.approx(0.4 * top, rel=1e-8)


def test_level_order_breaks_ties_by_index():
    ps = [
        Player(id="go", data_size=10.0, role=ROLE_GO),
        Player(id="c1", data_size=10.0, upload_rate=10.0),
        Player(id="c2", data_size=10.0, upload_rate=10.0),
    ]
    prob = BargainingProblem(ps, airtime=1.0, broadcast_rate=10.0)
    order = level_order(prob)
    assert order.index(1) < order.index(2)


def test_tail_airtime_inverse_roundtrip(table1):
    order = level_order(table1)
    for start in range(len(order)):
        head = order[start]
        top = level(table1, head, table1.caps[head])
        v = tail_airtime(table1, start, 0.6 * top)
        lvl = level_for_airtime(table1, start, v)
        assert lvl == pytest.approx(0.6 * top, rel=1e-8)


# ---------------------------------------------------------------------------
# the bargaining allocator


def test_table1_reference_allocation(table1):
    alloc, report = gnbs_allocate(table1)
    expect_x = np.array([5, 5, 5, 20, 5, 5]) / 7.0
    np.testing.assert_allclose(alloc.broadcast_time, expect_x, atol=1e-9)
    np.testing.assert_allclose(alloc.upload_time, expect_x * table1.betas, atol=1e-9)
    assert not alloc.saturated
    assert report.lam == pytest.approx(0.1, abs=1e-9)
    assert report.max_residual <= 1e-7


def test_budget_met_exactly(table1):
    alloc, _ = gnbs_allocate(table1)
    assert weighted_airtime(table1, alloc.broadcast_time) == pytest.approx(10.0, abs=1e-12)


def test_interior_shares_proportional_to_alpha(table1):
    # all interior: weighted airtime shares follow the bargaining weights
    alloc, _ = gnbs_allocate(table1)
    w = (1.0 + table1.betas) * alloc.broadcast_time
    np.testing.assert_allclose(w / w.sum(), table1.alphas, atol=1e-12)


def test_saturated_problem_gives_caps():
    prob = support.table1_problem(airtime=100.0)
    alloc, report = gnbs_allocate(prob)
    assert alloc.saturated
    np.testing.assert_allclose(alloc.broadcast_time, prob.caps, atol=1e-12)
    assert report.max_residual <= 1e-7


def test_demand_within_the_slack_saturates_every_allocator():
    """One rule decides saturation: at a demand 5e-13 above the budget the
    solver and the baselines saturate, and there is nothing to sample."""
    demand = support.table1_problem().demand
    prob = support.table1_problem(airtime=demand / (1.0 + 5e-13))
    assert prob.demand > prob.airtime and prob.saturated
    for allocate in (lambda p: gnbs_allocate(p)[0], eql_allocate, wtd_allocate, oracle_allocate):
        alloc = allocate(prob)
        assert alloc.saturated
        np.testing.assert_array_equal(alloc.broadcast_time, prob.caps)
    with pytest.raises(ValueError, match="sampling needs an unsaturated problem"):
        sample_feasible(prob, 1, np.random.default_rng(0))


def test_saturated_certificates_spend_the_demand_exactly():
    # the budget residual and the demand add the same channel seconds in
    # the same order, so a saturated allocation meets the demand to the bit
    for n in support.GROUP_SIZES[7:]:
        for rep in range(10):
            drawn = support.mixed_problem(np.random.default_rng([2525, n, rep]), n)
            prob = BargainingProblem(drawn.players, 2.0 * drawn.demand, drawn.broadcast_rate)
            alloc, report = gnbs_allocate(prob)
            assert alloc.saturated and report.budget == 0.0


def test_single_cap_binding():
    # one tiny load pins that player at its cap, the rest share the remainder
    ps = [
        Player(id="go", data_size=100.0, role=ROLE_GO),
        Player(id="c1", data_size=0.5, upload_rate=10.0),
        Player(id="c2", data_size=100.0, upload_rate=10.0),
    ]
    prob = BargainingProblem(ps, airtime=6.0, broadcast_rate=10.0)
    alloc, report = gnbs_allocate(prob)
    assert alloc.broadcast_time[1] == pytest.approx(prob.caps[1], abs=1e-12)
    assert weighted_airtime(prob, alloc.broadcast_time) == pytest.approx(6.0, abs=1e-12)
    assert report.max_residual <= 1e-7


def test_two_player_closed_form():
    # GO and one client, both interior: shares split by alpha exactly
    ps = [
        Player(id="go", data_size=100.0, role=ROLE_GO, alpha=2.0),
        Player(id="c", data_size=100.0, upload_rate=11.0, alpha=1.0),
    ]
    prob = BargainingProblem(ps, airtime=3.0, broadcast_rate=11.0)
    alloc, _ = gnbs_allocate(prob)
    assert alloc.broadcast_time[0] == pytest.approx(2.0, abs=1e-10)
    assert alloc.broadcast_time[1] == pytest.approx(0.5, abs=1e-10)


# ---------------------------------------------------------------------------
# randomized properties (the acceptance suite re-runs these at >= 1000 cases)

ALL_KINDS = ("normalized-linear", "log-shifted", "power")


def _draw(seed, **kw):
    rng = np.random.default_rng(seed)
    return rng, support.random_problem(rng, **kw)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_level_strictly_increasing(seed):
    rng, prob = _draw(seed, kinds=ALL_KINDS, allow_disagreement=True)
    i = prob.active[int(rng.integers(len(prob.active)))]
    d, cap = prob.disagreements[i], prob.caps[i]
    xs = d + (cap - d) * np.sort(rng.uniform(0.01, 1.0, size=6))
    lvls = [level(prob, i, x) for x in xs]
    assert all(a < b for a, b in zip(lvls, lvls[1:]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_tail_airtime_strictly_increasing(seed):
    rng, prob = _draw(seed, kinds=ALL_KINDS, allow_disagreement=True)
    order = level_order(prob)
    start = int(rng.integers(len(order)))
    head = order[start]
    top = level(prob, head, prob.caps[head])
    l1, l2 = np.sort(rng.uniform(0.05, 1.0, size=2)) * top
    if l1 == l2:
        return
    assert tail_airtime(prob, start, l1) < tail_airtime(prob, start, l2)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_everyone_gains_over_disagreement(seed):
    _, prob = _draw(seed, kinds=ALL_KINDS, allow_disagreement=True)
    alloc, _ = gnbs_allocate(prob)
    for i in prob.active:
        assert alloc.broadcast_time[i] > prob.disagreements[i]
        assert alloc.broadcast_time[i] <= prob.caps[i] * (1 + 1e-12)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_kkt_certified(seed):
    _, prob = _draw(seed, kinds=ALL_KINDS, allow_disagreement=True)
    _, report = gnbs_allocate(prob)
    assert report.max_residual <= 1e-7


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_permutation_equivariance(seed):
    rng, prob = _draw(seed, kinds=ALL_KINDS)
    alloc, _ = gnbs_allocate(prob)
    by_id = dict(zip((p.id for p in prob.players), alloc.broadcast_time))
    perm = rng.permutation(len(prob.players))
    shuffled = BargainingProblem(
        [prob.players[i] for i in perm], airtime=prob.airtime, broadcast_rate=prob.broadcast_rate
    )
    alloc2, _ = gnbs_allocate(shuffled)
    for p, x in zip(shuffled.players, alloc2.broadcast_time):
        assert x == pytest.approx(by_id[p.id], abs=1e-9)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), factor=st.floats(0.1, 10.0))
def test_alpha_scale_invariance(seed, factor):
    _, prob = _draw(seed, kinds=ALL_KINDS)
    scaled = BargainingProblem(
        [
            Player(
                id=p.id, data_size=p.data_size, upload_rate=p.upload_rate,
                alpha=p.alpha * factor, disagreement=p.disagreement,
                utility=p.utility, role=p.role,
            )
            for p in prob.players
        ],
        airtime=prob.airtime,
        broadcast_rate=prob.broadcast_rate,
    )
    a1, _ = gnbs_allocate(prob)
    a2, _ = gnbs_allocate(scaled)
    np.testing.assert_allclose(a2.broadcast_time, a1.broadcast_time, atol=1e-8)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_more_alpha_never_hurts(seed):
    rng, prob = _draw(seed, kinds=ALL_KINDS)
    k = prob.active[int(rng.integers(len(prob.active)))]
    boosted = BargainingProblem(
        [
            Player(
                id=p.id, data_size=p.data_size, upload_rate=p.upload_rate,
                alpha=p.alpha * (3.0 if i == k else 1.0), disagreement=p.disagreement,
                utility=p.utility, role=p.role,
            )
            for i, p in enumerate(prob.players)
        ],
        airtime=prob.airtime,
        broadcast_rate=prob.broadcast_rate,
    )
    a1, _ = gnbs_allocate(prob)
    a2, _ = gnbs_allocate(boosted)
    assert a2.broadcast_time[k] >= a1.broadcast_time[k] - 1e-9


def test_kkt_certified_over_wide_ranges():
    # 300 instances of up to 64 players over the ranges the schema accepts;
    # every one must certify at the same 1e-7 as the narrow suites
    worst = 0.0
    failed = []
    for seed in range(300):
        prob = support.wide_problem(np.random.default_rng([20261018, seed]))
        _, report = gnbs_allocate(prob)
        worst = max(worst, report.max_residual)
        if not report.max_residual <= 1e-7:
            failed.append(seed)
    assert not failed, f"{len(failed)} of 300 above 1e-7 (seeds {failed[:10]}), worst {worst:.2e}"


# ---------------------------------------------------------------------------
# solver statistics in the KKT report


def test_report_path_and_iterations(table1):
    _, report = gnbs_allocate(table1)
    assert report.path == "contended"
    # all normalized-linear: breakpoint probes only, no Newton steps
    assert 0 < report.iterations <= 3
    _, report = gnbs_allocate(support.table1_problem(airtime=100.0))
    assert report.path == "saturated"
    assert report.iterations == 0


def test_report_counts_newton_steps_for_curved_utilities():
    ps = [
        Player(id="go", data_size=30.0, role=ROLE_GO, utility=Utility.log_shifted(1.5)),
        Player(id="c", data_size=20.0, upload_rate=5.0, utility=Utility.power(0.5), disagreement=0.2),
    ]
    prob = BargainingProblem(ps, airtime=3.0, broadcast_rate=10.0)
    _, report = gnbs_allocate(prob)
    assert report.path == "contended"
    assert 1 < report.iterations < 30
    assert report.max_residual <= 1e-12


def test_relative_residual_is_scale_free(table1):
    _, report = gnbs_allocate(table1)
    assert report.relative_residual <= 1e-13
    # the same relative move of two players reads the same relative residual
    # in any time unit, while the absolute one scales with 1 / time
    reads = []
    for scale in (1e-3, 1.0, 1e3):
        prob = BargainingProblem(
            [replace(p, data_size=p.data_size * scale) for p in table1.players],
            airtime=table1.airtime * scale, broadcast_rate=table1.broadcast_rate,
        )
        alloc, rep = gnbs_allocate(prob)
        moved = alloc.broadcast_time.copy()
        moved[[0, 1]] += np.array([1e-3, -1e-3]) * scale
        bent = kkt_residuals(prob, Allocation(moved, moved * prob.betas), rep.lam)
        reads.append((bent.relative_residual, bent.max_residual * scale))
    for rel, absolute in reads:
        assert rel == pytest.approx(reads[0][0], rel=1e-6)
        assert absolute == pytest.approx(reads[0][1], rel=1e-6)


# ---------------------------------------------------------------------------
# the water-fill against the probing reference (support.reference_water_fill)


def _contended(problems):
    return [p for p in problems if p.demand > p.airtime * (1.0 + 1e-12)]


def _drawn_problems():
    """Contended wide-range and mixed draws: every utility kind,
    disagreement points, 2-64 players."""
    wide = [support.wide_problem(np.random.default_rng([7103, seed])) for seed in range(100)]
    mixed = [support.mixed_problem(np.random.default_rng([7104, n, rep]), n)
             for n in support.GROUP_SIZES[1:] for rep in range(8)]
    return _contended(wide + mixed)


def _simulator_problems():
    """Every problem the simulator builds while comparing the policies on
    the presets and on table1 with loss and estimation noise."""
    noise = {"loss": {"lo": 0.0, "hi": 0.2}, "pcd_error": {"stddev": 0.5}}
    docs = [PRESETS["table1"], PRESETS["dynamic4"]]
    docs += [{**PRESETS[name], **noise, "seed": seed} for name in PRESETS for seed in range(4)]
    with pytest.MonkeyPatch.context() as mp:
        work = support.record_round_work(mp)
        for doc in docs:
            simulate.compare_policies(scenario_from_dict(doc))
    return _contended(work["built"] + work["derived"])


# ---------------------------------------------------------------------------
# the linear allocators against exact arithmetic (support.exact_linear_allocation)


#: how far, in units in the last place, a linear allocation may sit from its
#: exact value.  The largest measured were 2.7 (gsa), 2.5 (eql) and 1.9 ulps
#: (wtd) over the 1,046 problems of _compared_problems, and 4.9, 5.1 and 2.0
#: over their 3,424 budgets near saturation; the margin is for dot products
#: that another BLAS adds in another order
EXACT_ULPS = 8.0


def _compared_problems():
    """Every problem :func:`simulate.compare_policies` builds on table1 and
    dynamic4, without noise and with loss and estimation noise (dynamic4's
    own), scaled to 10-80 s contacts.  A noisy dynamic4 run that raises
    ScheduleError keeps the problems built before it."""
    noisy = [scenario_from_dict({**PRESETS["table1"], "loss": {"lo": 0.0, "hi": 0.1}, "pcd_error": {"stddev": 1.0}}),
             scenario_from_dict(PRESETS["dynamic4"])]
    runs = [replace(base, loss=None, pcd_error=None) for base in noisy]        # no draws: one seed
    runs += [replace(base, seed=seed) for base in noisy for seed in range(15)]
    with pytest.MonkeyPatch.context() as mp:
        work = support.record_round_work(mp)
        for run in runs:
            for duration in (10.0, 20.0, 40.0, 80.0):
                try:
                    simulate.compare_policies(simulate.scale_contact_durations(run, duration))
                except ScheduleError:
                    pass
    return work["built"] + work["derived"]


def _near_saturation(prob, eps):
    """``prob`` with its airtime (1 - eps) times the smallest airtime that
    ``saturated`` accepts."""
    return BargainingProblem(airtime=prob.demand / (1.0 + 1e-12) * (1.0 - eps), broadcast_rate=prob.broadcast_rate,
                             ids=prob.ids, data_sizes=prob.data_sizes, upload_rates=prob.upload_rates,
                             raw_alphas=prob.raw_alphas, go=prob.go)


def _conditioning(prob, exact) -> float:
    """How many times the airtime exceeds the exact airtime its uncapped
    players share, at least 1.  A solver reaches their level from the
    airtime less the capped spend, so an error of a few ulps of the airtime
    grows by this factor in their times."""
    caps = [Fraction(c) for c in prob.caps.tolist()]
    remainder = sum((1 + Fraction(b)) * x for b, x, c in zip(prob.betas.tolist(), exact, caps) if x < c)
    return max(1.0, float(Fraction(prob.airtime) / remainder))


def test_linear_allocators_stay_within_ulps_of_exact():
    """gsa, eql and wtd on every simulator problem, and on each one's
    budgets within 1e-12 of saturation on both sides, come within
    :data:`EXACT_ULPS` of the exact rational allocation of the problem's
    float columns.  On 400 wide-range linear draws they come within
    EXACT_ULPS times the draw's :func:`_conditioning`: there the capped
    players may spend all but a sliver of the airtime, and gsa, whose
    level comes from what they leave, then lands up to 55 ulps from exact
    (60 over 1,500 draws, 61 of them beyond 8 ulps), where scaled it stays
    within 3.8 (6.2) and eql and wtd within 5.2."""
    problems = _compared_problems()
    near = [_near_saturation(prob, eps) for prob in problems if prob.active for eps in (1e-12, 1e-13, 1e-15, -1e-13)]
    assert len(problems) >= 1000 and sum(not p.saturated for p in problems) >= 300
    assert sum(not p.saturated for p in near) >= 2500 and sum(p.saturated for p in near) >= 800
    wide = [support.wide_problem(np.random.default_rng([4242, seed]), linear=True) for seed in range(400)]
    assert not any(p.saturated for p in wide)
    allocators = {"gsa": lambda p: gnbs_allocate(p)[0], "eql": eql_allocate, "wtd": wtd_allocate}
    for prob, scaled in [(p, False) for p in problems + near] + [(p, True) for p in wide]:
        for policy, allocate in allocators.items():
            x = allocate(prob).broadcast_time.tolist()
            exact = support.exact_linear_allocation(prob, policy)
            bound = EXACT_ULPS * (_conditioning(prob, exact) if scaled else 1.0)
            assert support.ulps_from_exact(x, exact) <= bound


def _fill_bits(fill):
    s, x, iterations = fill
    return float(s).hex(), support.float_bits(x), iterations


def test_linear_water_fill_matches_probing_reference_bit_for_bit(table1):
    """Linear sets keep the breakpoint search and closed form float for
    float: table1, every simulator problem, and the eql and wtd shares of
    those and of the drawn problems."""
    simulated = _simulator_problems()
    assert len(simulated) >= 30
    fills = [(prob._curves, prob.airtime) for prob in [table1] + simulated]
    for prob in [table1] + simulated + _drawn_problems():
        fills += [(_Curves.clipped_linear(prob, slope), prob.airtime)
                  for slope in (np.ones(len(prob.ids)), prob.data_sizes)]
    for curves, budget in fills:
        assert not np.count_nonzero(curves.kind)
        assert _fill_bits(curves.water_fill(budget)) == _fill_bits(support.reference_water_fill(curves, budget))


def test_curved_water_fill_matches_probing_reference():
    """Curved sets reach the reference's level and times within 1e-12
    relative, and still certify at 1e-7."""
    curved = 0
    for prob in _drawn_problems():
        c = prob._curves
        s, x, _ = c.water_fill(prob.airtime)
        s_ref, x_ref, _ = support.reference_water_fill(c, prob.airtime)
        assert s == pytest.approx(s_ref, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(x, x_ref, rtol=1e-12, atol=0.0)
        assert gnbs_allocate(prob)[1].max_residual <= 1e-7
        curved += bool(np.count_nonzero(c.kind))
    assert curved > 100


def test_water_fill_inverts_curves_less_often_than_probing(monkeypatch):
    """No contended solve evaluates the curves more often than the probing
    reference, and the mixed draws evaluate them less often in total."""
    calls = [0]
    times = _Curves.times

    def counted(self, *args):
        calls[0] += 1
        return times(self, *args)

    def evaluations(fill, curves, budget):
        calls[0] = 0
        fill(curves, budget)
        return calls[0]

    monkeypatch.setattr(_Curves, "times", counted)
    total = np.zeros(2, dtype=int)
    for prob in _contended([support.mixed_problem(np.random.default_rng([7105, n, rep]), n)
                            for n in support.GROUP_SIZES[1:] for rep in range(6)]):
        counts = [evaluations(fill, prob._curves, prob.airtime)
                  for fill in (_Curves.water_fill, support.reference_water_fill)]
        assert counts[0] <= counts[1], counts
        total += counts
    assert total[0] < total[1], total


def test_level_for_airtime_matches_probing_reference_on_tails():
    """The public inverse is the water-fill of the tail's curves."""
    for seed in range(20):
        prob = support.wide_problem(np.random.default_rng([7106, seed]))
        start = len(prob.active) // 2
        tail = prob._curves.tail(start)
        v = 0.5 * (tail.weight @ tail.d + tail_airtime(prob, start, tail.top[0]))
        want = support.reference_water_fill(tail, v)[0]
        assert level_for_airtime(prob, start, v) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_climb_ends_on_its_tangent(monkeypatch):
    """A curved water-fill stops its Newton climb once a step is at most
    sqrt(eps) of the level, and returns the last level it evaluated plus
    that step, with the tangent prediction of the times: they spend the
    budget to 1e-12 without another evaluation of the curves."""
    levels = []
    times = _Curves.times

    def recorded(self, s, *args):
        levels.append(s)
        return times(self, s, *args)

    monkeypatch.setattr(_Curves, "times", recorded)
    checked = {}
    for kind, code in (("log-shifted", 1), ("power", 2)):
        checked[kind] = 0
        for seed in range(60):
            rng = np.random.default_rng([7107, code, seed])
            prob = support.random_problem(rng, size=int(rng.integers(2, 33)), kinds=("normalized-linear", kind),
                                          allow_disagreement=True)
            curves = prob._curves
            if prob.demand <= prob.airtime * (1.0 + 1e-12) or not np.count_nonzero(curves.kind == code):
                continue
            levels.clear()
            s, x, _ = curves.water_fill(prob.airtime)
            assert abs(s - levels[-1]) <= math.sqrt(np.finfo(float).eps) * levels[-1]
            assert curves.weight @ x == pytest.approx(prob.airtime, rel=1e-12, abs=0.0)
            checked[kind] += 1
    assert min(checked.values()) >= 20, checked


# ---------------------------------------------------------------------------
# Lambert W, which inverts the log-shifted level curves


def _lambert_inputs() -> np.ndarray:
    """0, the smallest subnormal and a few more, and 6,001 points over
    1e-300..1e300."""
    subnormals = [5e-324, 1e-323, 2.5e-320, 1e-310, np.nextafter(np.finfo(float).tiny, 0.0)]
    return np.concatenate([[0.0], subnormals, np.logspace(-300.0, 300.0, 6001)])


def test_lambert_w_matches_halley_reference():
    """Two fixed steps land within 2 ulps of Halley's method run to
    convergence, and q = 0 gives exactly 0.0 without a warning."""
    q = _lambert_inputs()
    y, want = _lambert_w(q), support.reference_lambert_w(q)
    assert y[0] == 0.0
    ulps = np.abs(y - want) / np.spacing(np.maximum(np.abs(y), np.abs(want)))
    assert ulps.max() <= 2.0, q[np.argmax(ulps)]


def test_lambert_w_start_within_two_percent():
    """The two steps rely on Winitzki's start being this close."""
    q = _lambert_inputs()[1:]
    start, want = _winitzki(q), support.reference_lambert_w(q)
    assert np.abs(start / want - 1.0).max() <= 0.02


def test_lambert_w_holds_up_to_the_largest_float():
    """Halley's e^y overflows above q ~ 5e307; the fixed steps read only
    log(q / y), so y + log(y) = log(q) holds to the largest float."""
    q = np.array([1e305, 5e307, 1e308, np.finfo(float).max])
    y = _lambert_w(q)
    np.testing.assert_allclose(y + np.log(y), np.log(q), rtol=4e-16, atol=0.0)
    assert np.abs(_winitzki(q) / y - 1.0).max() <= 0.02


# ---------------------------------------------------------------------------
# columnar problems against the player-by-player references


def test_curves_and_demand_match_player_by_player_reference():
    for n in support.GROUP_SIZES:
        for rep in range(6):
            prob = support.mixed_problem(np.random.default_rng([7101, n, rep]), n)
            assert float(prob.demand).hex() == support.reference_demand(prob).hex()
            got, want = prob._curves, support.reference_curves(prob)
            for name in ("index", "weight", "d", "cap", "r", "kind", "coeff", "top"):
                assert support.float_bits(getattr(got, name)) == support.float_bits(getattr(want, name)), name


def test_kkt_matches_player_by_player_reference():
    """Same verdict at 1e-7, same path and iterations, and the same worst
    residual to 1e-12 relative, over every utility kind, disagreement
    points, zero gains and players at their caps."""
    checked = 0
    for n in support.GROUP_SIZES:
        for rep in range(6):
            rng = np.random.default_rng([7102, n, rep])
            prob = support.mixed_problem(rng, n)
            _, report = gnbs_allocate(prob)
            for alloc in support.probe_allocations(prob, rng):
                got = kkt_residuals(prob, alloc, report.lam, report.iterations)
                want = support.reference_kkt_residuals(prob, alloc, report.lam, report.iterations)
                assert (got.path, got.iterations) == (want.path, want.iterations)
                assert (got.max_residual <= 1e-7) == (want.max_residual <= 1e-7)
                if math.isinf(want.max_residual):
                    assert got.max_residual == want.max_residual
                else:
                    assert got.max_residual == pytest.approx(want.max_residual, rel=1e-12, abs=0.0)
                checked += 1
    assert checked == 4 * 6 * len(support.GROUP_SIZES)


def test_zero_gain_reads_infinite_residual_without_warning():
    # x one ulp above a huge d: the log utility's gain rounds to zero, so
    # the level is zero and its inverse infinite (no error, no warning)
    ps = [
        Player(id="go", data_size=1e22, role=ROLE_GO, utility=Utility.log_shifted(1.0), disagreement=1e20),
        Player(id="c", data_size=20.0, upload_rate=5.0),
    ]
    prob = BargainingProblem(ps, airtime=2e20, broadcast_rate=10.0)
    x = np.array([math.nextafter(1e20, math.inf), 0.5])
    assert math.log1p(x[0]) == math.log1p(1e20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = kkt_residuals(prob, Allocation(x, prob.betas * x), 1.0)
    assert report.stationarity[0] == math.inf
    assert report.max_residual == math.inf


def _columns_of(players):
    go = [k for k, p in enumerate(players) if p.role == ROLE_GO]
    return dict(
        ids=[p.id for p in players],
        data_sizes=[p.data_size for p in players],
        upload_rates=[p.upload_rate for p in players],
        raw_alphas=[p.alpha for p in players],
        go=go[0] if len(go) == 1 else go,
        disagreements=[p.disagreement for p in players],
    )


_PAIR = dict(ids=["go", "c"], data_sizes=[5.0, 5.0], upload_rates=[math.inf, 5.0], raw_alphas=[1.0, 1.0], go=0)


@pytest.mark.parametrize("player_fields,columns,error,message", [
    ({"data_size": -1.0}, {"data_sizes": [5.0, -1.0]}, ValueError, "data_size must be >= 0"),
    ({"alpha": 0.0}, {"raw_alphas": [1.0, 0.0]}, ValueError, "alpha must be > 0"),
    ({"disagreement": -0.5}, {"disagreements": [0.0, -0.5]}, ValueError, "disagreement must be >= 0"),
    ({"upload_rate": 0.0}, {"upload_rates": [math.inf, 0.0]}, ValueError, "clients need upload_rate > 0"),
    pytest.param({"upload_rate": math.nan}, {"upload_rates": [math.inf, math.nan]}, ValueError,
                 "clients need upload_rate > 0", id="upload_rate-nan"),
    pytest.param({"upload_rate": 5e-324}, {"upload_rates": [math.inf, 5e-324]}, ValueError,     # 5 / 5e-324 is inf
                 "clients need a finite relay overhead", id="upload_rate-5e-324"),
    pytest.param({"data_size": math.inf}, {"data_sizes": [5.0, math.inf]}, ValueError,
                 "with a finite cap data_size / broadcast_rate", id="data_size-inf"),
    pytest.param({}, {"broadcast_rate": 1e-310}, ValueError,      # 5 / 1e-310 is inf
                 "with a finite cap data_size / broadcast_rate", id="cap-overflows"),
    # c's cap is 5e10 s and its weight 1e-300 of the sum, so its level at the cap is 5e310
    pytest.param({"alpha": 1e-300}, {"raw_alphas": [1.0, 1e-300], "broadcast_rate": 1e-10}, ValueError,
                 "player c: the level at the cap overflows", id="cap-level-overflows"),
    # each cap is 5e307 s and each level 1e308, but the two caps sum to 1e308 s
    pytest.param({}, {"broadcast_rate": 1e-307}, ValueError,
                 r"the demand, the channel seconds that drain every queue, must be below DBL_MAX / 2",
                 id="demand-overflows"),
    pytest.param({"utility": Utility("normalized-linear", 0.0)}, {"kinds": [0, 0], "coeffs": [math.nan, 0.0]},
                 ValueError, "utility coefficient must be positive", id="normalized-linear-0.0"),
    pytest.param({"utility": Utility("log-shifted", -1.0)}, {"kinds": [0, 1], "coeffs": [math.nan, -1.0]},
                 ValueError, "utility coefficient must be positive", id="log-shifted--1.0"),
    pytest.param({"utility": Utility("power", math.nan)}, {"kinds": [0, 2], "coeffs": [math.nan, math.nan]},
                 ValueError, "utility coefficient must be positive", id="power-nan"),
    pytest.param({"utility": Utility("power", 1.5)}, {"kinds": [0, 2], "coeffs": [math.nan, 1.5]},
                 ValueError, r"power exponent must lie in \(0, 1\]", id="power-1.5"),
])
def test_player_checks_hold_for_columns(player_fields, columns, error, message):
    """The problem alone checks a player's values and its utility's: a
    :class:`Player` and a :class:`Utility` hold them as given, and a problem
    built from them raises what the same values as columns raise.  A row
    may give the problem's broadcast rate among its columns."""
    client = Player(id="c", **{"data_size": 5.0, "upload_rate": 5.0, **player_fields})
    assert all(getattr(client, field) is value for field, value in player_fields.items())
    with pytest.raises(error, match=message):
        BargainingProblem([Player("go", 5.0, role=ROLE_GO), client], 10.0, columns.get("broadcast_rate", 5.0))
    with pytest.raises(error, match=message):
        BargainingProblem(**{"airtime": 10.0, "broadcast_rate": 5.0, **_PAIR, **columns})


@pytest.mark.parametrize("idle", [False, True], ids=["all-bargain", "idle-player"])
def test_with_channel_derives_the_constructors_problem(idle):
    """``with_channel`` gives, to the bit, the problem the constructor builds
    from the same columns with the new airtime and upload rates: every
    column, the bargaining players' columns, the level curves and the GNBS
    allocation.  It rejects a bad airtime or upload rate with the
    constructor's message."""
    nan, inf = math.nan, math.inf
    columns = dict(ids=["a", "go", "c", "idle"], data_sizes=[100.0, 50.0, 30.0, 0.0], raw_alphas=[1.0, 2.0, 1.0, 3.0],
                   go=1, disagreements=[0.5, 0.0, 0.2, 0.0], kinds=[1, 0, 2, 0], coeffs=[2.0, nan, 0.5, nan])
    n = 4 if idle else 3
    columns = {name: value if name == "go" else value[:n] for name, value in columns.items()}
    first = BargainingProblem(airtime=20.0, broadcast_rate=11.0, upload_rates=[10.0, inf, 5.0, 8.0][:n], **columns)
    for airtime, upload in [(12.0, [4.0, 1.0, 11.0, 3.0]), (1e3, [11.0, 11.0, 11.0, 11.0]), (40.0, [0.5, inf, 7.0, 1e9]),
                            (2.5, [11.0, 2.0, 7.0, 1e9])]:
        derived = first.with_channel(airtime, upload[:n])
        built = BargainingProblem(airtime=airtime, broadcast_rate=11.0, upload_rates=upload[:n], **columns)
        for view in (lambda p: p, lambda p: p._active, lambda p: p._curves, lambda p: p._base_values,
                     lambda p: gnbs_allocate(p)[0]):
            assert support.exact_bits(view(derived)) == support.exact_bits(view(built))
    for airtime, upload, message in [(0.0, [4.0, 1.0, 11.0, 3.0], "airtime must be > 0"),
                                     (12.0, [4.0, 1.0, 0.0, 3.0], "clients need upload_rate > 0"),
                                     (12.0, [4.0, 1.0, 5e-324, 3.0], "clients need a finite relay overhead")]:
        with pytest.raises(ValueError, match=message):
            BargainingProblem(airtime=airtime, broadcast_rate=11.0, upload_rates=upload[:n], **columns)
        with pytest.raises(ValueError, match=message):
            first.with_channel(airtime, upload[:n])


def test_given_utility_with_a_nan_coefficient_rejected():
    """A NaN coefficient column stands for the default utility, normalized
    over the player's own cap; a NaN in a :class:`Utility` given to a player
    is rejected, not read as that default."""
    client = Player("c", 5.0, 5.0, utility=Utility.normalized_linear(math.nan))
    with pytest.raises(ValueError, match="utility coefficient must be positive"):
        BargainingProblem([Player("go", 5.0, role=ROLE_GO), client], 10.0, 5.0)


def _with_idle_player() -> BargainingProblem:
    """table1's players and a seventh, index 6, with no data."""
    players = list(support.table1_problem().players) + [Player("idle", 0.0, 11.0)]
    return BargainingProblem(players, airtime=10.0, broadcast_rate=11.0)


@pytest.mark.parametrize("call,error,message", [
    (lambda: Player("c", 5.0, 5.0, role="relay"), ValueError, "unknown role 'relay'"),
    (lambda: BargainingProblem(airtime=0.0, broadcast_rate=5.0, **_PAIR), ValueError, "airtime must be > 0"),
    (lambda: BargainingProblem(airtime=1.0, broadcast_rate=-5.0, **_PAIR), ValueError, "broadcast_rate must be > 0"),
    (lambda: BargainingProblem(airtime=1.0, broadcast_rate=math.inf, ids=["go"], data_sizes=[1.0],
                               upload_rates=[math.inf], raw_alphas=[1.0], go=0),
     ValueError, "broadcast_rate must be > 0 and finite"),
    (lambda: BargainingProblem(airtime=1.0, broadcast_rate=5.0, **{**_PAIR, "go": 2}), ValueError,
     r"GO index 2 outside 0\.\.1"),
    (lambda: level(_with_idle_player(), 6, 1.0), DomainError, "player index 6 has no data"),
    (lambda: time_at_level(_with_idle_player(), 6, 1.0), DomainError, "player index 6 has no data"),
    (lambda: time_at_level(support.table1_problem(), 0, 1e9), DomainError, r"level 1000000000\.0 outside \(0, "),
    (lambda: tail_airtime(support.table1_problem(), 6, 1.0), DomainError, "start=6 outside the sorted order"),
    (lambda: tail_airtime(support.table1_problem(), -1, 1.0), DomainError, "start=-1 outside the sorted order"),
    (lambda: tail_airtime(support.table1_problem(), 0, 1e9), DomainError, "beyond the tail's smallest cap level"),
    (lambda: level_for_airtime(support.table1_problem(), 0, 1e9), DomainError,
     r"airtime 1000000000\.0 outside \(0, 12\.72"),
], ids=["role", "airtime", "broadcast-rate", "broadcast-rate-inf", "go-index", "level-no-data", "time-no-data", "time-level",
        "tail-start-past", "tail-start-negative", "tail-level", "airtime-past-tail"])
def test_public_functions_reject_out_of_range_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_level_for_airtime_at_the_full_tail_airtime_is_the_cap_level(table1):
    """The tail's full airtime is reached exactly at its smallest cap
    level, which the inverse returns without a water-fill."""
    for start in range(len(level_order(table1))):
        top = float(table1._curves.top[start])
        assert level_for_airtime(table1, start, tail_airtime(table1, start, top)) == top


@pytest.mark.parametrize("field,column,message", [
    ("data_size", "data_sizes", "data_size must be >= 0"),
    ("alpha", "raw_alphas", "alpha must be > 0"),
    ("disagreement", "disagreements", "disagreement must be >= 0"),
])
def test_nan_inputs_rejected(field, column, message):
    """NaN passes ``< 0`` and ``<= 0``; the problem rejects it anyway, from
    players and from columns.  A NaN alpha used to make every weight NaN and
    the broadcast time NaN."""
    nan = float("nan")
    go = Player(**{"id": "go", "data_size": 10.0, "role": ROLE_GO, field: nan})
    with pytest.raises(ValueError, match=message):
        BargainingProblem([go, Player("c", 10.0, 5.0)], 1.0, 10.0)
    columns = dict(ids=["go", "c"], data_sizes=[10.0, 10.0], upload_rates=[math.inf, 5.0],
                   raw_alphas=[1.0, 1.0], disagreements=[0.0, 0.0], go=0)
    columns[column] = [nan, columns[column][1]]
    with pytest.raises(ValueError, match=message):
        BargainingProblem(airtime=1.0, broadcast_rate=10.0, **columns)


@pytest.mark.parametrize("alphas", [[1e308, math.inf], [1e308, 1e308]], ids=["infinite", "sum-overflows"])
def test_weights_that_overflow_rejected(alphas):
    """An infinite weight, or finite ones whose sum overflows, used to make
    the normalized weights NaN."""
    players = [Player("go", 10.0, role=ROLE_GO, alpha=alphas[0]), Player("c", 10.0, 5.0, alpha=alphas[1])]
    with pytest.raises(ValueError, match="alpha weights must sum to a finite value"):
        BargainingProblem(players, 1.0, 10.0)
    with pytest.raises(ValueError, match="alpha weights must sum to a finite value"):
        BargainingProblem(airtime=1.0, broadcast_rate=10.0, ids=["go", "c"], data_sizes=[10.0, 10.0],
                          upload_rates=[math.inf, 5.0], raw_alphas=alphas, go=0)


def _huge_gain_players(gain: float, disagreement: float = 0.0) -> list:
    return [Player("a", 100.0, 10.0, utility=Utility.log_shifted(gain), disagreement=disagreement),
            Player("b", 50.0, role=ROLE_GO),
            Player("c", 30.0, 5.0, utility=Utility.log_shifted(2.0))]


def test_huge_log_gain_certifies():
    """Gain 1.1e304 on a's 100 Mb puts y e^y = q at q ~ 7e307 near a's cap,
    where Halley's e^y overflowed: a sat at its cap instead of 0.9983 of
    it, the budget was missed by 3.2e-2, and numpy warned."""
    demand = BargainingProblem(_huge_gain_players(2.0), 1.0, 11.0).demand
    prob = BargainingProblem(_huge_gain_players(1.1e304), 0.999 * demand, 11.0)
    alloc, report = gnbs_allocate(prob)
    assert report.max_residual <= 1e-12
    assert alloc.broadcast_time[0] / prob.caps[0] == pytest.approx(0.9983, abs=1e-4)


def test_log_gain_that_overflows_the_level_rejected():
    """With k room above ~2.56e305, a's level at its cap, log1p(k room)
    (1 + k room) / (r k), is inf: the cap level, time_at_level,
    tail_airtime and a saturated lam read inf, nan or 0, and
    level_for_airtime raised DomainError.  Such a problem is now rejected,
    as weights that overflow are."""
    message = r"player a: log-shifted gain 1e\+306 overflows the level arithmetic at the cap"
    with pytest.raises(ValueError, match=message):
        BargainingProblem(_huge_gain_players(1e306), 30.0, 11.0)
    with pytest.raises(ValueError, match=message):
        BargainingProblem(airtime=30.0, broadcast_rate=11.0, ids=["a", "b", "c"], data_sizes=[100.0, 50.0, 30.0],
                          upload_rates=[10.0, math.inf, 5.0], raw_alphas=[1.0, 1.0, 1.0], go=1,
                          kinds=[1, 0, 1], coeffs=[1e306, math.nan, 2.0])


def _gain_times_disagreement_players(gain: float) -> list:
    return [Player("a", 100.0, 10.0, utility=Utility.log_shifted(gain), disagreement=2.0),
            Player("b", 50.0, role=ROLE_GO)]


def test_log_gain_whose_product_with_the_disagreement_overflows_rejected():
    """Gain 1e308 at d = 2 s: 1 + g d overflows, so k = g / (1 + g d) reads
    0 and a's cap level NaN.  The check reads that level off the curves;
    it used to recompute k room = 0, pass, and leave a NaN broadcast time."""
    message = r"player a: log-shifted gain 1e\+308 overflows the level arithmetic at the cap"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            BargainingProblem(_gain_times_disagreement_players(1e308), 10.0, 11.0)
        with pytest.raises(ValueError, match=message):
            BargainingProblem(airtime=10.0, broadcast_rate=11.0, ids=["a", "b"], data_sizes=[100.0, 50.0],
                              upload_rates=[10.0, math.inf], raw_alphas=[1.0, 1.0], go=1,
                              disagreements=[2.0, 0.0], kinds=[1, 0], coeffs=[1e308, math.nan])
    _, report = gnbs_allocate(BargainingProblem(_gain_times_disagreement_players(1e307), 10.0, 11.0))
    assert report.max_residual <= 1e-12


@pytest.mark.parametrize("gain,disagreement", [(2.75e304, 0.0), (2.8e304, 0.0), (1e306, 1.0)],
                         ids=["k-room-2.5e305", "k-room-2.55e305", "disagreement"])
def test_log_gain_below_the_overflow_bound_certifies(gain, disagreement):
    """Just below the bound (and for any gain once a disagreement point
    makes k = g / (1 + g d) ~ 1 / d), every level reads finite and both
    the contended and the saturated solve certify."""
    demand = BargainingProblem(_huge_gain_players(2.0), 1.0, 11.0).demand
    prob = BargainingProblem(_huge_gain_players(gain, disagreement), 0.999 * demand, 11.0)
    _, report = gnbs_allocate(prob)
    assert report.max_residual <= 1e-12
    top = prob._curves.top
    assert np.isfinite(top).all()
    assert time_at_level(prob, 0, top.max()) == pytest.approx(prob.caps[0], rel=1e-12)
    vmax = tail_airtime(prob, 0, top[0])
    assert math.isfinite(vmax)
    assert 0.0 < level_for_airtime(prob, 0, 0.5 * vmax) < top[0]
    _, report = gnbs_allocate(BargainingProblem(_huge_gain_players(gain, disagreement), 2.0 * demand, 11.0))
    assert report.lam > 0.0 and report.max_residual <= 1e-12


@pytest.mark.parametrize("players,error,message", [
    ([], ValueError, "need at least one player"),
    ([("a", 5.0, {})], ValueError, r"expected exactly one GO, found 0"),
    ([("a", 5.0, {"role": ROLE_GO}), ("b", 5.0, {"role": ROLE_GO})], ValueError, r"expected exactly one GO, found 2"),
    ([("a", 5.0, {"role": ROLE_GO}), ("a", 5.0, {})], ValueError, "duplicate player ids"),
    ([("go", 5.0, {"role": ROLE_GO, "disagreement": 1.0}), ("c", 5.0, {})],
     InfeasibleProblemError, "player go: disagreement point leaves no room below the cap"),
    ([("go", 5.0, {"role": ROLE_GO}), ("c", 0.0, {"disagreement": 0.1})],
     InfeasibleProblemError, "player c: positive disagreement with no data"),
    ([("go", 50.0, {"role": ROLE_GO, "disagreement": 0.6}), ("c", 50.0, {"disagreement": 0.3})],
     InfeasibleProblemError, "disagreement outcomes already consume the whole airtime budget"),
])
def test_problem_checks_match_between_players_and_columns(players, error, message):
    ps = [Player(id=i, data_size=size, upload_rate=5.0, **kw) for i, size, kw in players]
    with pytest.raises(error, match=message):
        BargainingProblem(ps, airtime=1.0, broadcast_rate=5.0)
    with pytest.raises(error, match=message):
        BargainingProblem(airtime=1.0, broadcast_rate=5.0, **_columns_of(ps))


def test_columns_and_players_give_the_same_arrays():
    for n in support.GROUP_SIZES:
        prob = support.mixed_problem(np.random.default_rng([7103, n]), n)
        kinds = [0 if p.utility is None else ("normalized-linear", "log-shifted", "power").index(p.utility.kind)
                 for p in prob.players]
        coeffs = [math.nan if p.utility is None else p.utility.coeff for p in prob.players]
        columnar = BargainingProblem(airtime=prob.airtime, broadcast_rate=prob.broadcast_rate,
                                     kinds=kinds, coeffs=coeffs, **_columns_of(prob.players))
        reference = support.reference_columns(prob.players, prob.broadcast_rate)
        for name, want in reference.items():
            assert support.float_bits(getattr(prob, name)) == support.float_bits(want), name
            assert support.float_bits(getattr(columnar, name)) == support.float_bits(want), name
        assert columnar.players == prob.players
        assert columnar.utilities == prob.utilities
        assert columnar.active == prob.active


_COLUMNS = ("data_sizes", "upload_rates", "raw_alphas", "disagreements", "kinds", "coeffs", "alphas", "betas", "caps")


def test_columns_are_read_only():
    """A problem's level curves are derived from its columns once, so a
    write that would leave a solved problem answering from stale curves
    fails instead; the caller's own arrays stay writable."""
    problem = support.table1_problem()
    before, _ = gnbs_allocate(problem)
    loads = np.array([5.0, 0.0, 2.0])
    columnar = BargainingProblem(airtime=1.0, broadcast_rate=5.0, ids=["go", "c", "d"], data_sizes=loads,
                                 upload_rates=[math.inf, 5.0, 5.0], raw_alphas=[1.0, 1.0, 1.0], go=0,
                                 kinds=[0, 1, 2], coeffs=[math.nan, 2.0, 0.5])
    for prob in (problem, columnar):
        for name in _COLUMNS:
            assert not getattr(prob, name).flags.writeable, name
    assert loads.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        problem.caps[:] *= 0.01
    after, kkt = gnbs_allocate(problem)
    assert support.float_bits(after.broadcast_time) == support.float_bits(before.broadcast_time)
    assert after.broadcast_time.max() <= problem.caps.max()
    assert kkt.max_residual <= 1e-9


def test_columnar_utilities_are_checked():
    with pytest.raises(ValueError, match="unknown utility kind code 3"):
        BargainingProblem(airtime=1.0, broadcast_rate=5.0, kinds=[0, 3], coeffs=[1.0, 1.0], **_PAIR)
    with pytest.raises(ValueError, match="utility coefficient must be positive"):
        BargainingProblem(airtime=1.0, broadcast_rate=5.0, kinds=[0, 1], **_PAIR)   # log needs a gain
    with pytest.raises(TypeError, match="players or columns"):
        BargainingProblem([Player(id="go", data_size=1.0, role=ROLE_GO)], 1.0, 5.0, **_PAIR)
