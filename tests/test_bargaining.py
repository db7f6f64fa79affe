import math
import warnings
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import support
from airfair import BargainingProblem, InfeasibleProblemError, Player, Utility
from airfair.bargaining import (
    Allocation,
    DomainError,
    ROLE_GO,
    gnbs_allocate,
    kkt_residuals,
    level,
    level_for_airtime,
    level_order,
    tail_airtime,
    time_at_level,
    weighted_airtime,
)


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


@pytest.mark.parametrize("kind,coeff", [("normalized-linear", 0.0), ("log-shifted", -1.0), ("power", 1.5)])
def test_bad_utility_parameters(kind, coeff):
    with pytest.raises(ValueError):
        Utility(kind=kind, coeff=coeff)


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
    # Halley (log-shifted) and Newton (power with a disagreement point)
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
])
def test_player_checks_hold_for_columns(player_fields, columns, error, message):
    with pytest.raises(error, match=message):
        Player(id="c", **{"data_size": 5.0, "upload_rate": 5.0, **player_fields})
    with pytest.raises(error, match=message):
        BargainingProblem(airtime=10.0, broadcast_rate=5.0, **{**_PAIR, **columns})


@pytest.mark.parametrize("field,column,message", [
    ("data_size", "data_sizes", "data_size must be >= 0"),
    ("alpha", "raw_alphas", "alpha must be > 0"),
    ("disagreement", "disagreements", "disagreement must be >= 0"),
])
def test_nan_inputs_rejected(field, column, message):
    """NaN passes ``< 0`` and ``<= 0``; both constructors reject it anyway.
    A NaN alpha used to make every weight NaN and the broadcast time NaN."""
    nan = float("nan")
    with pytest.raises(ValueError, match=message):
        go = Player(**{"id": "go", "data_size": 10.0, "role": ROLE_GO, field: nan})
        BargainingProblem([go, Player("c", 10.0, 5.0)], 1.0, 10.0)
    columns = dict(ids=["go", "c"], data_sizes=[10.0, 10.0], upload_rates=[math.inf, 5.0],
                   raw_alphas=[1.0, 1.0], disagreements=[0.0, 0.0], go=0)
    columns[column] = [nan, columns[column][1]]
    with pytest.raises(ValueError, match=message):
        BargainingProblem(airtime=1.0, broadcast_rate=10.0, **columns)


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


def test_columnar_utilities_are_checked():
    with pytest.raises(ValueError, match="unknown utility kind code 3"):
        BargainingProblem(airtime=1.0, broadcast_rate=5.0, kinds=[0, 3], coeffs=[1.0, 1.0], **_PAIR)
    with pytest.raises(ValueError, match="utility coefficient must be positive"):
        BargainingProblem(airtime=1.0, broadcast_rate=5.0, kinds=[0, 1], coeffs=[1.0, -1.0], **_PAIR)
    with pytest.raises(ValueError, match="utility coefficient must be positive"):
        BargainingProblem(airtime=1.0, broadcast_rate=5.0, kinds=[0, 1], **_PAIR)   # log needs a gain
    with pytest.raises(ValueError, match=r"power exponent must lie in \(0, 1\]"):
        BargainingProblem(airtime=1.0, broadcast_rate=5.0, kinds=[0, 2], coeffs=[math.nan, 1.5], **_PAIR)
    with pytest.raises(TypeError, match="players or columns"):
        BargainingProblem([Player(id="go", data_size=1.0, role=ROLE_GO)], 1.0, 5.0, **_PAIR)
