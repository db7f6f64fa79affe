import math

import numpy as np
import pytest

import support
from airfair import Allocation, BargainingProblem, Player, Utility
from airfair.bargaining import (
    DomainError,
    ROLE_GO,
    dissemination_rate,
    eql_allocate,
    gnbs_allocate,
    kkt_residuals,
    log_nash_welfare,
    nash_product,
    sample_feasible,
    weighted_airtime,
    wpf_aggregate,
    wtd_allocate,
)


def test_table1_nash_product_value(table1):
    alloc, _ = gnbs_allocate(table1)
    assert nash_product(table1, alloc) == pytest.approx(0.3357945, abs=1e-6)


def test_policy_ordering_on_table1(table1):
    gsa, _ = gnbs_allocate(table1)
    best = nash_product(table1, gsa)
    assert best > nash_product(table1, eql_allocate(table1))
    assert nash_product(table1, eql_allocate(table1)) > nash_product(table1, wtd_allocate(table1))


def test_log_welfare_matches_product(table1):
    alloc, _ = gnbs_allocate(table1)
    assert math.exp(log_nash_welfare(table1, alloc)) == pytest.approx(nash_product(table1, alloc), rel=1e-9)


def test_log_welfare_sentinel_at_disagreement(table1):
    zero = Allocation(np.zeros(6), np.zeros(6), saturated=False)
    assert log_nash_welfare(table1, zero) == -math.inf
    assert nash_product(table1, zero) == 0.0


def test_wpf_zero_for_budget_tight_alternative(table1):
    # any alternative spending the whole budget scores exactly zero here
    # because utilities are linear in time and weights were normalized
    gsa, _ = gnbs_allocate(table1)
    assert wpf_aggregate(table1, gsa, eql_allocate(table1)) == pytest.approx(0.0, abs=1e-9)
    assert wpf_aggregate(table1, gsa, wtd_allocate(table1)) == pytest.approx(0.0, abs=1e-9)


def test_wpf_negative_when_airtime_unused(table1):
    gsa, _ = gnbs_allocate(table1)
    lazy = Allocation(gsa.broadcast_time * 0.9, gsa.upload_time * 0.9, saturated=False)
    assert wpf_aggregate(table1, gsa, lazy) < -1e-3


def test_wpf_rejects_nonzero_disagreement():
    ps = [
        Player(id="go", data_size=50.0, role=ROLE_GO, disagreement=0.1),
        Player(id="c", data_size=50.0, upload_rate=10.0),
    ]
    prob = BargainingProblem(ps, airtime=5.0, broadcast_rate=10.0)
    alloc, _ = gnbs_allocate(prob)
    with pytest.raises(DomainError):
        wpf_aggregate(prob, alloc, alloc)


def test_wpf_nonpositive_on_sampled_points(table1, rng):
    gsa, _ = gnbs_allocate(table1)
    for x in sample_feasible(table1, 50, rng):
        other = Allocation(x, x * table1.betas, saturated=False)
        assert wpf_aggregate(table1, gsa, other) <= 1e-9


def test_sampled_points_are_feasible(table1, rng):
    for x in sample_feasible(table1, 50, rng):
        assert np.all(x <= table1.caps * (1 + 1e-12))
        assert np.all(x >= 0)
        assert np.sum((1 + table1.betas) * x) <= 10.0 * (1 + 1e-9)


def test_sampler_matches_spill_reference():
    # every utility kind and some zero-load players; the sampler ignores
    # utilities, and zero-load players must stay at zero
    kept = with_zero_load = 0
    kinds = set()
    seed = 0
    while kept < 2000:
        rng = np.random.default_rng(seed)
        seed += 1
        prob = support.mixed_problem(rng, int(rng.integers(1, 17)), disagreements=False)
        if prob.demand <= prob.airtime:
            continue
        kept += 1
        with_zero_load += bool(np.count_nonzero(prob.caps == 0))
        kinds.update(prob.kinds[prob.caps > 0].tolist())
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_feasible(prob, 3, got_rng)
        want = support.reference_sample_feasible(prob, 3, want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert np.all(np.abs(got - want) <= 1e-13 * prob.caps)
        for row in (*got, *want):
            assert abs(weighted_airtime(prob, row) - prob.airtime) <= 1e-13 * prob.airtime
    assert with_zero_load >= 100
    assert {0, 1} <= kinds


def test_kkt_flags_perturbed_allocation(table1):
    alloc, report = gnbs_allocate(table1)
    assert report.max_residual <= 1e-7
    bumped = alloc.broadcast_time.copy()
    bumped[0] += 0.01
    bumped[1] -= 0.01 * (1 + table1.betas[0]) / (1 + table1.betas[1])
    moved = Allocation(bumped, bumped * table1.betas, saturated=False)
    assert kkt_residuals(table1, moved, report.lam).max_residual > 1e-4


def test_dissemination_rates_table1(table1):
    alloc, _ = gnbs_allocate(table1)
    assert dissemination_rate(table1, alloc, 0) == pytest.approx(5.0 / 7.0 * 11.0 / 10.0, rel=1e-9)
    assert dissemination_rate(table1, alloc, 3) == pytest.approx(20.0 / 7.0 * 11.0 / 10.0, rel=1e-9)


# ---------------------------------------------------------------------------
# array metrics against the player-by-player references


def _outcome(fn, *args):
    """A metric's exact spelling, or the DomainError it raised."""
    try:
        return float(fn(*args)).hex()
    except DomainError as e:
        return f"DomainError: {e}"


def test_metrics_match_player_by_player_references_bit_for_bit():
    """Every utility kind, disagreement points (half of the problems),
    zero gains and players at their caps, in groups of 1-64 players."""
    seen = set()
    for n in support.GROUP_SIZES:
        for rep in range(6):
            rng = np.random.default_rng([7104, n, rep])
            prob = support.mixed_problem(rng, n, disagreements=rep % 2 == 1)
            allocs = support.probe_allocations(prob, rng)
            for alloc in allocs:
                assert _outcome(nash_product, prob, alloc) == _outcome(support.reference_nash_product, prob, alloc)
                assert (_outcome(log_nash_welfare, prob, alloc)
                        == _outcome(support.reference_log_nash_welfare, prob, alloc))
                for base in (allocs[0], allocs[-1]):
                    got = _outcome(wpf_aggregate, prob, base, alloc)
                    assert got == _outcome(support.reference_wpf_aggregate, prob, base, alloc)
                    seen.add(got.split(":")[0] if got.startswith("DomainError") else "value")
                seen.add("zero" if nash_product(prob, alloc) == 0.0 else "positive")
    assert seen == {"value", "DomainError", "zero", "positive"}


def test_product_and_log_welfare_use_scalar_libm():
    """Two players, the second with a gain of exactly 1: the product is
    pow(gain, alpha) and the log welfare alpha * log(gain), as libm's scalar
    ``pow`` and ``log`` round them (numpy's array kernels may round some
    inputs differently)."""
    unit = Utility.normalized_linear(1.0)
    ps = [Player(id="go", data_size=1e3, role=ROLE_GO, alpha=2.0, utility=unit),
          Player(id="c", data_size=1e3, upload_rate=10.0, utility=unit)]
    prob = BargainingProblem(ps, airtime=1.0, broadcast_rate=10.0)
    alpha = prob.alphas[0]
    rng = np.random.default_rng(7105)
    for gain in (10.0 ** rng.uniform(-3.0, 2.0, size=2000)).tolist():
        x = np.array([gain, 1.0])
        alloc = Allocation(x, prob.betas * x)
        assert nash_product(prob, alloc).hex() == math.pow(gain, alpha).hex()
        assert log_nash_welfare(prob, alloc).hex() == (alpha * math.log(gain)).hex()
