from dataclasses import replace

import numpy as np
import pytest

import support
from airfair import BargainingProblem, Player
from airfair.bargaining import (
    ROLE_GO,
    _clipped_linear_allocate,
    eql_allocate,
    gnbs_allocate,
    weighted_airtime,
    wtd_allocate,
)


def test_eql_table1_common_share(table1):
    alloc = eql_allocate(table1)
    np.testing.assert_allclose(alloc.broadcast_time, np.full(6, 10.0 / 11.0), atol=1e-9)
    assert weighted_airtime(table1, alloc.broadcast_time) == pytest.approx(10.0, abs=1e-9)


def test_eql_redistributes_around_binding_cap():
    # the GO can only use 0.3s; the freed airtime raises both clients equally
    ps = [
        Player(id="go", data_size=3.0, role=ROLE_GO),
        Player(id="c1", data_size=50.0, upload_rate=10.0),
        Player(id="c2", data_size=50.0, upload_rate=10.0),
    ]
    prob = BargainingProblem(ps, airtime=2.0, broadcast_rate=10.0)
    alloc = eql_allocate(prob)
    np.testing.assert_allclose(alloc.broadcast_time, [0.3, 0.425, 0.425], atol=1e-9)


def test_eql_saturated_gives_caps():
    prob = support.table1_problem(airtime=100.0)
    alloc = eql_allocate(prob)
    np.testing.assert_allclose(alloc.broadcast_time, prob.caps, atol=1e-12)
    assert alloc.saturated


def test_wtd_table1_proportional_to_load(table1):
    alloc = wtd_allocate(table1)
    c = 10.0 / 460.0
    expect = c * np.array([10, 20, 40, 40, 60, 80], dtype=float)
    np.testing.assert_allclose(alloc.broadcast_time, expect, atol=1e-9)
    assert weighted_airtime(table1, alloc.broadcast_time) == pytest.approx(10.0, abs=1e-9)


def test_wtd_closed_form_contended_case():
    # with a uniform broadcast rate the share ratio x_i / cap_i is one common
    # value, so the bisection must land on c = T / sum((1+beta) M)
    ps = [
        Player(id="go", data_size=100.0, role=ROLE_GO),
        Player(id="c", data_size=10.0, upload_rate=1.0, alpha=1.0),
    ]
    prob = BargainingProblem(ps, airtime=5.0, broadcast_rate=10.0)
    alloc = wtd_allocate(prob)
    c = 5.0 / (100.0 + 11.0 * 10.0)
    np.testing.assert_allclose(alloc.broadcast_time, [100.0 * c, 10.0 * c], atol=1e-9)


def test_wtd_spends_the_airtime_when_the_loads_sum_overflows():
    """table1 with n1 and n2 at 1e308 mb: every cap is finite, but the
    loads' weighted sum overflows, which used to give every node 0 s.  The
    allocation spends the airtime, in proportion to load, with no warning."""
    players = [replace(p, data_size=1e308) if p.id in ("n1", "n2") else p for p in support.table1_problem().players]
    prob = BargainingProblem(players, airtime=10.0, broadcast_rate=11.0)
    x = wtd_allocate(prob).broadcast_time
    assert x[0] == x[1] == pytest.approx(2.5, rel=1e-12)
    assert weighted_airtime(prob, x) == pytest.approx(10.0, rel=1e-12)
    np.testing.assert_allclose(x / prob.data_sizes, x[0] / 1e308, rtol=1e-12)


def test_wtd_slopes_scaled_by_a_power_of_two_keep_the_bits(table1):
    """The scaling wtd_allocate applies where the loads' sum would overflow
    is exact: on table1 and 200 wide draws, the loads times 2^-4 (the power
    of two above 11 Mb/s, the one it takes), 2^-60 or 2^60 give wtd's allocation
    to the bit."""
    draws = [support.wide_problem(np.random.default_rng([4343, seed]), linear=True) for seed in range(200)]
    for prob in [table1] + draws:
        expected = support.exact_bits(wtd_allocate(prob))
        for e in (-4, -60, 60):
            assert support.exact_bits(_clipped_linear_allocate(prob, np.ldexp(prob.data_sizes, e))) == expected


def test_wtd_saturated_gives_caps():
    prob = support.table1_problem(airtime=100.0)
    alloc = wtd_allocate(prob)
    np.testing.assert_allclose(alloc.broadcast_time, prob.caps, atol=1e-12)


def test_baselines_skip_zero_load_players(table1):
    ps = list(table1.players) + [Player(id="idle", data_size=0.0, upload_rate=11.0)]
    prob = BargainingProblem(ps, airtime=10.0, broadcast_rate=11.0)
    for allocate in (eql_allocate, wtd_allocate, lambda p: gnbs_allocate(p)[0]):
        assert allocate(prob).broadcast_time[6] == 0.0
