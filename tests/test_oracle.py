import numpy as np

import support
from airfair import BargainingProblem, Player
from airfair.bargaining import ROLE_GO, gnbs_allocate, nash_product, oracle_allocate


def test_symmetric_pair_splits_evenly():
    # a data-free GO plus two identical clients: the grid search must land on
    # the even split without any help from the solver
    ps = [
        Player(id="go", data_size=0.0, role=ROLE_GO),
        Player(id="a", data_size=50.0, upload_rate=10.0),
        Player(id="b", data_size=50.0, upload_rate=10.0),
    ]
    prob = BargainingProblem(ps, airtime=4.0, broadcast_rate=10.0)
    alloc = oracle_allocate(prob, resolution=200, refine_decades=3)
    np.testing.assert_allclose(alloc.broadcast_time[1:], [1.0, 1.0], atol=1e-4)


def test_oracle_matches_solver_normalized_linear(rng):
    for _ in range(5):
        prob = support.random_problem(rng, size=3, kinds=("normalized-linear",))
        exact, _ = gnbs_allocate(prob)
        grid = oracle_allocate(prob, resolution=200, refine_decades=3)
        np.testing.assert_allclose(grid.broadcast_time, exact.broadcast_time, atol=1e-4)


def test_oracle_matches_solver_log_shifted(rng):
    for _ in range(5):
        prob = support.random_problem(rng, size=3, kinds=("log-shifted",))
        exact, _ = gnbs_allocate(prob)
        grid = oracle_allocate(prob, resolution=200, refine_decades=3)
        np.testing.assert_allclose(grid.broadcast_time, exact.broadcast_time, atol=1e-4)


def test_refinement_tightens_the_grid(rng):
    prob = support.random_problem(rng, size=3, kinds=("normalized-linear",))
    exact, _ = gnbs_allocate(prob)
    coarse = oracle_allocate(prob, resolution=50, refine_decades=0)
    fine = oracle_allocate(prob, resolution=50, refine_decades=3)
    err = lambda a: np.max(np.abs(a.broadcast_time - exact.broadcast_time))
    assert err(fine) <= err(coarse)
    assert err(fine) < 1e-3


def test_oracle_with_one_active_player_is_the_solver():
    """A contended problem with one player left to bargain has nothing to
    search: the budget pins that player's time, as the solver finds."""
    ps = [Player(id="go", data_size=0.0, role=ROLE_GO), Player(id="c", data_size=50.0, upload_rate=10.0)]
    prob = BargainingProblem(ps, airtime=2.0, broadcast_rate=10.0)
    assert not prob.saturated and list(prob.active) == [1]
    grid, (exact, _) = oracle_allocate(prob), gnbs_allocate(prob)
    assert support.float_bits(grid.broadcast_time) == support.float_bits(exact.broadcast_time)
    assert support.float_bits(grid.upload_time) == support.float_bits(exact.upload_time)


def test_oracle_saturated_returns_caps():
    prob = support.table1_problem(airtime=100.0)
    alloc = oracle_allocate(prob)
    np.testing.assert_allclose(alloc.broadcast_time, prob.caps, atol=1e-12)


def test_oracle_never_beats_solver(rng):
    # the grid point can only do as well as the true optimum
    for _ in range(5):
        prob = support.random_problem(rng, size=4)
        exact, _ = gnbs_allocate(prob)
        grid = oracle_allocate(prob, resolution=60, refine_decades=2)
        assert nash_product(prob, grid) <= nash_product(prob, exact) * (1 + 1e-9)
