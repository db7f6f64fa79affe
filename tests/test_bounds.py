"""Boundary values: problems at, and one ulp inside, each bound that
:class:`~airfair.bargaining.BargainingProblem` enforces.

A bound is where a load's cap, a relay overhead, the weights' sum, a
player's level at its cap or the demand stops being a float the solver can
use.  Every problem drawn here either raises ``ValueError`` at construction
or gives finite allocations from all three allocators, a GNBS certificate
within 1e-7 relative, and a finite Nash product and wpf aggregate, with
numpy's float warnings errors, as the whole suite runs.  (Boundary-value
analysis; Claessen and Hughes, "QuickCheck", ICFP 2000; Goldberg, "What
every computer scientist should know about floating-point arithmetic", ACM
Computing Surveys 1991.)

The bounds the constructor states as comparisons are drawn directly: loads
at and below ``broadcast_rate * DBL_MAX``, upload rates at and above
``broadcast_rate / DBL_MAX``, subnormal loads and caps.  The bounds it
reaches through arithmetic, a weight sum, a level at the cap (through the
loads or a log-shifted gain) and the demand, are found by bisecting a scale
factor over the bits of a float: the last factor the constructor accepts
and the first it rejects are one ulp apart.
"""

import math
import sys

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import support
from airfair.bargaining import (
    BargainingProblem,
    ProblemOverflowError,
    eql_allocate,
    gnbs_allocate,
    level,
    nash_product,
    wpf_aggregate,
    wtd_allocate,
)
from airfair.grouping import ScheduleError
from airfair.scenario_io import SchemaError, scenario_from_dict
from airfair.simulate import compare_policies

_MAX = sys.float_info.max
_TINY = 5e-324
_MIN_NORMAL = sys.float_info.min
#: loads and caps from the smallest subnormal to the smallest normal float,
#: and 2^-1024, where 1 / cap stops being finite, with its next float
_SMALL = (_TINY, 1e-320, 2.0 ** -1024, 2.0 ** -1024 + _TINY, math.nextafter(_MIN_NORMAL, 0.0), _MIN_NORMAL)
#: airtimes left after the disagreement outcomes: subnormal ones, 1 / DBL_MAX
#: among them, and the smallest normal float, below which a contended
#: problem is rejected, one ulp either side of it and twice it
_LEFT = (_TINY, 1e-320, 1.0 / _MAX, math.nextafter(_MIN_NORMAL, 0.0), _MIN_NORMAL,
         math.nextafter(_MIN_NORMAL, math.inf), 2.0 * _MIN_NORMAL)


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def _float(bits: int) -> float:
    return float(np.int64(bits).view(np.float64))


def _build(columns: dict):
    """The problem of ``columns``, or None where the constructor rejects it."""
    try:
        return BargainingProblem(**columns)
    except ValueError:
        return None


def _airtime(columns: dict, share: float, left: float = 0.0) -> float:
    """The budget ``share`` of the way from the disagreement outcomes'
    channel seconds to the demand, plus ``left`` seconds, in Python floats
    (which overflow to inf and never warn), so that it moves with the
    loads."""
    rate, go = columns["broadcast_rate"], columns["go"]
    weights = [1.0 if k == go else 1.0 + rate / u if u else math.inf for k, u in enumerate(columns["upload_rates"])]
    demand = sum(w * x / rate for w, x in zip(weights, columns["data_sizes"]))
    spent = sum(w * d for w, d in zip(weights, columns["disagreements"]) if d)
    return spent + share * (demand - spent) + left


def _check(columns: dict) -> bool:
    """Either the constructor rejects ``columns`` (False), or every
    allocator gives finite seconds, gsa certifies within 1e-7 relative and
    the metrics are finite (True)."""
    problem = _build(columns)
    if problem is None:
        return False
    gsa, report = gnbs_allocate(problem)
    others = eql_allocate(problem), wtd_allocate(problem)
    for alloc in (gsa, *others):
        assert np.isfinite(alloc.broadcast_time).all() and np.isfinite(alloc.upload_time).all()
    assert report.relative_residual <= 1e-7, report
    assert math.isfinite(nash_product(problem, gsa))
    if not np.count_nonzero(problem.disagreements):
        for alloc in others:
            assert math.isfinite(wpf_aggregate(problem, gsa, alloc))
    return True


def _edge(scaled) -> tuple[float, float] | None:
    """The last factor f >= 1 at which ``scaled(f)``'s columns build and
    the first at which they do not, one ulp apart; None when they build at
    DBL_MAX or not at 1."""
    lo, hi = _bits(1.0), _bits(_MAX)
    if _build(scaled(1.0)) is None or _build(scaled(_MAX)) is not None:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _build(scaled(_float(mid))) is None:
            hi = mid
        else:
            lo = mid
    return _float(lo), _float(hi)


def _decades(draw, n: int, lo: float, hi: float) -> list[float]:
    return [10.0 ** u for u in draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))]


@st.composite
def _problems(draw):
    """Columns of 2-64 players of all three utility kinds, with disagreement
    points on or off and a budget from 30% to 150% of the way to the
    demand, and the edge to push them to."""
    n = draw(st.integers(2, 64))
    rate = draw(st.sampled_from((11.0, 1.0, 2.0 ** -30, 1e-300)))
    go = draw(st.integers(0, n - 1))
    kinds = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    gains, exponents = _decades(draw, n, -1.5, 1.5), draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
    columns = dict(
        ids=[f"p{k}" for k in range(n)], go=go, broadcast_rate=rate, kinds=kinds,
        data_sizes=[rate * c for c in _decades(draw, n, -2.0, 2.0)],
        upload_rates=[rate / b for b in _decades(draw, n, -2.0, 2.0)],
        raw_alphas=_decades(draw, n, -2.0, 2.0),
        coeffs=[math.nan if k == 0 else g if k == 1 else p for k, g, p in zip(kinds, gains, exponents)],
        disagreements=[0.0] * n)
    if draw(st.booleans()):
        fractions = draw(st.lists(st.sampled_from((0.0, 0.0, 0.3, 0.9)), min_size=n, max_size=n))
        columns["disagreements"] = [f * x / rate for f, x in zip(fractions, columns["data_sizes"])]
    share = draw(st.sampled_from((0.3, 0.9, 0.999, 1.5)))
    edge = draw(st.sampled_from(("small", "load", "upload", "airtime", "alphas", "gain", "level", "demand")))
    picked = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return columns, share, edge, picked


def _set(columns: dict, name: str, picked, values) -> dict:
    column = list(columns[name])
    for k, v in zip(picked, values):
        column[k] = v
    return {**columns, name: column}


@settings(derandomize=True, max_examples=120, deadline=None)
@given(case=_problems(), data=st.data())
def test_every_bound_raises_or_certifies(case, data):
    """Each edge on the drawn players (``picked``): the value at a bound
    and one ulp inside it, or for a bound the constructor reaches through
    arithmetic, the drawn problem and both sides of its bisected edge.  The
    accepted side of a bisected edge must build and certify."""
    columns, share, edge, picked = case
    rate = columns["broadcast_rate"]

    def at(columns, share=share):
        return {**columns, "airtime": _airtime(columns, share)}

    def scale(name, picked=None):
        def scaled(f):
            keep = range(len(columns[name])) if picked is None else picked
            return at(_set(columns, name, keep, [columns[name][k] * f for k in keep]))
        return scaled

    if edge == "small":     # subnormal loads, and loads whose caps are subnormal
        unit = data.draw(st.sampled_from((1.0, rate)))
        loads = [unit * data.draw(st.sampled_from(_SMALL)) for _ in picked]
        _check(at(_set(columns, "data_sizes", picked, loads)))
        return
    if edge == "load":      # at and one ulp inside broadcast_rate * DBL_MAX
        bound = rate * _MAX
        for load in (bound, math.nextafter(bound, 0.0)):
            _check(at(_set(columns, "data_sizes", picked[:1], [load])))
        return
    if edge == "upload":    # clients at, one ulp either side of and far below broadcast_rate / DBL_MAX
        bound = rate / _MAX
        clients = [k for k in picked if k != columns["go"]] or [(columns["go"] + 1) % len(columns["ids"])]
        for upload in (bound, math.nextafter(bound, math.inf), math.nextafter(bound, 0.0), _TINY):
            out = _set(columns, "upload_rates", clients, [upload] * len(clients))
            for load in (0.0, _TINY, rate * 1e-300, None):      # idle, or busy with a tiny or its own load
                _check(at(out if load is None else _set(out, "data_sizes", clients, [load] * len(clients))))
        return
    if edge == "airtime":   # the airtime left after the disagreement outcomes near the smallest normal float
        for left in _LEFT:
            _check({**columns, "airtime": _airtime(columns, 0.0, left)})
        return
    if edge == "gain":      # a log-shifted gain at its overflow bound
        columns = _set(_set(columns, "kinds", picked[:1], [1]), "coeffs", picked[:1], [1.0])
        scaled = scale("coeffs", picked[:1])
    elif edge == "alphas":  # the raw weights' sum at DBL_MAX
        scaled = scale("raw_alphas")
    elif edge == "level":   # the loads at the first level at the cap that overflows
        scaled = scale("data_sizes")
    else:                   # every level at the cap equal, so the demand binds
        r = [a / (1.0 if k == columns["go"] else 1.0 + rate / u)
             for k, (a, u) in enumerate(zip(columns["raw_alphas"], columns["upload_rates"]))]
        columns = {**columns, "data_sizes": [rate * x for x in r], "disagreements": [0.0] * len(r),
                   "kinds": [0] * len(r), "coeffs": [math.nan] * len(r)}
        scaled = scale("data_sizes")
    found = _edge(scaled)
    _check(scaled(1.0))
    if found is not None:
        inside, beyond = found
        assert _check(scaled(inside))
        _check(scaled(beyond))
        if edge == "demand":    # every budget at the largest demand
            for other in (0.3, 0.9, 0.999, 1.5):
                _check(at(scaled(inside), other))


# ---------------------------------------------------------------------------
# documents near the bounds

#: broadcast rates at which whole megabits reach caps near DBL_MAX, and 11 Mb/s
_EDGE_RATES = (1e-306, 3e-307, 1.25e-307, 1e-307, 2e-308, 11.0)
#: upload rates that make relay overheads near 1e13 at those rates, or finite ones at 11 Mb/s
_EDGE_UPLOADS = (5.5, 11.0, 1e-300, 1e-320)
#: whole megabits, which those rates' queue bound admits up to 17 of, or
#: loads whose caps at 11 Mb/s sum near DBL_MAX / 2
_EDGE_AMOUNTS = st.one_of(st.integers(0, 16), st.sampled_from((1e306, 5e306, 2e307, 1e308)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(doc=support.documents(rates=_EDGE_RATES, uploads=_EDGE_UPLOADS, amounts=_EDGE_AMOUNTS))
def test_documents_near_the_bounds_run_or_name_the_round(doc):
    """A document the scenario checks accept either runs every policy,
    with numpy's float warnings errors, gsa certified with finite residuals
    in every round, or fails in a round with an error that names it: a
    level or demand that overflows, or a schedule that cannot be laid out.
    No bare ``ValueError`` or ``DomainError`` escapes."""
    try:
        scenario = scenario_from_dict(doc)
    except SchemaError:
        return
    try:
        reports = compare_policies(scenario)
    except (ProblemOverflowError, ScheduleError) as e:
        assert str(e).startswith("round "), e
    else:
        support.assert_gsa_certified(reports["gsa"])


def test_an_open_go_whose_rounds_stay_finite_runs():
    """x's cap is 8e307 s at 1.25e-307 Mb/s.  As a client its level would
    overflow, but x is elected GO with every policy, so every round is
    finite, gsa's certificate too, and the document runs.  Pinning a as
    the GO makes x a client, and the run fails in that round."""
    nodes = [{"id": i, "join_s": 0.0, "leave_s": 10.0, "data_mb": mb} for i, mb in (("x", 10.0), ("a", 0.5), ("b", 0.5))]
    doc = {"nodes": nodes, "broadcast_mbps": 1.25e-307, "t_slot_ms": 20.0}
    reports = compare_policies(scenario_from_dict(doc))
    assert [r.rounds[0].go_id for r in reports.values()] == ["x", "x", "x"]
    support.assert_gsa_certified(reports["gsa"])
    with pytest.raises(ProblemOverflowError, match="^round 0 at 0s: player x: the level at the cap overflows$"):
        compare_policies(scenario_from_dict({**doc, "go": "a"}))


def test_level_reads_r_first_at_a_relay_overhead_near_dbl_max():
    """A client one ulp above broadcast_rate / DBL_MAX has a relay overhead
    within a few ulps of DBL_MAX, so (1 + beta) / alpha overflowed in
    :func:`~airfair.bargaining.level`; with a 1e-290 Mb load its level at
    the cap is 3.3e17.  ``level`` divides by alpha / (1 + beta), as the
    level columns and the certificate do, and reads the solver's level."""
    rate = 11.0
    problem = BargainingProblem(airtime=1.0, broadcast_rate=rate, ids=["g", "c"], data_sizes=[10.0, 1e-290],
                                upload_rates=[rate, math.nextafter(rate / _MAX, math.inf)], raw_alphas=[1.0, 1.0],
                                go=0)
    assert _MAX * (1.0 - 1e-15) <= problem.betas[1] < _MAX
    top = level(problem, 1, problem.caps[1])
    assert top == problem._levels[3][1] and 3e17 < top < 4e17
    assert _check({"ids": ["g", "c"], "go": 0, "broadcast_rate": rate, "data_sizes": [10.0, 1e-290],
                   "upload_rates": [rate, math.nextafter(rate / _MAX, math.inf)], "raw_alphas": [1.0, 1.0],
                   "airtime": 1.0})
