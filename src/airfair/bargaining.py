"""Bargained airtime allocation for GO-coordinated content sharing.

A group of wireless nodes sharing one channel during a limited contact
window has to split the airtime budget T.  Getting one second of node i's
content on the air costs (1 + beta_i) channel seconds: beta_i accounts for
the upload leg from a client to the group owner (GO), which relays all
client traffic, and is zero for the GO itself.  Each node draws a concave
utility from its broadcast time and carries a bargaining weight; the target
allocation maximizes the weighted product of utility gains over the
disagreement outcome (the generalized Nash bargaining solution, GNBS)
subject to the airtime budget and per-node caps.

The solver is a water-filling scheme.  Every player has a strictly
increasing "level" curve mapping broadcast time to an equalized marginal
quantity; at an unsaturated optimum all uncapped players sit at one common
level s while capped players transmit everything they queued, so the whole
problem is one equation in s: sum_i (1 + beta_i) min(cap_i, x_i(s)) = T.
The active players' curves are kept as parameter arrays, sorted by the level
each reaches at its cap.  A binary search over those breakpoints finds the
segment where the budget binds; on it the equation is solved in closed form
when every uncapped player is linear in s (normalized-linear, or power
without a disagreement point) and by Newton's method on s otherwise.  Each
x_i(s) is itself a closed form for linear curves, Halley's method on
y e^y = q for log-shifted ones, and a monotone Newton iteration for power
curves with a disagreement point.  Each solution ships with a KKT residual
report so callers can certify optimality numerically.

Two reference baselines (equal slots and load-weighted slots) are
clipped-linear instances of the same equation and share the breakpoint
solve.  A brute-force grid-search oracle and the fairness metrics used to
compare policies live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "ROLE_GO",
    "ROLE_CLIENT",
    "DomainError",
    "InfeasibleProblemError",
    "Utility",
    "Player",
    "BargainingProblem",
    "Allocation",
    "KktReport",
    "level",
    "time_at_level",
    "level_order",
    "tail_airtime",
    "level_for_airtime",
    "gnbs_allocate",
    "eql_allocate",
    "wtd_allocate",
    "oracle_allocate",
    "nash_product",
    "log_nash_welfare",
    "wpf_aggregate",
    "kkt_residuals",
    "dissemination_rate",
    "weighted_airtime",
    "sample_feasible",
]

ROLE_GO = "go"
ROLE_CLIENT = "client"

_UTILITY_KINDS = ("normalized-linear", "log-shifted", "power")

#: relative tolerance and iteration cap of the reference bisection
#: (``time_at_level(..., method="bisect")``)
BISECT_REL_TOL = 1e-9
BISECT_MAX_ITER = 200

_REL_SLACK = 1e-12

#: iteration cap of every root-find in the water-filling core
_ROOT_MAX_ITER = 100
_EPS = float(np.finfo(float).eps)

# how a player's level curve is inverted (see _Curves)
_LINEAR, _LOG, _POWER = 0, 1, 2


class DomainError(ValueError):
    """An argument fell outside an operation's mathematical domain."""


class InfeasibleProblemError(ValueError):
    """No allocation strictly improves every player's disagreement outcome."""


@dataclass(frozen=True)
class Utility:
    """Concave, strictly increasing satisfaction from broadcast time.

    Three built-in families, selected by ``kind``:

    * ``normalized-linear``: value(x) = x / coeff where coeff is the cap on
      broadcast time, so value(cap) = 1 (fraction of own data delivered).
    * ``log-shifted``: value(x) = log(1 + coeff * x) with gain coeff > 0.
    * ``power``: value(x) = x ** coeff with exponent 0 < coeff <= 1.

    ``value`` and ``derivative`` accept scalars or numpy arrays.
    """

    kind: str
    coeff: float

    def __post_init__(self):
        if self.kind not in _UTILITY_KINDS:
            raise ValueError(f"unknown utility kind {self.kind!r}")
        if not (self.coeff > 0):
            raise ValueError("utility coefficient must be positive")
        if self.kind == "power" and self.coeff > 1:
            raise ValueError("power exponent must lie in (0, 1]")

    @classmethod
    def normalized_linear(cls, cap: float) -> "Utility":
        return cls("normalized-linear", float(cap))

    @classmethod
    def log_shifted(cls, gain: float) -> "Utility":
        return cls("log-shifted", float(gain))

    @classmethod
    def power(cls, exponent: float) -> "Utility":
        return cls("power", float(exponent))

    def value(self, x):
        if self.kind == "normalized-linear":
            return x / self.coeff
        if self.kind == "log-shifted":
            return np.log1p(self.coeff * x)
        return np.power(x, self.coeff)

    def derivative(self, x):
        if self.kind == "normalized-linear":
            return np.full_like(np.asarray(x, dtype=float), 1.0 / self.coeff) if np.ndim(x) else 1.0 / self.coeff
        if self.kind == "log-shifted":
            return self.coeff / (1.0 + self.coeff * x)
        return self.coeff * np.power(x, self.coeff - 1.0)


@dataclass(frozen=True)
class Player:
    """One group member's stake in the bargaining problem.

    ``data_size`` is megabits queued for the group, ``upload_rate`` the
    megabits/s this node can push to the GO (ignored for the GO itself),
    ``alpha`` a raw bargaining weight (normalized at problem level), and
    ``disagreement`` the broadcast seconds the node is guaranteed without an
    agreement.  ``utility`` defaults to normalized-linear over the node's
    cap, bound when the problem is built.
    """

    id: str
    data_size: float
    upload_rate: float = math.inf
    alpha: float = 1.0
    disagreement: float = 0.0
    utility: Utility | None = None
    role: str = ROLE_CLIENT

    def __post_init__(self):
        if self.role not in (ROLE_GO, ROLE_CLIENT):
            raise ValueError(f"unknown role {self.role!r}")
        if self.data_size < 0:
            raise ValueError("data_size must be >= 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.disagreement < 0:
            raise ValueError("disagreement must be >= 0")
        if self.role == ROLE_CLIENT and not (self.upload_rate > 0):
            raise ValueError("clients need upload_rate > 0")


@dataclass
class BargainingProblem:
    """Immutable-by-convention container tying players to a shared budget.

    Derived arrays (one entry per player, aligned with ``players``):

    * ``alphas``: bargaining weights normalized to sum to 1,
    * ``betas``: relay overhead, broadcast_rate / upload_rate for clients
      and 0 for the GO,
    * ``caps``: broadcast seconds needed to drain each queue,
    * ``disagreements``: disagreement broadcast times.

    Zero-load players are kept in the arrays but excluded from bargaining
    (``active`` lists the indices that take part).  Construction rejects
    problems where no allocation strictly beats every active player's
    disagreement outcome.
    """

    players: tuple[Player, ...]
    airtime: float
    broadcast_rate: float
    alphas: np.ndarray = field(init=False, repr=False)
    betas: np.ndarray = field(init=False, repr=False)
    caps: np.ndarray = field(init=False, repr=False)
    disagreements: np.ndarray = field(init=False, repr=False)
    utilities: tuple[Utility | None, ...] = field(init=False, repr=False)

    def __post_init__(self):
        self.players = tuple(self.players)
        if not self.players:
            raise ValueError("need at least one player")
        if not (self.airtime > 0):
            raise ValueError("airtime must be > 0")
        if not (self.broadcast_rate > 0):
            raise ValueError("broadcast_rate must be > 0")
        go_count = sum(1 for p in self.players if p.role == ROLE_GO)
        if go_count != 1:
            raise ValueError(f"expected exactly one GO, found {go_count}")
        if len({p.id for p in self.players}) != len(self.players):
            raise ValueError("duplicate player ids")

        raw = np.array([p.alpha for p in self.players], dtype=float)
        self.alphas = raw / raw.sum()
        self.betas = np.array(
            [0.0 if p.role == ROLE_GO else self.broadcast_rate / p.upload_rate for p in self.players],
            dtype=float,
        )
        self.caps = np.array([p.data_size / self.broadcast_rate for p in self.players], dtype=float)
        self.disagreements = np.array([p.disagreement for p in self.players], dtype=float)

        utilities = []
        for i, p in enumerate(self.players):
            if p.utility is not None:
                utilities.append(p.utility)
            elif self.caps[i] > 0:
                utilities.append(Utility.normalized_linear(self.caps[i]))
            else:
                utilities.append(None)
        self.utilities = tuple(utilities)

        self._validate_feasibility()

    def _validate_feasibility(self):
        spent = 0.0
        for i in self.active:
            if not (self.disagreements[i] < self.caps[i]):
                raise InfeasibleProblemError(
                    f"player {self.players[i].id}: disagreement point leaves no room below the cap"
                )
            spent += (1.0 + self.betas[i]) * self.disagreements[i]
        for i in range(len(self.players)):
            if self.caps[i] == 0 and self.disagreements[i] > 0:
                raise InfeasibleProblemError(
                    f"player {self.players[i].id}: positive disagreement with no data"
                )
        if self.active and spent >= self.airtime:
            raise InfeasibleProblemError(
                "disagreement outcomes already consume the whole airtime budget"
            )

    @cached_property
    def active(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.players)) if self.caps[i] > 0)

    @property
    def go_index(self) -> int:
        return next(i for i, p in enumerate(self.players) if p.role == ROLE_GO)

    @cached_property
    def _curves(self) -> "_Curves":
        """The active players' level curves as parameter arrays."""
        return _Curves.bargaining(self)

    @cached_property
    def demand(self) -> float:
        """Channel seconds needed to drain every active queue."""
        return float(sum((1.0 + self.betas[i]) * self.caps[i] for i in self.active))


@dataclass(frozen=True, eq=False)
class Allocation:
    """Per-player broadcast and upload seconds; ``saturated`` marks the case
    where every queue fits in the window and the budget is not binding."""

    broadcast_time: np.ndarray
    upload_time: np.ndarray
    saturated: bool = False


@dataclass(frozen=True, eq=False)
class KktReport:
    """Numerical certificate for a candidate optimizer.

    ``stationarity`` holds per-player deviations of the inverse level from
    the multiplier ``lam`` for uncapped players; ``slackness`` combines dual
    feasibility and complementary slackness for capped players.  ``budget``
    is the budget equation residual and ``max_residual`` the worst of all.
    ``relative_residual`` is the scale-free version: stationarity over
    ``lam`` and the budget residual over the budget it is measured against.

    ``path`` is ``"saturated"`` when every queue fits in the window and
    ``"contended"`` otherwise; ``iterations`` counts the solver's root-find
    steps for the common level (breakpoint probes plus Newton steps, 0 for a
    saturated problem).
    """

    lam: float
    stationarity: np.ndarray
    slackness: np.ndarray
    budget: float
    max_residual: float
    relative_residual: float
    path: str
    iterations: int


# ---------------------------------------------------------------------------
# level curves (the water-filling machinery)


def _bisect_increasing(f: Callable[[float], float], lo: float, hi: float, target: float,
                       rel_tol: float = BISECT_REL_TOL, max_iter: int = BISECT_MAX_ITER) -> float:
    """Solve f(x) = target for increasing f on (lo, hi], assuming a bracket."""
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        val = f(mid)
        if abs(val - target) <= rel_tol * max(1.0, abs(target)):
            return mid
        if val < target:
            lo = mid
        else:
            hi = mid
    return hi


def level(problem: BargainingProblem, i: int, x: float) -> float:
    """Equalized bargaining level of player i at broadcast time x.

    Ratio of i's weighted utility gain over its disagreement point to its
    marginal utility, scaled by the channel cost (1 + beta_i).  Strictly
    increasing in x on (disagreement, cap]; at an unsaturated optimum all
    uncapped players share one level.  Evaluated from the utility's own
    value and derivative, independently of the solver's closed forms.
    """
    u = problem.utilities[i]
    if u is None:
        raise DomainError(f"player index {i} has no data and does not bargain")
    d = problem.disagreements[i]
    cap = problem.caps[i]
    if not (d < x <= cap * (1.0 + _REL_SLACK)):
        raise DomainError(f"x={x} outside ({d}, {cap}] for player index {i}")
    x = min(float(x), float(cap))
    gain = u.value(x) - u.value(d)
    return float((1.0 + problem.betas[i]) / problem.alphas[i] * gain / u.derivative(x))


@dataclass(frozen=True, eq=False)
class _Curves:
    """Level curves of the bargaining players as parameter arrays, sorted by
    the level each reaches at its cap (``top``, ascending; ties by index).

    At common level s a player transmits min(cap, time(s)), where time(s)
    inverts its level curve in one of three ways (``kind``):

    * ``_LINEAR`` (normalized-linear, power with d = 0, and the baselines'
      clipped-linear shares): time(s) = d + r s;
    * ``_LOG`` (log-shifted, gain g): time(s) = d + expm1(y) / k with
      k = g / (1 + g d) and y e^y = r k s;
    * ``_POWER`` (exponent p, d > 0): time(s) = d (1 + t) with
      t - expm1((1 - p) log1p(t)) = r s / d.

    ``r`` is the slope of time(s) at s = 0: alpha / (1 + beta), times p for
    power players.  ``coeff`` holds k for log-shifted players and p for
    power players.
    """

    index: np.ndarray
    weight: np.ndarray
    d: np.ndarray
    cap: np.ndarray
    r: np.ndarray
    kind: np.ndarray
    coeff: np.ndarray
    top: np.ndarray

    @classmethod
    def sorted_by_top(cls, index, weight, d, cap, r, kind, coeff, top) -> "_Curves":
        order = np.argsort(top, kind="stable")
        return cls(*(a[order] for a in (index, weight, d, cap, r, kind, coeff, top)))

    @classmethod
    def clipped_linear(cls, problem: BargainingProblem, slope: np.ndarray) -> "_Curves":
        """Curves x_i(s) = slope_i s of the active players (the baselines)."""
        idx = np.flatnonzero(problem.caps > 0)
        cap, r = problem.caps[idx], slope[idx]
        zero = np.zeros(len(idx))
        return cls.sorted_by_top(idx, 1.0 + problem.betas[idx], zero, cap, r,
                                 zero.astype(np.int8), zero, cap / r)

    @classmethod
    def bargaining(cls, problem: BargainingProblem) -> "_Curves":
        """Level curves of the active players of a bargaining problem."""
        idx = np.flatnonzero(problem.caps > 0)
        weight = 1.0 + problem.betas[idx]
        d, cap = problem.disagreements[idx], problem.caps[idx]
        r = problem.alphas[idx] / weight
        kind = np.zeros(len(idx), dtype=np.int8)
        coeff = np.zeros(len(idx))
        for j, i in enumerate(idx):
            u = problem.utilities[i]
            if u.kind == "log-shifted":
                kind[j], coeff[j] = _LOG, u.coeff / (1.0 + u.coeff * d[j])
            elif u.kind == "power":
                kind[j], coeff[j] = (_POWER if d[j] > 0 else _LINEAR), u.coeff
                r[j] *= u.coeff
        top = (cap - d) / r
        m = kind == _LOG
        k, room = coeff[m], cap[m] - d[m]
        top[m] = np.log1p(k * room) * (1.0 + k * room) / (r[m] * k)
        m = kind == _POWER
        t = (cap[m] - d[m]) / d[m]
        top[m] = d[m] * (t - np.expm1((1.0 - coeff[m]) * np.log1p(t))) / r[m]
        return cls.sorted_by_top(idx, weight, d, cap, r, kind, coeff, top)

    def times(self, s: float, sel: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Unclipped broadcast times time(s) of the selected players at
        common level ``s``, and their derivatives in ``s``."""
        d, r = self.d[sel], self.r[sel]
        x = d + r * s
        dx = r.copy()
        kind = self.kind[sel]
        if kind.any():
            coeff = self.coeff[sel]
            m = kind == _LOG
            if m.any():
                k = coeff[m]
                y = _lambert_w(r[m] * k * s)
                x[m] = d[m] + np.expm1(y) / k
                dx[m] = r[m] / (1.0 + y)
            m = kind == _POWER
            if m.any():
                t, slope = _power_gain(r[m] * s / d[m], coeff[m])
                x[m] = d[m] + d[m] * t
                dx[m] = r[m] / slope
        return x, dx

    def level_for_airtime(self, start: int, lo: float, hi: float, target: float) -> tuple[float, int]:
        """Common level in [lo, hi] at which the players from sorted position
        ``start`` on, all uncapped below ``hi``, consume ``target`` channel
        seconds; also the number of Newton steps taken.

        Closed form when those players are all linear.  Otherwise Newton's
        method from ``lo``: the consumed airtime is concave in the level, so
        the iterates climb monotonically to the root, and the climb stops
        once a step no longer gains more than rounding noise.
        """
        w = self.weight[start:]
        if not self.kind[start:].any():
            s = (target - w @ self.d[start:]) / (w @ self.r[start:])
            return min(max(s, lo), hi), 0
        s = lo
        for it in range(1, _ROOT_MAX_ITER + 1):
            x, dx = self.times(s, slice(start, None))
            step = (target - w @ x) / (w @ dx)
            if step <= 4.0 * _EPS * s:
                return min(max(s + step, lo), hi), it
            s = min(s + step, hi)
        return s, _ROOT_MAX_ITER

    def water_fill(self, budget: float) -> tuple[float, np.ndarray, int]:
        """Common level s and broadcast times (in sorted order) that spend
        ``budget`` < demand: sum_i (1 + beta_i) min(cap_i, time_i(s)) = budget.

        Binary search over the sorted cap levels finds the segment where the
        budget binds (players below it sit at their caps), then
        :meth:`level_for_airtime` solves that segment.  Also returns the
        root-find iteration count: breakpoint probes plus Newton steps.
        """
        w, cap, top = self.weight, self.cap, self.top
        spent = np.cumsum(w * cap)
        lo, hi = 0, len(top) - 1
        probes = 0
        while lo < hi:
            mid = (lo + hi) // 2
            x, _ = self.times(top[mid], slice(mid + 1, None))
            probes += 1
            if spent[mid] + w[mid + 1:] @ x >= budget:
                hi = mid
            else:
                lo = mid + 1
        base = spent[lo - 1] if lo else 0.0
        s, steps = self.level_for_airtime(lo, top[lo - 1] if lo else 0.0, top[lo], budget - base)
        x = cap.copy()
        x[lo:] = np.minimum(cap[lo:], self.times(s, slice(lo, None))[0])
        return float(s), x, probes + steps


def _lambert_w(q: np.ndarray) -> np.ndarray:
    """Principal branch of y e^y = q for q >= 0, by Halley's method from
    Winitzki's approximation (within 2% everywhere, so a few steps suffice)."""
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


def _power_gain(rho: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve t - expm1((1 - p) log1p(t)) = rho for t >= 0; also returns the
    left side's derivative at the root.

    The left side is increasing and convex, and t = rho / p lies at or above
    the root (weighted AM-GM), so Newton's method descends monotonically.
    """
    t = rho / p
    for _ in range(_ROOT_MAX_ITER):
        lt = np.log1p(t)
        slope = 1.0 - (1.0 - p) * np.exp(-p * lt)
        step = (t - np.expm1((1.0 - p) * lt) - rho) / slope
        t = t - step
        if np.all(step <= 4.0 * _EPS * t):  # the descent has stalled at rounding noise
            break
    return t, 1.0 - (1.0 - p) * np.exp(-p * np.log1p(t))


def time_at_level(problem: BargainingProblem, i: int, lvl: float, method: str = "auto") -> float:
    """Invert :func:`level`: broadcast time at which player i reaches ``lvl``.

    Uses the water-filling core's inversion (closed form for linear curves,
    Halley's method for log-shifted ones, Newton's method for power ones
    with a disagreement point) unless ``method="bisect"`` forces a generic
    bisection on :func:`level` (handy for cross checks).
    """
    curves = problem._curves
    found = np.flatnonzero(curves.index == i)
    if not len(found):
        raise DomainError(f"player index {i} has no data and does not bargain")
    pos = int(found[0])
    top = curves.top[pos]
    if not (0.0 < lvl <= top * (1.0 + _REL_SLACK)):
        raise DomainError(f"level {lvl} outside (0, {top}] for player index {i}")
    cap = problem.caps[i]
    if method == "bisect":
        x = _bisect_increasing(lambda t: level(problem, i, t), problem.disagreements[i], cap, lvl)
    else:
        x = curves.times(lvl, slice(pos, pos + 1))[0][0]
    return float(min(x, cap))


def level_order(problem: BargainingProblem) -> tuple[int, ...]:
    """Active player indices sorted by the level reached at their cap
    (ascending); ties fall back to the original index."""
    return tuple(int(i) for i in problem._curves.index)


def _tail_top(problem: BargainingProblem, start: int) -> float:
    curves = problem._curves
    if not (0 <= start < len(curves.index)):
        raise DomainError(f"start={start} outside the sorted order")
    return float(curves.top[start])


def tail_airtime(problem: BargainingProblem, start: int, lvl: float) -> float:
    """Channel seconds consumed when every player from sorted position
    ``start`` onward is brought to the common ``lvl``.

    ``start`` indexes into :func:`level_order`.  ``lvl`` must not exceed the
    cap level of the player at ``start`` (the smallest in the tail).
    """
    top = _tail_top(problem, start)
    if not (0.0 < lvl <= top * (1.0 + _REL_SLACK)):
        raise DomainError(f"level {lvl} beyond the tail's smallest cap level {top}")
    curves = problem._curves
    x, _ = curves.times(min(lvl, top), slice(start, None))
    return float(curves.weight[start:] @ np.minimum(x, curves.cap[start:]))


def level_for_airtime(problem: BargainingProblem, start: int, v: float) -> float:
    """Invert :func:`tail_airtime` in its level argument."""
    top = _tail_top(problem, start)
    vmax = tail_airtime(problem, start, top)
    if not (0.0 < v <= vmax * (1.0 + _REL_SLACK)):
        raise DomainError(f"airtime {v} outside (0, {vmax}] for tail at {start}")
    if v >= vmax:
        return top
    return float(problem._curves.level_for_airtime(start, 0.0, top, v)[0])


# ---------------------------------------------------------------------------
# allocators


def weighted_airtime(problem: BargainingProblem, broadcast_time: np.ndarray) -> float:
    """Channel seconds consumed by an allocation: sum of (1+beta_i) x_i."""
    return float(np.sum((1.0 + problem.betas) * np.asarray(broadcast_time, dtype=float)))


def _saturated_allocation(problem: BargainingProblem) -> tuple[Allocation, float]:
    x = problem.caps.copy()  # zero for every player that sits out
    top = problem._curves.top
    lam = 1.0 / top[-1] if len(top) else 0.0
    return Allocation(x, problem.betas * x, saturated=True), lam


def _water_fill_allocation(problem: BargainingProblem, curves: _Curves) -> tuple[Allocation, float, int]:
    s, xs, iterations = curves.water_fill(problem.airtime)
    x = np.zeros(len(problem.players))
    x[curves.index] = xs
    return Allocation(x, problem.betas * x, saturated=False), s, iterations


def gnbs_allocate(problem: BargainingProblem) -> tuple[Allocation, KktReport]:
    """Generalized Nash bargaining allocation of the airtime budget.

    If every queue fits in the window the allocation saturates at the caps.
    Otherwise every player sits at min(cap, time(s)) for one common level s
    solving the budget equation (see :class:`_Curves`): a binary search over
    the sorted cap levels finds the segment where the budget binds, which
    is solved in closed form when its uncapped players are all linear
    (normalized-linear, or power without a disagreement point) and by
    Newton's method on s otherwise, with log-shifted players inverted by
    Halley's method and power players with a disagreement point by Newton's
    method.  The returned report certifies the KKT system of the
    log-product program.
    """
    if problem.demand <= problem.airtime * (1.0 + _REL_SLACK):
        alloc, lam = _saturated_allocation(problem)
        return alloc, kkt_residuals(problem, alloc, lam)

    alloc, s, iterations = _water_fill_allocation(problem, problem._curves)
    return alloc, kkt_residuals(problem, alloc, 1.0 / s, iterations)


def _clipped_linear_allocate(problem: BargainingProblem, slope: np.ndarray) -> Allocation:
    if problem.demand <= problem.airtime * (1.0 + _REL_SLACK):
        x = problem.caps.copy()
        return Allocation(x, problem.betas * x, saturated=True)
    return _water_fill_allocation(problem, _Curves.clipped_linear(problem, slope))[0]


def eql_allocate(problem: BargainingProblem) -> Allocation:
    """Equal-slot baseline: one common broadcast time s for everyone,
    x_i = min(cap_i, s), so the airtime capped players leave is shared
    equally by the rest.  Solved exactly over the sorted caps."""
    return _clipped_linear_allocate(problem, np.ones(len(problem.players)))


def wtd_allocate(problem: BargainingProblem) -> Allocation:
    """Load-weighted baseline: broadcast time proportional to queued data,
    x_i = min(cap_i, c * data_i), with the constant c solving the budget
    equation exactly over the sorted caps."""
    loads = np.array([p.data_size for p in problem.players], dtype=float)
    return _clipped_linear_allocate(problem, loads)


def oracle_allocate(problem: BargainingProblem, resolution: int = 200,
                    refine_decades: int = 2) -> Allocation:
    """Brute-force reference maximizer of the bargaining objective.

    Exhaustive search on a grid over all but one active player's broadcast
    time (the remaining one is pinned by the budget equation), followed by
    ``refine_decades`` rounds of local grid refinement, each shrinking the
    step tenfold.  Every active player takes a turn as the pinned coordinate
    and the best run wins: pinning a player whose optimum sits exactly on its
    cap makes the feasible band around that boundary invisible to the grid,
    but a contended optimum always leaves at least one player strictly
    interior, so one of the runs has clean geometry.  Entirely independent of
    the water-filling solver; meant for cross-checking with at most 4 active
    players.
    """
    n = len(problem.players)
    x = np.zeros(n)
    act = list(problem.active)
    if not act:
        return Allocation(x, np.zeros(n), saturated=True)
    if problem.demand <= problem.airtime * (1.0 + _REL_SLACK):
        alloc, _ = _saturated_allocation(problem)
        return alloc

    T = problem.airtime

    def run(last: int) -> tuple[float, list[int], np.ndarray, float]:
        free = [j for j in act if j != last]
        ub = {j: min(problem.caps[j], T / (1.0 + problem.betas[j])) for j in free}
        ub_last = min(problem.caps[last], T / (1.0 + problem.betas[last]))

        def evaluate(cols: list[np.ndarray]) -> tuple[float, np.ndarray, float]:
            """Welfare over stacked candidate columns; returns (best value,
            best free point, best pinned coordinate)."""
            x_last = T
            for j, col in zip(free, cols):
                x_last = x_last - (1.0 + problem.betas[j]) * col
            x_last = x_last / (1.0 + problem.betas[last])
            ok = (x_last >= -1e-9) & (x_last <= ub_last * (1.0 + 1e-9) + 1e-15)
            x_last = np.clip(x_last, 0.0, ub_last)
            welfare = np.zeros_like(x_last)
            with np.errstate(divide="ignore", invalid="ignore"):
                for j, col in zip(free + [last], cols + [x_last]):
                    u = problem.utilities[j]
                    gain = u.value(col) - u.value(problem.disagreements[j])
                    term = np.where(gain > 0, np.log(np.maximum(gain, 1e-300)), -np.inf)
                    welfare = welfare + problem.alphas[j] * term
            welfare = np.where(ok, welfare, -np.inf)
            k = int(np.argmax(welfare))
            point = np.array([col[k] for col in cols])
            return float(welfare[k]), point, float(x_last[k])

        def search(axes: list[np.ndarray]) -> tuple[float, np.ndarray, float]:
            if not axes:
                xl = min(ub_last, T / (1.0 + problem.betas[last]))
                return 0.0, np.array([]), xl
            if len(axes) <= 2:
                mesh = np.meshgrid(*axes, indexing="ij")
                return evaluate([m.ravel() for m in mesh])
            best = (-np.inf, None, 0.0)
            inner = np.meshgrid(*axes[1:], indexing="ij")
            inner = [m.ravel() for m in inner]
            for a0 in axes[0]:
                cand = evaluate([np.full_like(inner[0], a0)] + inner)
                if cand[0] > best[0]:
                    best = cand
            return best

        h = T / resolution
        axes = [
            np.unique(np.concatenate([np.arange(0.0, ub[j] + 0.5 * h, h), [ub[j]]]))
            for j in free
        ]
        welfare, point, x_last = search(axes)

        step = h
        for _ in range(refine_decades):
            step /= 10.0
            offsets = np.arange(-15, 16) * step
            axes = [
                np.unique(np.clip(point[k] + offsets, 0.0, ub[j]))
                for k, j in enumerate(free)
            ]
            welfare, point, x_last = search(axes)
        return welfare, last, free, point, x_last

    _, last, free, point, x_last = max((run(j) for j in act), key=lambda r: r[0])
    for k, j in enumerate(free):
        x[j] = point[k]
    x[last] = x_last
    return Allocation(x, problem.betas * x, saturated=False)


# ---------------------------------------------------------------------------
# metrics


def nash_product(problem: BargainingProblem, allocation: Allocation) -> float:
    """Weighted product of utility gains; 0 when any active gain is <= 0."""
    prod = 1.0
    x = allocation.broadcast_time
    for i in problem.active:
        u = problem.utilities[i]
        gain = float(u.value(x[i]) - u.value(problem.disagreements[i]))
        if gain <= 0:
            return 0.0
        prod *= gain ** problem.alphas[i]
    return float(prod)


def log_nash_welfare(problem: BargainingProblem, allocation: Allocation) -> float:
    """Log of :func:`nash_product`; -inf at or below the disagreement point."""
    total = 0.0
    x = allocation.broadcast_time
    for i in problem.active:
        u = problem.utilities[i]
        gain = float(u.value(x[i]) - u.value(problem.disagreements[i]))
        if gain <= 0:
            return -math.inf
        total += problem.alphas[i] * math.log(gain)
    return float(total)


def wpf_aggregate(problem: BargainingProblem, gnbs_alloc: Allocation,
                  other_alloc: Allocation) -> float:
    """Weighted proportional-fairness aggregate of ``other_alloc`` relative
    to the bargaining optimum: sum of alpha_i (u_other - u_gnbs) / u_gnbs.

    Non-positive for every feasible alternative, a direct consequence of
    first-order optimality of the bargaining point.  Requires zero
    disagreement points so utilities equal gains.
    """
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


def kkt_residuals(problem: BargainingProblem, allocation: Allocation, lam: float,
                  iterations: int = 0) -> KktReport:
    """Residuals of the reduced KKT system at a candidate allocation.

    Uncapped players contribute |1/level - lam| (stationarity); capped ones
    contribute max(0, lam - 1/level) (dual feasibility) together with the
    complementary-slackness product.  The budget residual is measured against
    the total demand when the allocation is saturated, the airtime budget
    otherwise.  Levels come from :func:`level`, evaluated player by player
    from the utilities, so the certificate does not share the solver's
    arithmetic.  ``iterations`` is passed through to the report.
    """
    n = len(problem.players)
    stationarity = np.zeros(n)
    slackness = np.zeros(n)
    x = allocation.broadcast_time
    for i in problem.active:
        cap = problem.caps[i]
        if x[i] <= problem.disagreements[i]:
            stationarity[i] = math.inf
            continue
        inv_level = 1.0 / level(problem, i, min(x[i], cap))
        at_cap = cap - x[i] <= 1e-9 * max(1.0, cap)
        if at_cap:
            dual = max(0.0, lam - inv_level)
            comp = abs((inv_level - lam) * (x[i] - cap))
            slackness[i] = max(dual, comp)
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


def dissemination_rate(problem: BargainingProblem, allocation: Allocation, k: int) -> float:
    """Average megabits/s of player k's content reaching the group over the
    window: broadcast_rate * x_k / airtime."""
    return float(problem.broadcast_rate * allocation.broadcast_time[k] / problem.airtime)


def sample_feasible(problem: BargainingProblem, count: int, rng: np.random.Generator) -> np.ndarray:
    """Random feasible allocations (rows) of an unsaturated problem: budget
    met exactly, caps respected.  Used by the fairness property tests."""
    act = list(problem.active)
    if problem.demand <= problem.airtime:
        raise ValueError("sampling needs an unsaturated problem")
    out = np.zeros((count, len(problem.players)))
    betas = problem.betas
    caps = problem.caps
    for r in range(count):
        weights = rng.dirichlet(np.ones(len(act)))
        x = np.zeros(len(problem.players))
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
