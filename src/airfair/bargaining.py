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
each reaches at its cap.  When every curve is linear in s (normalized-linear,
or power without a disagreement point), a binary search over those
breakpoints finds the segment where the budget binds, and the equation is
solved on it in closed form.  Otherwise the same search and closed form run
on each curve's tangent line at s = 0; every curve is concave, so that level
lies at or below the root, and Newton's method on the clipped spend climbs
from it to the root.  The climb converges quadratically, so once a step is
at most sqrt(eps) of the level, it takes that step along the tangent instead
of evaluating the curves again.  Each x_i(s) is itself a closed form for
linear curves, the Lambert W of a scaled level for log-shifted ones
(Winitzki's approximation and two fixed Fritsch-Shafer-Crowley steps, which
never overflow), and a monotone Newton iteration for power curves with a
disagreement point.  Each solution ships with a KKT residual report so
callers can certify optimality numerically.

Two reference baselines (equal slots and load-weighted slots) are
clipped-linear instances of the same equation and share the breakpoint
search and closed form, as do the random feasible points
:func:`sample_feasible` draws for the property tests.
:func:`time_at_level`, :func:`level_order`, :func:`tail_airtime` and
:func:`level_for_airtime` read the same curves.  A brute-force grid-search
oracle, kept independent of the core so that it can check it, and the
fairness metrics used to compare policies live here as well.

A problem is stored as columns: ids, data sizes, upload rates, raw weights,
the GO's index, disagreement points, and a utility kind code and
coefficient per player.  They are validated and derived once, whether they
come from :class:`Player` objects or straight from the simulator's member
arrays; ``players`` and ``utilities`` are views built only when read.  A
load is rejected unless its cap, load over the broadcast rate, is finite.
What the channel decides, the airtime budget, the upload rates and the
relay overheads they give, is checked and derived by one step, which the
constructor and ``with_channel`` (the same players under another channel,
as each round's ideal problem is) both run on their raw values.  The
positions of the log-shifted and power players among the bargaining ones
are found once, too.  Every problem builds its level curves and its demand
at once, and is rejected when a player's level at its cap, read off its
curve, is not finite, as it is when the weights do not sum to a finite
value, or when the demand is not below DBL_MAX / 2, so that no sum of
channel seconds a solve adds overflows.  The level curves, the KKT
certificate and the metrics are
vector expressions over the bargaining players' columns, each kind's
formula indexed by those positions.  The certificate evaluates each
utility's value and derivative that way, never through the solver's
inversions, so it does not certify itself.  The Nash product remains a
left-to-right fold of scalar ``math.pow``: numpy's array power kernel rounds
some inputs differently from libm on some CPUs (AVX-512), which would move
reported numbers.  Sums that reach reported numbers, and every sum of
channel seconds (the demand and an allocation's spend, so a saturated one
spends the demand to the bit), add left to right too (:func:`left_sum`),
since ``sum()`` over floats is compensated from Python 3.12 on and
``np.sum`` adds pairwise.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple, Sequence

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
    "wpf_aggregate",
    "kkt_residuals",
    "dissemination_rate",
    "weighted_airtime",
    "sample_feasible",
]

ROLE_GO = "go"
ROLE_CLIENT = "client"

_UTILITY_KINDS = ("normalized-linear", "log-shifted", "power")
# utility kind codes: positions in _UTILITY_KINDS
_U_LINEAR, _U_LOG, _U_POWER = 0, 1, 2

_REL_SLACK = 1e-12

#: iteration cap of every root-find in the water-filling core
_ROOT_MAX_ITER = 100
_EPS = float(np.finfo(float).eps)
_SQRT_EPS = math.sqrt(_EPS)


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

    ``value`` and ``derivative`` accept scalars or numpy arrays.  The
    coefficient is held as given: :class:`BargainingProblem` checks it.
    """

    kind: str
    coeff: float

    def __post_init__(self):
        if self.kind not in _UTILITY_KINDS:
            raise ValueError(f"unknown utility kind {self.kind!r}")

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
    cap, bound when the problem is built.  The values are held as given:
    :class:`BargainingProblem` checks them.
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


class _Active(NamedTuple):
    """Columns of the players that bargain (positive cap), in problem order."""

    index: np.ndarray    # positions in the problem
    alpha: np.ndarray    # normalized bargaining weights
    weight: np.ndarray   # channel seconds per broadcast second, 1 + beta
    cap: np.ndarray
    d: np.ndarray        # disagreement broadcast times
    coeff: np.ndarray    # utility coefficients
    log: np.ndarray      # positions (in these columns) of the log-shifted players
    power: np.ndarray    # positions of the power players
    linear: bool         # every one of them is normalized-linear: no positions above


# the positions of a kind no player has
_NOBODY = np.empty(0, dtype=np.intp)
_NOBODY.setflags(write=False)


def left_sum(values) -> float:
    """``0.0 + values[0] + values[1] + ...``, added one at a time.

    The same float on every interpreter: ``sum()`` over floats is
    compensated from Python 3.12 on, and ``np.sum`` adds pairwise.
    """
    total = 0.0
    for v in values.tolist() if isinstance(values, np.ndarray) else values:
        total += v
    return total


def _first(mask: np.ndarray) -> int | None:
    """Index of the first true entry of ``mask``, or None."""
    hits = mask.nonzero()[0]
    return int(hits[0]) if len(hits) else None


@dataclass(init=False, eq=False)
class BargainingProblem:
    """Players sharing one airtime budget, stored as columns.

    Pass either ``players`` (a sequence of :class:`Player`) or the columns
    themselves: ``ids``, ``data_sizes``, ``upload_rates``, ``raw_alphas``,
    ``go`` (the GO's index, or a sequence of indices that must hold exactly
    one) and, optionally, ``disagreements`` (default
    zero) and per-player utility ``kinds`` (codes into ``Utility`` kinds:
    0 normalized-linear, 1 log-shifted, 2 power) with their ``coeffs``.  A
    NaN coefficient (the default) means normalized-linear over the player's
    own cap, as a :class:`Player` without a utility gets.  Players are
    converted into the columns, so both forms share one derivation and one
    validation: the problem alone checks the values a :class:`Player` or
    :class:`Utility` holds, with the same messages for either form.

    Derived arrays (one entry per player, in input order):

    * ``alphas``: bargaining weights normalized to sum to 1,
    * ``betas``: relay overhead, broadcast_rate / upload_rate for clients
      and 0 for the GO, whatever its upload rate,
    * ``caps``: broadcast seconds needed to drain each queue,
    * ``disagreements``: disagreement broadcast times.

    ``demand`` is the channel seconds that drain every active queue, and
    ``saturated`` says whether it fits the airtime budget, up to a relative
    1e-12; that one test decides saturation for the solver, the baselines,
    the oracle and :func:`sample_feasible`.  Zero-load players are kept in
    the arrays but excluded from bargaining (``active`` lists the indices
    that take part).  Construction rejects problems where no allocation
    strictly beats every active player's disagreement outcome.  ``players``
    and ``utilities`` are views built on first use.  The column arrays are
    read-only, since the level curves are derived from them once.  A load
    must be at least 0 with a finite cap, below broadcast_rate * DBL_MAX.
    :meth:`with_channel` gives the same players under another airtime budget
    and other upload rates, sharing every column that neither decides; it
    and the constructor check and derive those two by one step,
    :meth:`_set_channel`, so both raise the same errors for them.
    """

    ids: tuple[str, ...]
    airtime: float
    broadcast_rate: float
    data_sizes: np.ndarray
    upload_rates: np.ndarray
    raw_alphas: np.ndarray
    go: int
    disagreements: np.ndarray
    kinds: np.ndarray
    coeffs: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray
    caps: np.ndarray

    def __init__(self, players: Sequence[Player] | None = None, airtime: float = math.nan,
                 broadcast_rate: float = math.nan, *, ids: Sequence[str] | None = None,
                 data_sizes=None, upload_rates=None, raw_alphas=None, go: int | Sequence[int] | None = None,
                 disagreements=None, kinds=None, coeffs=None):
        if players is not None:
            if ids is not None:
                raise TypeError("pass players or columns, not both")
            players = tuple(players)
            self.players = players
            if players:
                ids, data_sizes, upload_rates, raw_alphas, disagreements, utilities = zip(*(
                    (p.id, p.data_size, p.upload_rate, p.alpha, p.disagreement, p.utility) for p in players))
                go = [k for k, p in enumerate(players) if p.role == ROLE_GO]
                if any(u is not None for u in utilities):
                    kinds = [0 if u is None else _UTILITY_KINDS.index(u.kind) for u in utilities]
                    coeffs = [math.nan if u is None else u.coeff for u in utilities]
                    # a NaN column entry stands for no utility, so a given one must not be NaN
                    if any(u is not None and math.isnan(u.coeff) for u in utilities):
                        raise ValueError("utility coefficient must be positive")
        self.ids = tuple(ids) if ids is not None else ()
        self.broadcast_rate = broadcast_rate
        n = len(self.ids)
        if not n:
            raise ValueError("need at least one player")
        if not (0 < broadcast_rate < math.inf):     # an infinite rate has no finite relay overhead
            raise ValueError("broadcast_rate must be > 0 and finite")

        self.data_sizes = data = np.array(data_sizes, dtype=float)
        self.raw_alphas = raw = np.array(raw_alphas, dtype=float)
        # NaN fails these checks too; the bound, a Python float that overflows
        # to inf without a warning, keeps each cap data / broadcast_rate finite
        if np.count_nonzero(~((data >= 0) & (data < float(broadcast_rate) * sys.float_info.max))):
            raise ValueError("data_size must be >= 0, with a finite cap data_size / broadcast_rate")
        if np.count_nonzero(~(raw > 0)):
            raise ValueError("alpha must be > 0")
        if disagreements is None:
            self.disagreements = d = np.zeros(n)
        else:
            self.disagreements = d = np.array(disagreements, dtype=float)
            if np.count_nonzero(~(d >= 0)):
                raise ValueError("disagreement must be >= 0")
        gos = [] if go is None else [go] if isinstance(go, (int, np.integer)) else list(go)
        if len(gos) != 1:
            raise ValueError(f"expected exactly one GO, found {len(gos)}")
        self.go = g = operator.index(gos[0])
        if not 0 <= g < n:
            raise ValueError(f"GO index {g} outside 0..{n - 1}")
        if len(set(self.ids)) != n:
            raise ValueError("duplicate player ids")

        with np.errstate(over="ignore"):        # an overflowing sum is rejected below
            total = raw.sum()
        if not math.isfinite(total):
            raise ValueError("alpha weights must sum to a finite value")
        self.alphas = raw / total
        self.caps = caps = data / broadcast_rate
        self.coeffs = np.empty(n)
        if kinds is None and coeffs is None:
            self.kinds = np.zeros(n, dtype=np.int8)
            self.coeffs.fill(math.nan)
            coeff = caps
        else:
            self.kinds = np.zeros(n, dtype=np.int8) if kinds is None else np.array(kinds, dtype=np.int8)
            self.coeffs[:] = math.nan if coeffs is None else coeffs
            _check_utility_columns(self.kinds, self.coeffs)
            coeff = np.where(np.isnan(self.coeffs), caps, self.coeffs)
        idx = (caps > 0).nonzero()[0]
        log = power = _NOBODY
        if kinds is not None and np.count_nonzero(self.kinds):
            kind = self.kinds[idx]
            log, power = (kind == _U_LOG).nonzero()[0], (kind == _U_POWER).nonzero()[0]
        linear = not (len(log) or len(power))
        if len(idx) == n:       # no copies when every player bargains
            active = _Active(idx, self.alphas, None, caps, d, coeff, log, power, linear)
        else:
            active = _Active(idx, self.alphas[idx], None, caps[idx], d[idx], coeff[idx], log, power, linear)
        self._set_channel(airtime, upload_rates, active)
        # utility values at the disagreement points (None when every d is
        # zero: every utility is zero there, so a gain is the value itself)
        self._base_values = _utility_values(active, active.d) if np.count_nonzero(d) else None
        for column in (data, raw, d, self.kinds, self.coeffs, self.alphas, caps):
            column.setflags(write=False)

    def _set_channel(self, airtime: float, upload_rates, active: _Active) -> None:
        """The one step that checks and derives what the channel decides: the
        airtime budget, the upload rates, the relay overheads they give and
        the bargaining players' ``active`` columns with their channel seconds
        per broadcast second, 1 + beta.  Then it checks what these decide:
        the disagreement outcomes against the budget, the levels at the cap
        and the demand (:meth:`_check_levels`).  The constructor and
        :meth:`with_channel` both hand it their raw airtime and upload
        rates."""
        if not (airtime > 0):
            raise ValueError("airtime must be > 0")
        self.airtime = airtime
        self.upload_rates = upload = np.array(upload_rates, dtype=float)
        self.betas = betas = _relay_overheads(self.broadcast_rate, upload, self.go, len(self.ids))
        weight = 1.0 + betas if len(active.index) == len(self.ids) else 1.0 + betas[active.index]
        self._active = active._replace(weight=weight)
        if np.count_nonzero(self.disagreements):
            self._validate_feasibility()
        self._check_levels()
        upload.setflags(write=False)
        betas.setflags(write=False)

    def with_channel(self, airtime: float, upload_rates) -> "BargainingProblem":
        """The problem the constructor builds from these columns with
        ``airtime`` and ``upload_rates`` in place of this one's: the same
        players, loads, weights and utilities, sharing every column that the
        channel does not decide.  Only the two new values are checked, with
        the constructor's messages, by the constructor's own channel step."""
        other = object.__new__(BargainingProblem)
        for name in ("ids", "broadcast_rate", "data_sizes", "raw_alphas", "go", "disagreements",
                     "kinds", "coeffs", "alphas", "caps", "_base_values"):
            setattr(other, name, getattr(self, name))
        other._set_channel(airtime, upload_rates, self._active)
        return other

    def _validate_feasibility(self):
        act = self._active
        k = _first(~(act.d < act.cap))
        if k is not None:
            raise InfeasibleProblemError(
                f"player {self.ids[act.index[k]]}: disagreement point leaves no room below the cap"
            )
        k = _first((self.caps == 0) & (self.disagreements > 0))
        if k is not None:
            raise InfeasibleProblemError(f"player {self.ids[k]}: positive disagreement with no data")
        if len(act.index) and left_sum(act.weight * act.d) >= self.airtime:
            raise InfeasibleProblemError(
                "disagreement outcomes already consume the whole airtime budget"
            )

    def _check_levels(self):
        """Reject a player whose level at the cap overflows, its curve's top
        reading inf or NaN, and a demand that is not below DBL_MAX / 2, so
        that no sum of channel seconds overflows.  The curves and the
        demand, which every solve reads, are computed here with numpy's
        float warnings off, since the overflow they would warn of is what
        this check reports.  The tops are sorted, NaN last, so the last one
        decides."""
        with np.errstate(all="ignore"):
            curves, demand = self._curves, self.demand
        if len(curves.top) and not math.isfinite(curves.top[-1]):
            i = int(curves.index[~np.isfinite(curves.top)].min())
            if self.kinds[i] == _U_LOG:
                raise ValueError(f"player {self.ids[i]}: log-shifted gain {self.coeffs[i]:g} "
                                 "overflows the level arithmetic at the cap")
            raise ValueError(f"player {self.ids[i]}: the level at the cap overflows")
        if not (demand < sys.float_info.max / 2):
            raise ValueError("the demand, the channel seconds that drain every queue, must be below DBL_MAX / 2")

    @cached_property
    def players(self) -> tuple[Player, ...]:
        """The columns as :class:`Player` objects."""
        explicit = [None if math.isnan(c) else Utility(_UTILITY_KINDS[k], c)
                    for k, c in zip(self.kinds.tolist(), self.coeffs.tolist())]
        return tuple(
            Player(i, size, rate, alpha=alpha, disagreement=d, utility=u,
                   role=ROLE_GO if k == self.go else ROLE_CLIENT)
            for k, (i, size, rate, alpha, d, u) in enumerate(zip(
                self.ids, self.data_sizes.tolist(), self.upload_rates.tolist(), self.raw_alphas.tolist(),
                self.disagreements.tolist(), explicit))
        )

    @cached_property
    def utilities(self) -> tuple[Utility | None, ...]:
        """Each player's utility; normalized-linear over its cap unless one
        was given, and None for a zero-load player without one."""
        return tuple(
            Utility(_UTILITY_KINDS[k], c) if not math.isnan(c)
            else Utility.normalized_linear(cap) if cap > 0 else None
            for k, c, cap in zip(self.kinds.tolist(), self.coeffs.tolist(), self.caps.tolist())
        )

    @cached_property
    def active(self) -> tuple[int, ...]:
        return tuple(self._active.index.tolist())

    @cached_property
    def _curves(self) -> "_Curves":
        """The active players' level curves as parameter arrays."""
        return _Curves.bargaining(self)

    @cached_property
    def demand(self) -> float:
        """Channel seconds needed to drain every active queue."""
        act = self._active
        return left_sum(act.weight * act.cap)

    @property
    def saturated(self) -> bool:
        """Every active queue fits in the window: the demand is within the
        airtime budget, up to a relative 1e-12."""
        return self.demand <= self.airtime * (1.0 + _REL_SLACK)


def _relay_overheads(broadcast_rate: float, upload: np.ndarray, g: int, n: int) -> np.ndarray:
    """Each of the ``n`` players' relay overhead: broadcast_rate /
    upload_rate for a client, whose upload rate must be positive and above
    broadcast_rate / DBL_MAX, so that its overhead is finite, and 0 for the
    GO ``g``, whatever its upload rate.  (A rate at that bound itself has an
    overhead that overflows or lies within rounding of DBL_MAX.)"""
    relayed = upload.copy()
    relayed[g] = math.inf       # the GO uploads nothing
    if np.count_nonzero(relayed > broadcast_rate / sys.float_info.max) != n:     # NaN fails too
        if np.count_nonzero(relayed > 0) != n:
            raise ValueError("clients need upload_rate > 0")
        raise ValueError("clients need a finite relay overhead broadcast_rate / upload_rate")
    betas = broadcast_rate / relayed
    betas[g] = 0.0
    return betas


def _check_utility_columns(kinds: np.ndarray, coeffs: np.ndarray) -> None:
    """The rules on utilities, over kind codes and coefficients (NaN:
    normalized-linear over the player's own cap): a known kind, a positive
    coefficient and a power exponent of at most 1."""
    k = _first((kinds < 0) | (kinds >= len(_UTILITY_KINDS)))
    if k is not None:
        raise ValueError(f"unknown utility kind code {int(kinds[k])}")
    own_cap = np.isnan(coeffs)
    if np.count_nonzero(own_cap & (kinds != _U_LINEAR)) or np.count_nonzero(~(coeffs[~own_cap] > 0)):
        raise ValueError("utility coefficient must be positive")
    if np.count_nonzero(coeffs[kinds == _U_POWER] > 1):
        raise ValueError("power exponent must lie in (0, 1]")


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
    steps for the common level (breakpoint probes, on the tangent lines when
    any curve is curved, plus Newton steps, of which the last is taken along
    the tangent and not evaluated; 0 for a saturated problem).
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
    inverts its level curve in one of three ways (``kind``, a utility kind
    code):

    * ``_U_LINEAR`` (normalized-linear, a power curve without a disagreement
      point, d = 0, and the baselines' clipped-linear shares):
      time(s) = d + r s;
    * ``_U_LOG`` (log-shifted, gain g): time(s) = d + expm1(y) / k with
      k = g / (1 + g d) and y e^y = r k s (:func:`_lambert_w`);
    * ``_U_POWER`` (exponent p, d > 0): time(s) = d (1 + t) with
      t - expm1((1 - p) log1p(t)) = r s / d.

    ``r`` is alpha / (1 + beta), times p for power players; it is the slope
    of time(s) at s = 0, except for ``_U_POWER`` curves, whose slope there is
    r / p.  ``coeff`` holds k for log-shifted players and p for power
    players.  Every time(s) is concave and increasing, so its tangent line at
    s = 0 lies on or above it: :meth:`water_fill` starts from the level at
    which those lines spend the budget.
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
        act = problem._active
        cap, r = act.cap, slope[act.index]
        zero = np.zeros(len(cap))
        return cls.sorted_by_top(act.index, act.weight, zero, cap, r,
                                 zero.astype(np.int8), zero, cap / r)

    @classmethod
    def bargaining(cls, problem: BargainingProblem) -> "_Curves":
        """Level curves of the active players of a bargaining problem."""
        act = problem._active
        weight, d, cap = act.weight, act.d, act.cap
        r = act.alpha / weight
        kind = np.zeros(len(cap), dtype=np.int8)
        coeff = np.zeros(len(cap))
        if act.linear:
            return cls.sorted_by_top(act.index, weight, d, cap, r, kind, coeff, (cap - d) / r)
        m = act.power
        coeff[m] = act.coeff[m]
        r[m] *= coeff[m]
        top = (cap - d) / r
        m = act.log
        g, room = act.coeff[m], cap[m] - d[m]
        k = g / (1.0 + g * d[m])
        kind[m], coeff[m] = _U_LOG, k
        top[m] = np.log1p(k * room) * (1.0 + k * room) / (r[m] * k)
        m = act.power[d[act.power] > 0]
        kind[m] = _U_POWER
        t = (cap[m] - d[m]) / d[m]
        top[m] = d[m] * (t - np.expm1((1.0 - coeff[m]) * np.log1p(t))) / r[m]
        return cls.sorted_by_top(act.index, weight, d, cap, r, kind, coeff, top)

    def times(self, s: float, sel: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Unclipped broadcast times time(s) of the selected players at
        common level ``s``, and their derivatives in ``s``."""
        d, r = self.d[sel], self.r[sel]
        x = d + r * s
        dx = r.copy()
        kind = self.kind[sel]
        if np.count_nonzero(kind):
            coeff = self.coeff[sel]
            m = kind == _U_LOG
            if np.count_nonzero(m):
                k = coeff[m]
                y = _lambert_w(r[m] * k * s)
                x[m] = d[m] + np.expm1(y) / k
                dx[m] = r[m] / (1.0 + y)
            m = kind == _U_POWER
            if np.count_nonzero(m):
                t, slope = _power_gain(r[m] * s / d[m], coeff[m])
                x[m] = d[m] + d[m] * t
                dx[m] = r[m] / slope
        return x, dx

    def tail(self, start: int) -> "_Curves":
        """The curves from sorted position ``start`` on."""
        return _Curves(*(getattr(self, f.name)[start:] for f in fields(self)))

    def water_fill(self, budget: float) -> tuple[float, np.ndarray, int]:
        """Common level s and broadcast times (in sorted order) that spend
        ``budget`` < demand: sum_i (1 + beta_i) min(cap_i, time_i(s)) = budget.

        Linear curves are water-filled exactly (:func:`_fill_lines`).  With
        any curved player, the tangent lines at s = 0 are water-filled
        instead; every time(s) is concave, so they lie on or above the
        curves and their level s0 lies at or below the root.  The clipped
        spend is concave and increasing in s too, so Newton's method from s0
        climbs monotonically to the root.  It converges quadratically, so
        once a step is at most sqrt(eps) of the level, the next would be
        below rounding: the climb takes that last step without evaluating
        the curves again, and returns s + step with the tangent prediction
        min(cap, x + dx step) of the times.  Also returns the root-find
        iteration count: breakpoint probes plus Newton steps, the last one
        not evaluated.
        """
        w, d, cap, r, top = self.weight, self.d, self.cap, self.r, self.top
        if not np.count_nonzero(self.kind):
            s, lo, probes = _fill_lines(w, d, cap, r, top, budget)
            x = cap.copy()
            x[lo:] = np.minimum(cap[lo:], d[lo:] + r[lo:] * s)
            return float(s), x, probes
        slope = r.copy()            # time'(0): r, and r / p for _U_POWER
        m = self.kind == _U_POWER
        slope[m] /= self.coeff[m]
        line_top = (cap - d) / slope
        order = np.argsort(line_top)
        s, _, probes = _fill_lines(w[order], d[order], cap[order], slope[order], line_top[order], budget)
        step = 0.0
        for steps in range(1, _ROOT_MAX_ITER + 1):
            s = min(s + step, top[-1])
            lo = int(np.searchsorted(top, s))       # the players before lo are capped
            xs, dx = self.times(s, slice(lo, None))
            x = cap.copy()
            x[lo:] = np.minimum(cap[lo:], xs)
            step = (budget - w @ x) / (w[lo:] @ dx)
            if step <= _SQRT_EPS * s:
                break
        x[lo:] = np.minimum(cap[lo:], xs + dx * step)
        return float(s + step), x, probes + steps


def _fill_lines(w, d, cap, r, top, budget: float) -> tuple[float, int, int]:
    """Water-fill the clipped lines min(cap_i, d_i + r_i s), sorted by the
    level ``top`` at which each reaches its cap: the level s at which they
    spend ``budget`` < sum_i w_i cap_i, the sorted position of the first
    line below its cap there, and the number of breakpoint probes.

    A binary search over the breakpoints finds the segment where the budget
    binds (the lines before it sit at their caps); the spend is linear in s
    on it, so s is a closed form there.
    """
    spent = np.cumsum(w * cap)
    lo, hi = 0, len(top) - 1
    probes = 0
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        if spent[mid] + w[mid + 1:] @ (d[mid + 1:] + r[mid + 1:] * top[mid]) >= budget:
            hi = mid
        else:
            lo = mid + 1
    base = spent[lo - 1] if lo else 0.0
    s = (budget - base - w[lo:] @ d[lo:]) / (w[lo:] @ r[lo:])
    return min(max(s, top[lo - 1] if lo else 0.0), top[lo]), lo, probes


def _winitzki(q: np.ndarray) -> np.ndarray:
    """Winitzki's approximation to the principal branch of y e^y = q for
    q >= 0, within 2% everywhere."""
    l1 = np.log1p(q)
    return l1 * (1.0 - np.log1p(l1) / (2.0 + l1))


def _lambert_w(q: np.ndarray) -> np.ndarray:
    """Principal branch of y e^y = q for q >= 0: two fourth-order steps of
    Fritsch, Shafer and Crowley (CACM Algorithm 443, 1973) from
    :func:`_winitzki`, which take a start that close to full precision, so
    there is no convergence test.  The steps read log(q / y), never e^y, so
    no finite q overflows; q = 0 gives 0."""
    y = _winitzki(q)
    ratio, positive = np.ones_like(y), q > 0      # q / y, left at 1 where q = y = 0
    for _ in range(2):
        u = 1.0 + y
        z = np.log(np.divide(q, y, out=ratio, where=positive)) - y
        t = 2.0 * u * (u + (2.0 / 3.0) * z)
        y = y * (1.0 + z / u * (t - z) / (t - 2.0 * z))
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


def time_at_level(problem: BargainingProblem, i: int, lvl: float) -> float:
    """Invert :func:`level`: broadcast time at which player i reaches ``lvl``.

    Player i's own curve in the water-filling core, :meth:`_Curves.times`:
    closed form for linear curves, a Lambert W for log-shifted ones and
    Newton's method for power ones with a disagreement point.
    """
    curves = problem._curves
    found = np.flatnonzero(curves.index == i)
    if not len(found):
        raise DomainError(f"player index {i} has no data and does not bargain")
    pos = int(found[0])
    top = curves.top[pos]
    if not (0.0 < lvl <= top * (1.0 + _REL_SLACK)):
        raise DomainError(f"level {lvl} outside (0, {top}] for player index {i}")
    x = curves.times(lvl, slice(pos, pos + 1))[0][0]
    return float(min(x, problem.caps[i]))


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
    """Invert :func:`tail_airtime` in its level argument: the water-fill of
    the tail's curves (:meth:`_Curves.water_fill`), a closed form when they
    are all linear and the tangent-line start plus Newton climb otherwise."""
    top = _tail_top(problem, start)
    vmax = tail_airtime(problem, start, top)
    if not (0.0 < v <= vmax * (1.0 + _REL_SLACK)):
        raise DomainError(f"airtime {v} outside (0, {vmax}] for tail at {start}")
    if v >= vmax:
        return top
    return problem._curves.tail(start).water_fill(v)[0]


# ---------------------------------------------------------------------------
# allocators


def weighted_airtime(problem: BargainingProblem, broadcast_time: np.ndarray) -> float:
    """Channel seconds consumed by an allocation: sum of (1+beta_i) x_i,
    added left to right as :attr:`BargainingProblem.demand` is."""
    return left_sum((1.0 + problem.betas) * np.asarray(broadcast_time, dtype=float))


def _saturated_allocation(problem: BargainingProblem) -> Allocation:
    x = problem.caps.copy()  # zero for every player that sits out
    return Allocation(x, problem.betas * x, saturated=True)


def _water_fill_allocation(problem: BargainingProblem, curves: _Curves) -> tuple[Allocation, float, int]:
    s, xs, iterations = curves.water_fill(problem.airtime)
    x = np.zeros(len(problem.ids))
    x[curves.index] = xs
    return Allocation(x, problem.betas * x, saturated=False), s, iterations


def _gnbs_solve(problem: BargainingProblem) -> tuple[Allocation, float, int]:
    """The GNBS allocation without its certificate: the allocation, the
    multiplier ``lam`` of its budget constraint and the root-find steps that
    :func:`kkt_residuals` takes to certify it."""
    if problem.saturated:
        top = problem._curves.top
        return _saturated_allocation(problem), 1.0 / top[-1] if len(top) else 0.0, 0

    alloc, s, iterations = _water_fill_allocation(problem, problem._curves)
    return alloc, 1.0 / s, iterations


def gnbs_allocate(problem: BargainingProblem) -> tuple[Allocation, KktReport]:
    """Generalized Nash bargaining allocation of the airtime budget.

    If every queue fits in the window the allocation saturates at the caps.
    Otherwise every player sits at min(cap, time(s)) for one common level s
    solving the budget equation (see :class:`_Curves`).  When every curve is
    linear (normalized-linear, or power without a disagreement point), a
    binary search over the sorted cap levels finds the segment where the
    budget binds and s is a closed form on it.  Otherwise the same search
    and closed form on the curves' tangent lines at s = 0 give a level at or
    below the root, and Newton's method on the clipped spend climbs from
    there and ends with a step along its tangent, with log-shifted players
    inverted by a two-step Lambert W and power players with a disagreement
    point by Newton's method.  The returned report certifies the KKT system
    of the log-product program.

    The solve and the certificate are separate steps: the simulator calls
    the solve alone (:func:`_gnbs_solve`) for allocations that no report
    certifies, and gets the same allocation this function returns.
    """
    alloc, lam, iterations = _gnbs_solve(problem)
    return alloc, kkt_residuals(problem, alloc, lam, iterations)


def _clipped_linear_allocate(problem: BargainingProblem, slope: np.ndarray) -> Allocation:
    if problem.saturated:
        return _saturated_allocation(problem)
    return _water_fill_allocation(problem, _Curves.clipped_linear(problem, slope))[0]


def eql_allocate(problem: BargainingProblem) -> Allocation:
    """Equal-slot baseline: one common broadcast time s for everyone,
    x_i = min(cap_i, s), so the airtime capped players leave is shared
    equally by the rest.  Solved exactly over the sorted caps."""
    return _clipped_linear_allocate(problem, np.ones(len(problem.ids)))


def wtd_allocate(problem: BargainingProblem) -> Allocation:
    """Load-weighted baseline: broadcast time proportional to queued data,
    x_i = min(cap_i, c * data_i), with the constant c solving the budget
    equation exactly over the sorted caps.  The water-fill sums the slopes
    times 1 + beta, which for the loads is at most 1.5 demand *
    broadcast_rate (a cap is load / broadcast_rate rounded, by at most half
    of itself when subnormal).  Where that bound is not below DBL_MAX / 2,
    the slopes are the loads over 2^e, the power of two above
    broadcast_rate, which puts each in (cap / 2, cap], so their sum cannot
    overflow either.  A power of two scales exactly: they give the same
    times while none is subnormal."""
    slope = problem.data_sizes
    if not (problem.demand * problem.broadcast_rate < sys.float_info.max / 2):
        slope = np.ldexp(slope, -math.frexp(problem.broadcast_rate)[1])
    return _clipped_linear_allocate(problem, slope)


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
    if problem.saturated:
        return _saturated_allocation(problem)

    x = np.zeros(len(problem.ids))
    act = list(problem.active)
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


def _utility_values(act: _Active, x: np.ndarray) -> np.ndarray:
    """The active players' utility values at ``x``, each kind's formula at
    its players' positions (see :class:`Utility`)."""
    v = x / act.coeff
    if not act.linear:
        m, coeff = act.log, act.coeff
        v[m] = np.log1p(coeff[m] * x[m])
        m = act.power
        v[m] = np.power(x[m], coeff[m])
    return v


def _utility_slopes(act: _Active, x: np.ndarray) -> np.ndarray:
    """The active players' utility derivatives at ``x``, by kind."""
    v = 1.0 / act.coeff
    if not act.linear:
        m, coeff = act.log, act.coeff
        v[m] = coeff[m] / (1.0 + coeff[m] * x[m])
        m = act.power
        v[m] = coeff[m] * np.power(x[m], coeff[m] - 1.0)
    return v


def _gains(problem: BargainingProblem, x: np.ndarray) -> np.ndarray:
    """Utility gains over the disagreement points at the active players'
    broadcast times ``x``."""
    values = _utility_values(problem._active, x)
    return values if problem._base_values is None else values - problem._base_values


def nash_product(problem: BargainingProblem, allocation: Allocation) -> float:
    """Weighted product of utility gains; 0 when any active gain is <= 0.

    The product runs left to right over scalar ``math.pow`` powers: numpy's
    array power rounds differently from libm's ``pow`` on some CPUs.
    """
    gains = _gains(problem, allocation.broadcast_time[problem._active.index])
    if np.count_nonzero(gains <= 0):
        return 0.0
    prod = 1.0
    for gain, alpha in zip(gains.tolist(), problem._active.alpha.tolist()):
        prod *= math.pow(gain, alpha)
    return prod


def wpf_aggregate(problem: BargainingProblem, gnbs_alloc: Allocation,
                  other_alloc: Allocation) -> float:
    """Weighted proportional-fairness aggregate of ``other_alloc`` relative
    to the bargaining optimum: sum of alpha_i (u_other - u_gnbs) / u_gnbs,
    added left to right.

    Non-positive for every feasible alternative, a direct consequence of
    first-order optimality of the bargaining point.  Requires zero
    disagreement points so utilities equal gains.
    """
    act = problem._active
    ug = _utility_values(act, gnbs_alloc.broadcast_time[act.index])
    if np.count_nonzero(act.d) or np.count_nonzero(ug <= 0):
        k = _first((act.d != 0) | (ug <= 0))
        if act.d[k] != 0:
            raise DomainError("wpf_aggregate assumes zero disagreement points")
        raise DomainError("bargaining allocation must give positive utility")
    uo = _utility_values(act, other_alloc.broadcast_time[act.index])
    return left_sum(act.alpha * (uo - ug) / ug)


def kkt_residuals(problem: BargainingProblem, allocation: Allocation, lam: float,
                  iterations: int = 0) -> KktReport:
    """Residuals of the reduced KKT system at a candidate allocation.

    Uncapped players contribute |1/level - lam| (stationarity); capped ones
    contribute max(0, lam - 1/level) (dual feasibility) together with the
    complementary-slackness product.  A player at or below its disagreement
    point, or with a zero gain, reads an infinite residual.  The budget
    residual is measured against the total demand when the allocation is
    saturated, the airtime budget otherwise.  Levels are evaluated as in
    :func:`level`, from each utility's own value and derivative by kind
    code, so the certificate does not share the solver's arithmetic.
    ``iterations`` is passed through to the report.
    """
    act = problem._active
    x = allocation.broadcast_time[act.index]
    moved = x > act.d
    # a zero gain reads an infinite 1/level; entries at or below d are
    # overwritten below, whatever they evaluate to
    with np.errstate(divide="ignore", invalid="ignore"):
        xc = np.minimum(x, act.cap)
        gain = _gains(problem, xc)
        dev = 1.0 / (act.weight / act.alpha * gain / _utility_slopes(act, xc)) - lam
        room = act.cap - x
        at_cap = room <= 1e-9 * np.maximum(1.0, act.cap)
        stat = np.abs(dev)
        slack = np.maximum(np.maximum(0.0, -dev), np.abs(dev * room))
    stat[at_cap] = 0.0
    stat[~moved] = math.inf
    slack[~(moved & at_cap)] = 0.0
    stationarity, slackness = np.zeros((2, len(problem.ids)))
    stationarity[act.index] = stat
    slackness[act.index] = slack
    target = problem.demand if allocation.saturated else problem.airtime
    budget = abs(weighted_airtime(problem, allocation.broadcast_time) - target)
    stat_max = float(stationarity.max(initial=0.0))
    worst = max(stat_max, float(slackness.max(initial=0.0)), budget)
    relative = max(stat_max / lam if lam > 0 else stat_max, budget / target if target > 0 else budget)
    path = "saturated" if allocation.saturated else "contended"
    return KktReport(float(lam), stationarity, slackness, float(budget), float(worst),
                     float(relative), path, int(iterations))


def dissemination_rate(problem: BargainingProblem, allocation: Allocation, k: int) -> float:
    """Average megabits/s of player k's content reaching the group over the
    window: broadcast_rate * x_k / airtime."""
    return float(problem.broadcast_rate * allocation.broadcast_time[k] / problem.airtime)


def sample_feasible(problem: BargainingProblem, count: int, rng: np.random.Generator) -> np.ndarray:
    """Random feasible allocations (rows) of a problem that is not
    :attr:`~BargainingProblem.saturated` (else ``ValueError``): budget met,
    caps respected.  Used by the fairness property tests.

    Each row draws Dirichlet shares w of the active players and water-fills
    the budget along the clipped-linear curves x_i(s) = w_i s / (1 + beta_i):
    uncapped players spend channel time in proportion to w_i, and capped
    players drain their queues.
    """
    if problem.saturated:
        raise ValueError("sampling needs an unsaturated problem")
    act = problem._active
    out = np.zeros((count, len(problem.ids)))
    slope = np.zeros(len(problem.ids))
    for r in range(count):
        slope[act.index] = rng.dirichlet(np.ones(len(act.index))) / act.weight
        out[r] = _water_fill_allocation(problem, _Curves.clipped_linear(problem, slope))[0].broadcast_time
    return out
