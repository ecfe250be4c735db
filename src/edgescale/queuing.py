"""Steady-state queueing math for sizing container pools against waiting-time bounds.

Every pool is one occupancy chain. Requests arrive as a Poisson stream at
`lam`; with n requests present the pool drains at D_n, the summed rate of its
min(n, c) slowest containers, as if the dispatcher always picked the slowest
idle one. That worst case makes the computed waiting-time tail a lower bound
on any real dispatcher's. The M/M/c pool of c identical containers is the
equal-rate case, D_n = n*mu, built from the exact products: a running sum of
c copies of mu would shift the sizing cutoff at float boundaries.

Pools are sized by one upward search over existing rates + k standard
containers (`_search`), with one stability floor (`min_stable_count`) and one
sizing rule (`meets_target`), which the allocator's shrink probe also tests.
`find_c_homogeneous` and `find_c_heterogeneous` stay two entry points, neither
calling the other, because the benchmark's layer tracer counts each by name.

All factorial/power terms are accumulated as log-space recurrences so the math
stays finite for pools up to the hard cap (10 000 containers) and offered loads
up to 10 000; naive factorial evaluation overflows around c = 170.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CapExceeded, InfeasibleDeadline, InvalidParameter, UnstableSystem

DEFAULT_PERCENTILE = 0.99
DEFAULT_CONTAINER_CAP = 10_000


@dataclass(frozen=True)
class WaitTarget:
    """Waiting-time goal: require P(wait <= t) >= percentile."""

    t: float
    percentile: float = DEFAULT_PERCENTILE

    def __post_init__(self):
        if not self.t > 0:
            raise InvalidParameter(f"waiting-time bound must be > 0, got {self.t}")
        if not 0 < self.percentile < 1:
            raise InvalidParameter(f"percentile must be in (0, 1), got {self.percentile}")


@dataclass(frozen=True)
class HeterogeneousModel:
    """Pool with per-container rates, slowest first (worst-case dispatch order).

    `drains` holds the chain's cumulative drain rates D_1..D_c; it defaults to
    the running sum of `rates`.
    """

    lam: float
    rates: tuple
    drains: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.lam < 0 or not math.isfinite(self.lam):
            raise InvalidParameter(f"arrival rate must be finite and >= 0, got {self.lam}")
        rates = tuple(float(r) for r in self.rates)
        if not rates:
            raise InvalidParameter("rates must be non-empty")
        if any(r <= 0 or not math.isfinite(r) for r in rates):
            raise InvalidParameter("every container rate must be finite and > 0")
        if any(a > b for a, b in zip(rates, rates[1:])):
            raise InvalidParameter("rates must be sorted ascending (slowest first)")
        object.__setattr__(self, "rates", rates)
        if self.drains is None:
            object.__setattr__(self, "drains", np.cumsum(rates))

    @property
    def c(self) -> int:
        return len(self.rates)

    @property
    def drain_rate(self) -> float:
        return float(self.drains[-1])

    def require_stable(self):
        if not self.lam < self.drain_rate:
            raise UnstableSystem(
                f"lam={self.lam} >= total rate {self.drain_rate}; no steady state"
            )


def _equal_drains(mu: float, c: int) -> np.ndarray:
    """Drain rates of c equal containers: the exact products mu, 2*mu, ..., c*mu."""
    return mu * np.arange(1, c + 1)


def HomogeneousModel(lam: float, mu: float, c: int) -> HeterogeneousModel:
    """M/M/c pool: Poisson arrivals at `lam`, c identical containers of rate `mu`."""
    if c < 1 or c != int(c):
        raise InvalidParameter(f"container count must be a positive integer, got {c}")
    c = int(c)
    return HeterogeneousModel(lam, (mu,) * c, drains=_equal_drains(mu, c))


def _logsumexp(terms: np.ndarray) -> float:
    hi = float(np.max(terms))
    if hi == -math.inf:
        return -math.inf
    return hi + math.log(float(np.sum(np.exp(terms - hi))))


def _chain(lam: float, drains: np.ndarray) -> tuple:
    """Log-space occupancy chain for lam > 0 below the total drain rate.

    Returns (log_head, log_ratio, log_one_minus_ratio, log_z). The
    unnormalised weight of n requests is lam^n / (D_1*...*D_n), with log
    log_head[n] for n <= c, and decays geometrically by ratio = lam / D_c
    beyond c. log_z is the log of the weights' total.
    """
    c = len(drains)
    log_head = np.empty(c + 1)
    log_head[0] = 0.0
    log_head[1:] = np.cumsum(math.log(lam) - np.log(drains))
    log_ratio = math.log(lam / float(drains[-1]))
    # log(1 - ratio) via expm1 stays accurate for ratio near both 0 and 1
    log_one_minus_ratio = math.log(-math.expm1(log_ratio))
    log_z = _logsumexp(np.append(log_head[:c], log_head[c] - log_one_minus_ratio))
    return log_head, log_ratio, log_one_minus_ratio, log_z


def _wait_tail(lam: float, drains: np.ndarray, t: float) -> float:
    """P(N <= L) with L = floor(t*D_c + c - 1), for a stable chain."""
    if lam == 0:
        return 1.0
    c = len(drains)
    upto = math.floor(t * float(drains[-1]) + c - 1)
    log_head, log_ratio, log_one_minus_ratio, log_z = _chain(lam, drains)
    if upto < c:
        log_num = _logsumexp(log_head[: upto + 1])
    else:
        m = upto - c + 1
        log_partial = math.log(-math.expm1(m * log_ratio)) - log_one_minus_ratio
        log_num = np.logaddexp(_logsumexp(log_head[:c]), log_head[c] + log_partial)
    return min(1.0, math.exp(float(log_num) - log_z))


def steady_prob(model: HeterogeneousModel, n: int) -> float:
    """P(exactly n requests in the system) for a stable pool."""
    model.require_stable()
    if n < 0 or n != int(n):
        raise InvalidParameter(f"occupancy must be a nonnegative integer, got {n}")
    if model.lam == 0:
        return 1.0 if n == 0 else 0.0
    c = model.c
    log_head, log_ratio, _, log_z = _chain(model.lam, model.drains)
    if n <= c:
        log_term = float(log_head[n])
    else:
        log_term = float(log_head[c]) + (n - c) * log_ratio
    return math.exp(log_term - log_z)


def wait_tail(model: HeterogeneousModel, target: WaitTarget) -> float:
    """Worst-case P(wait <= t) by occupancy cutoff: the rule pools are sized by.

    A request that finds n others in a saturated pool waits about
    (n - c + 1)/D_c, where D_c = sum(rates) is the full drain rate, so bounding
    the wait by t is bounding the occupancy it sees by
    L = floor(t*D_c + c - 1). For an M/M/c pool D_c = c*mu.
    """
    model.require_stable()
    return _wait_tail(model.lam, model.drains, target.t)


def _wait_cdf(model: HeterogeneousModel, t: float) -> float:
    """Waiting-time CDF: P(W <= t) = 1 - P(N >= c) * exp(-(D_c - lam)*t).

    Unlike wait_tail (the occupancy-cutoff rule used for sizing, which treats
    each queued request's wait as its conditional mean), this integrates the
    true wait: given a queue position it is an Erlang sum at the saturated
    drain rate D_c, since every completion backfills from the queue while
    anyone waits. For an M/M/c pool it is exact, and it is what a measurement
    of the same system converges to; for a heterogeneous pool it
    lower-bounds the waiting CDF of any real dispatcher.
    """
    model.require_stable()
    if t < 0:
        raise InvalidParameter(f"t must be >= 0, got {t}")
    if model.lam == 0:
        return 1.0
    log_head, _, log_one_minus_ratio, log_z = _chain(model.lam, model.drains)
    log_queued = float(log_head[model.c]) - log_one_minus_ratio - log_z
    return 1.0 - math.exp(log_queued - (model.drain_rate - model.lam) * t)


def wait_cdf_homogeneous(model: HeterogeneousModel, t: float) -> float:
    """Exact M/M/c waiting-time CDF of a `HomogeneousModel` pool."""
    return _wait_cdf(model, t)


def wait_cdf_heterogeneous(model: HeterogeneousModel, t: float) -> float:
    """Worst-case (slowest-first) waiting-time CDF of a heterogeneous pool."""
    return _wait_cdf(model, t)


def min_stable_count(lam: float, mu: float, base: float = 0.0) -> int:
    """The stability floor: smallest k with base + k*mu > lam.

    `base` is the summed rate of the containers a pool already holds; with
    none (the default) the answer is the smallest stable M/M/c pool, at least
    1 for lam >= 0.
    """
    k = 0
    if lam >= base:
        k = int(math.floor((lam - base) / mu)) + 1
    while base + k * mu <= lam:  # float-division rounding guard
        k += 1
    return k


def meets_target(lam: float, drains: np.ndarray, target: WaitTarget) -> bool:
    """The sizing rule: the pool with cumulative drain rates `drains` is stable
    and its occupancy-cutoff P(wait <= t) reaches the target percentile."""
    return lam < drains[-1] and _wait_tail(lam, drains, target.t) >= target.percentile


def _search(lam: float, base: np.ndarray, mu: float, target: WaitTarget, k: int, cap: int) -> int:
    """Smallest count of rate-`mu` containers, at least k and the stability
    floor, that merged into the sorted pool `base` meets the sizing rule.

    An empty pool takes the exact products of `_equal_drains`; otherwise the
    drains are the running sum of the merged pool, slowest first.
    """
    # an empty pool, as in every homogeneous call, needs neither numpy call
    total, insert_at = (0.0, 0) if not base.size else (
        float(base.sum()), int(np.searchsorted(base, mu)))
    k = max(k, min_stable_count(lam, mu, total))
    while base.size + k <= cap:
        if base.size:
            drains = np.cumsum(np.concatenate([base[:insert_at], np.full(k, float(mu)),
                                               base[insert_at:]]))
        else:
            drains = _equal_drains(mu, k)
        if meets_target(lam, drains, target):
            return k
        k += 1
    raise CapExceeded(f"no pool of <= {cap} containers meets P(wait <= {target.t}) "
                      f">= {target.percentile}")


def _check_rates(lam: float, mu: float, name: str):
    if mu <= 0 or not math.isfinite(mu):
        raise InvalidParameter(f"{name} must be finite and > 0, got {mu}")
    if not 0 <= lam < math.inf:
        raise InvalidParameter(f"arrival rate must be finite and >= 0, got {lam}")


def find_c_homogeneous(
    lam: float,
    mu: float,
    target: WaitTarget,
    c_start: int = 0,
    cap: int = DEFAULT_CONTAINER_CAP,
) -> int:
    """Smallest container count meeting the waiting target, scanning upward.

    The scan begins at max(c_start, stability floor); c_start is a warm start
    (the current pool size), not an upper bound on the answer.
    """
    _check_rates(lam, mu, "service rate")
    if c_start < 0:
        raise InvalidParameter(f"c_start must be >= 0, got {c_start}")
    return _search(lam, np.empty(0), mu, target, c_start, cap)


def find_c_heterogeneous(
    lam: float,
    existing_rates: Sequence[float],
    standard_mu: float,
    target: WaitTarget,
    cap: int = DEFAULT_CONTAINER_CAP,
) -> int:
    """Smallest number of standard containers to add to an existing pool.

    Returns k >= 0 such that the pool (existing_rates + k copies of
    standard_mu), re-sorted ascending, meets the waiting target under the
    worst-case heterogeneous model. An empty existing pool takes the equal
    drains find_c_homogeneous uses, so the two agree on it.
    """
    _check_rates(lam, standard_mu, "standard rate")
    base = np.sort(np.asarray(list(existing_rates), dtype=float))
    if base.size and not (base[0] > 0 and np.isfinite(base[-1])):
        raise InvalidParameter("every existing rate must be finite and > 0")
    return _search(lam, base, standard_mu, target, 0, cap)


def wait_budget(deadline: float, profile, percentile: float = DEFAULT_PERCENTILE) -> WaitTarget:
    """Convert a response-time deadline into a waiting-time target.

    t = deadline - s_q, where s_q is the `percentile` quantile of the
    function's service-time distribution at full container size (taken from
    `profile.service_quantile`). Raises InfeasibleDeadline when the service
    tail alone exceeds the deadline, i.e. no container count can help.
    """
    if deadline <= 0:
        raise InvalidParameter(f"deadline must be > 0, got {deadline}")
    s_hi = profile.service_quantile(percentile)
    t = deadline - s_hi
    if t <= 0:
        raise InfeasibleDeadline(
            f"deadline {deadline}s <= service-time p{percentile * 100:g} of {s_hi:.6g}s"
        )
    return WaitTarget(t=t, percentile=percentile)
