"""Steady-state queueing math for sizing container pools against waiting-time bounds.

Every pool is one occupancy chain. Requests arrive as a Poisson stream at
`lam`; with n requests present the pool drains at D_n, the summed rate of its
min(n, c) slowest containers, as if the dispatcher always picked the slowest
idle one. That worst case makes the computed waiting-time tail a lower bound
on any real dispatcher's. The M/M/c pool of c identical containers is the
equal-rate case, D_n = n*mu, built from the exact products: a running sum of
c copies of mu would shift the sizing cutoff at float boundaries.

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

    @property
    def is_stable(self) -> bool:
        return self.lam < self.drain_rate

    def require_stable(self):
        if not self.is_stable:
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


def min_stable_count(lam: float, mu: float) -> int:
    """Smallest c with lam < c*mu (at least 1)."""
    if lam <= 0:
        return 1
    c = int(math.floor(lam / mu)) + 1
    while c * mu <= lam:  # float-division rounding guard
        c += 1
    return max(1, c)


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
    if mu <= 0 or not math.isfinite(mu):
        raise InvalidParameter(f"service rate must be finite and > 0, got {mu}")
    if not 0 <= lam < math.inf:
        raise InvalidParameter(f"arrival rate must be finite and >= 0, got {lam}")
    if c_start < 0:
        raise InvalidParameter(f"c_start must be >= 0, got {c_start}")
    c = max(c_start, min_stable_count(lam, mu))
    while c <= cap:
        if _wait_tail(lam, _equal_drains(mu, c), target.t) >= target.percentile:
            return c
        c += 1
    raise CapExceeded(f"no c <= {cap} meets P(wait <= {target.t}) >= {target.percentile}")


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
    if standard_mu <= 0 or not math.isfinite(standard_mu):
        raise InvalidParameter(f"standard rate must be finite and > 0, got {standard_mu}")
    if not 0 <= lam < math.inf:
        raise InvalidParameter(f"arrival rate must be finite and >= 0, got {lam}")
    base = np.sort(np.asarray(list(existing_rates), dtype=float))
    if base.size and not (base[0] > 0 and np.isfinite(base[-1])):
        raise InvalidParameter("every existing rate must be finite and > 0")
    insert_at = int(np.searchsorted(base, standard_mu))
    base_sum = float(base.sum())

    # skip straight to the stability floor: need base_sum + k*standard_mu > lam
    k = 0
    if lam >= base_sum:
        k = int(math.floor((lam - base_sum) / standard_mu)) + 1
    while base_sum + k * standard_mu <= lam:
        k += 1

    while base.size + k <= cap:
        if base.size + k > 0:
            pool = np.concatenate(
                [base[:insert_at], np.full(k, float(standard_mu)), base[insert_at:]]
            )
            drains = np.cumsum(pool) if base.size else _equal_drains(standard_mu, k)
            if lam < drains[-1] and _wait_tail(lam, drains, target.t) >= target.percentile:
                return k
        k += 1
    raise CapExceeded(
        f"pool would exceed {cap} containers before meeting the waiting target"
    )


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
