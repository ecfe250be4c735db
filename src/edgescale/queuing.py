"""Steady-state queueing math for sizing container pools against waiting-time bounds.

Every pool is one occupancy chain. Requests arrive as a Poisson stream at
`lam`; with n requests present the pool drains at D_n, the summed rate of its
min(n, c) slowest containers, as if the dispatcher always picked the slowest
idle one, so the computed waiting-time tail lower-bounds any real
dispatcher's. The M/M/c pool is the equal-rate case, D_n = n*mu, built from
the exact products: a running sum of copies of mu would shift the sizing
cutoff at float boundaries.

Pools are sized by one upward search over existing rates + k standard
containers (`_search`), with one stability floor (`min_stable_count`) and one
sizing rule (`meets_target`), which the allocator's shrink probe also tests.
`find_c_homogeneous` and `find_c_heterogeneous` stay two entry points, as do
the exact CDFs `wait_cdf_homogeneous` and `wait_cdf_heterogeneous`, because
the benchmark's layer tracer counts each by name. Callers pass pools as rates
in any order; the drains are built only here.

Every search stops at one fixed cap, `DEFAULT_CONTAINER_CAP` (10 000
containers in all, existing ones included), and raises CapExceeded past it;
no caller sets another.

Inputs are checked once, before they get here, by `scenario.FIELDS` or by
`validate`'s flag types: every rate is finite and > 0, an arrival rate
finite and >= 0, a target's `t` > 0 and its percentile in (0, 1), and a CDF
is only asked of a pool the search sized, which is stable. The functions
here repeat none of those checks.

`_Chain` keeps the log head weights log(lam^n / (D_1*...*D_n)) and their
running prefix log-sums, finite up to the cap where raw factorials overflow
near c = 170. It appends a drain rate in O(1), so the search grows a pool
one container per step. It is plain Python floats, not numpy: the planner's
pools stay below 30 containers, where a numpy call's fixed cost outweighs
the arithmetic.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import CapExceeded, InfeasibleDeadline

DEFAULT_CONTAINER_CAP = 10_000


@dataclass(frozen=True)
class WaitTarget:
    """Waiting-time goal: require P(wait <= t) >= percentile."""

    t: float
    percentile: float


def _running_drains(rates: Sequence[float]) -> list:
    """Cumulative drain rates D_1..D_c of a non-empty pool, slowest first."""
    return list(itertools.accumulate(sorted(rates)))


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


class _Chain:
    """Occupancy chain of a pool, grown one container at a time. With drains
    D_1..D_c pushed, head[n] is the log weight of n requests present and
    sums[n] the log of the weights' total over 0..n, for n <= c. Beyond c the
    weights decay geometrically by ratio = lam / D_c."""

    __slots__ = ("lam", "log_lam", "drains", "head", "sums")

    def __init__(self, lam: float, drains: Sequence[float] = ()):
        self.lam, self.log_lam = lam, math.log(lam) if lam else -math.inf
        self.drains, self.head, self.sums = [], [0.0], [0.0]
        for drain in drains:
            self.push(drain)

    def push(self, drain: float):
        head = self.head[-1] + (self.log_lam - math.log(drain))
        self.drains.append(drain)
        self.head.append(head)
        self.sums.append(_logaddexp(self.sums[-1], head))

    def truncate(self, c: int):
        """Keep the first c containers."""
        del self.drains[c:], self.head[c + 1:], self.sums[c + 1:]

    def _tail(self) -> tuple:
        """(log ratio, log(1 - ratio), log of the weights' total); 0 < lam < D_c."""
        log_ratio = math.log(self.lam / self.drains[-1])
        # log(1 - ratio) via expm1 stays accurate for ratio near both 0 and 1
        log_one_minus_ratio = math.log(-math.expm1(log_ratio))
        log_z = _logaddexp(self.sums[-2], self.head[-1] - log_one_minus_ratio)
        return log_ratio, log_one_minus_ratio, log_z

    def cutoff_p(self, t: float) -> float:
        """Worst-case P(wait <= t) by occupancy cutoff, for 0 < lam < D_c.

        A request that finds n others in a saturated pool waits about
        (n - c + 1)/D_c, so bounding the wait by t bounds the occupancy it
        sees by L = floor(t*D_c + c - 1). The result is P(N <= L): a prefix
        sum, plus the geometric tail when L >= c.
        """
        c = len(self.drains)
        upto = math.floor(t * self.drains[-1] + c - 1)
        log_ratio, log_one_minus_ratio, log_z = self._tail()
        if upto < c:
            log_num = self.sums[upto]
        else:
            log_partial = (math.log(-math.expm1((upto - c + 1) * log_ratio))
                           - log_one_minus_ratio)
            log_num = _logaddexp(self.sums[c - 1], self.head[c] + log_partial)
        return min(1.0, math.exp(log_num - log_z))

    def meets(self, target: WaitTarget) -> bool:
        """The sizing rule: stable, and the cutoff P(wait <= t) reaches p."""
        return self.lam < self.drains[-1] and (
            self.lam == 0 or self.cutoff_p(target.t) >= target.percentile)


def _wait_cdf(lam: float, drains: list, t: float) -> float:
    """Waiting-time CDF of a stable pool (lam < D_c):
    P(W <= t) = 1 - P(N >= c) * exp(-(D_c - lam)*t).

    Unlike the sizing rule's cutoff, which takes each queued request's wait
    as its conditional mean, this integrates the true wait: an Erlang sum at
    the saturated drain rate D_c, since every completion backfills from the
    queue. It is exact for an M/M/c pool, and for a heterogeneous pool it
    lower-bounds the waiting CDF of any real dispatcher.
    """
    if lam == 0:
        return 1.0
    chain = _Chain(lam, drains)
    _, log_one_minus_ratio, log_z = chain._tail()
    log_queued = chain.head[-1] - log_one_minus_ratio - log_z  # log P(N >= c)
    return 1.0 - math.exp(log_queued - (drains[-1] - lam) * t)


def wait_cdf_homogeneous(lam: float, mu: float, c: int, t: float) -> float:
    """Exact waiting-time CDF of an M/M/c pool: c containers of rate `mu`."""
    return _wait_cdf(lam, [mu * n for n in range(1, c + 1)], t)


def wait_cdf_heterogeneous(lam: float, rates: Sequence[float], t: float) -> float:
    """Worst-case (slowest-first) waiting-time CDF of a pool with these rates."""
    return _wait_cdf(lam, _running_drains(rates), t)


def min_stable_count(lam: float, mu: float, base: float = 0.0) -> int:
    """The stability floor: smallest k with base + k*mu > lam, where `base` is
    the summed rate of the containers a pool already holds. With none (the
    default) it is the smallest stable M/M/c pool, at least 1. A floor past
    `DEFAULT_CONTAINER_CAP` raises CapExceeded, before the rounding guard:
    far past 2^53, k += 1 no longer moves k*mu, and the guard would not end."""
    k = 0
    if lam >= base:
        needed = (lam - base) / mu
        if needed > DEFAULT_CONTAINER_CAP:
            raise CapExceeded(f"no pool of <= {DEFAULT_CONTAINER_CAP} containers is stable "
                              f"at arrival rate {lam}")
        k = int(math.floor(needed)) + 1
    while base + k * mu <= lam:  # float-division rounding guard
        k += 1
    return k


def meets_target(lam: float, rates: Sequence[float], target: WaitTarget) -> bool:
    """The sizing rule for the pool with container rates `rates`."""
    return _Chain(lam, _running_drains(rates)).meets(target)


def _search(lam: float, base: list, mu: float, target: WaitTarget, k: int) -> int:
    """Smallest count of rate-`mu` containers, at least k and the stability
    floor, that merged into the sorted pool `base` meets the sizing rule, with
    at most `DEFAULT_CONTAINER_CAP` containers in the merged pool.

    An empty pool takes the exact products mu*k; otherwise the drains are the
    running sum of the merged pool, slowest first. Each step keeps the chain
    below the standard containers, pushes one more and rebuilds the suffix.
    """
    k = max(k, min_stable_count(lam, mu, sum(base)))
    insert_at = bisect.bisect_left(base, mu)
    chain, drain, pushed = _Chain(lam), 0.0, 0
    for rate in base[:insert_at]:
        drain += rate
        chain.push(drain)
    while len(base) + k <= DEFAULT_CONTAINER_CAP:
        while pushed < k:
            pushed += 1
            drain = drain + mu if base else mu * pushed
            chain.push(drain)
        total = drain
        for rate in base[insert_at:]:
            total += rate
            chain.push(total)
        if chain.meets(target):
            return k
        chain.truncate(insert_at + k)
        k += 1
    raise CapExceeded(f"no pool of <= {DEFAULT_CONTAINER_CAP} containers meets "
                      f"P(wait <= {target.t}) >= {target.percentile}")


def find_c_homogeneous(lam: float, mu: float, target: WaitTarget, c_start: int = 0) -> int:
    """Smallest container count meeting the waiting target, scanning upward.

    The scan begins at max(c_start, stability floor); c_start is a warm start
    (the current pool size), not an upper bound on the answer. Past
    `DEFAULT_CONTAINER_CAP` containers it raises CapExceeded.
    """
    return _search(lam, [], mu, target, c_start)


def find_c_heterogeneous(lam: float, existing_rates: Sequence[float], standard_mu: float,
                         target: WaitTarget) -> int:
    """Smallest number of standard containers to add to an existing pool.

    Returns k >= 0 such that existing_rates + k copies of standard_mu,
    re-sorted ascending, meets the target under the worst-case model. An empty
    existing pool takes find_c_homogeneous's equal drains, so the two agree.
    Past `DEFAULT_CONTAINER_CAP` containers in all it raises CapExceeded.
    """
    return _search(lam, sorted(existing_rates), standard_mu, target, 0)


def wait_budget(deadline: float, profile, percentile: float) -> WaitTarget:
    """Convert a response-time deadline into a waiting-time target.

    t = deadline - s_q, where s_q is the `percentile` quantile of the
    function's service-time distribution at full container size (taken from
    `profile.service_quantile`). Raises InfeasibleDeadline when the service
    tail alone exceeds the deadline, i.e. no container count can help.
    """
    s_hi = profile.service_quantile(percentile)
    t = deadline - s_hi
    if t <= 0:
        raise InfeasibleDeadline(
            f"deadline {deadline}s <= service-time p{percentile * 100:g} of {s_hi:.6g}s"
        )
    return WaitTarget(t=t, percentile=percentile)
