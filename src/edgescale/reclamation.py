"""Resource reclamation: container termination and incremental CPU deflation.

A ServiceProfile describes how fast a function runs at full container size and
how that degrades when the container's CPU is deflated. The default
degradation curve follows the measured pattern for typical functions: taking
up to 30% of the CPU away costs only ~10% of throughput (allocation slack),
after which throughput falls roughly linearly until it is simply proportional
to the CPU fraction at 70% deflation and beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter

DISTRIBUTIONS = ("exponential", "deterministic", "empirical")

# shared resolution for fair-share flooring and WRR weight integerisation
VCPU_QUANTUM = 0.05

# (cpu_fraction, rate multiplier) anchors; linear in between, proportional
# below the last anchor
DEFAULT_CURVE = ((0.0, 0.0), (0.3, 0.3), (0.7, 0.9), (1.0, 1.0))


@dataclass(frozen=True)
class ServiceProfile:
    """Service-time behaviour of one function across container sizes."""

    base_rate: float
    distribution: str
    curve: tuple
    samples: tuple

    def multiplier(self, cpu_fraction: float) -> float:
        if not 0 < cpu_fraction <= 1:
            raise InvalidParameter(f"cpu fraction must be in (0, 1], got {cpu_fraction}")
        fracs, mults = zip(*self.curve)
        return float(np.interp(cpu_fraction, fracs, mults))

    def service_quantile(self, q: float) -> float:
        """Quantile of the service-time distribution at full container size."""
        if not 0 < q < 1:
            raise InvalidParameter(f"quantile must be in (0, 1), got {q}")
        if self.distribution == "deterministic":
            return 1.0 / self.base_rate
        if self.distribution == "exponential":
            return -math.log(1.0 - q) / self.base_rate
        return float(np.quantile(np.array(self.samples), q))


class ContainerState:
    """One running container; CPU can deflate within [1 - tau, 1], memory is fixed.

    A container is created unmarked (`lazy_marked` False) at `cpu_fraction`;
    the simulator marks and unmarks it later.

    The `cpu_fraction` setter owns what follows from the fraction. It asks
    `profile.multiplier` first, which raises `InvalidParameter` outside
    (0, 1] and so leaves the container as it was; it then stores
    `allocated_vcpu` (standard vCPU times the fraction), `multiplier` (the
    service-rate factor at that size) and `wrr_units` (its dispatch weight,
    `allocated_vcpu` in whole `VCPU_QUANTUM`s, at least 1) as plain
    attributes, which nothing else writes.

    The simulator keeps the rest of a container's state on it, and only the
    simulator writes it:

    - `wrr_counter`: its smooth-WRR counter, 0 when created; `dispatch_wrr`
      moves it.
    - `serving`: the request log row in service, or None when it serves
      nothing; `busy_since`: when the busy vCPU account last restarted.
    - `alloc_since`: when the allocated vCPU account last restarted.
    """

    __slots__ = ("function_id", "node_id", "standard_vcpu", "memory_mb", "profile", "id",
                 "lazy_marked", "_cpu_fraction", "allocated_vcpu", "multiplier", "wrr_units",
                 "wrr_counter", "serving", "busy_since", "alloc_since")

    def __init__(self, function_id: str, node_id: int, standard_vcpu: float, memory_mb: float,
                 profile: ServiceProfile, id: int, cpu_fraction: float):
        self.function_id = function_id
        self.node_id = node_id
        self.standard_vcpu = standard_vcpu
        self.memory_mb = memory_mb
        self.profile = profile
        self.id = id
        self.lazy_marked = False
        self.wrr_counter = 0
        self.serving = None
        self.busy_since = self.alloc_since = 0.0
        self.cpu_fraction = cpu_fraction

    @property
    def cpu_fraction(self) -> float:
        return self._cpu_fraction

    @cpu_fraction.setter
    def cpu_fraction(self, fraction: float):
        multiplier = self.profile.multiplier(fraction)
        self._cpu_fraction = fraction
        self.allocated_vcpu = self.standard_vcpu * fraction
        self.multiplier = multiplier
        self.wrr_units = max(1, round(self.allocated_vcpu / VCPU_QUANTUM))

    @property
    def effective_rate(self) -> float:
        return self.profile.base_rate * self.multiplier


@dataclass(frozen=True)
class Terminate:
    container_id: int


@dataclass(frozen=True)
class SetFraction:
    container_id: int
    fraction: float


def by_allocation(containers) -> list:
    """The shrink order: smallest allocated vCPU first, ties by id."""
    return sorted(containers, key=lambda c: (c.allocated_vcpu, c.id))


def reclaim_by_termination(containers, target_vcpu: float) -> list:
    """Terminate smallest containers first until total vCPU <= target.

    An exact fit is not always possible; the survivors' total is the largest
    achievable value <= target, which may strand a sub-container fragment.
    """
    actions = []
    total = sum(c.allocated_vcpu for c in containers)
    for victim in by_allocation(containers):
        if total <= target_vcpu + 1e-9:
            break
        actions.append(Terminate(victim.id))
        total -= victim.allocated_vcpu
    return actions


def reclaim_by_deflation_grouped(containers, target_vcpu: float, tau: float, step: float) -> list:
    """Node-aware deflation: deflate co-located containers together, deepest first.

    Uniform whole-pool deflation spreads the reclaimed CPU as slivers across
    every node, where none of it can host a new container. Deflating only the
    smallest node-group that can release the whole amount concentrates the
    freed capacity so the under-provisioned function's creates can actually
    land. Falls back to termination when no single node-group can release
    enough.
    """
    pool = list(containers)
    total = sum(c.allocated_vcpu for c in pool)
    if total <= target_vcpu + 1e-9 or not pool:
        return []

    floor_frac = 1.0 - tau
    fractions = {c.id: c.cpu_fraction for c in pool}
    groups: dict = {}
    for c in pool:
        groups.setdefault(c.node_id, []).append(c)
    reclaimable = {
        node: sum((c.cpu_fraction - floor_frac) * c.standard_vcpu for c in members)
        for node, members in groups.items()
    }
    remaining = total - target_vcpu
    covering = [n for n, r in reclaimable.items() if r > 1e-9 and r >= remaining - 1e-9]

    if covering:
        # smallest group that covers the whole release: the freed CPU stays
        # contiguous, bigger groups stay in reserve, and no second group is
        # ever needed
        node = min(covering, key=lambda n: (reclaimable[n], n))
        members = sorted(groups[node], key=lambda c: c.id)
        # one step-quantum at a time, round-robin, stopping at the target so
        # nothing extra is stranded
        stepped = True
        while stepped and total > target_vcpu + 1e-9:
            stepped = False
            for c in members:
                if total <= target_vcpu + 1e-9:
                    break
                if fractions[c.id] > floor_frac + 1e-9:
                    new = max(floor_frac, fractions[c.id] - step)
                    total -= (fractions[c.id] - new) * c.standard_vcpu
                    fractions[c.id] = new
                    stepped = True
        actions = []
        survivors = pool
    else:
        # releasing across several nodes would strand the freed CPU as
        # sub-container slivers nothing can be placed into; terminate instead
        # (the paper's fallback, taken one case earlier)
        if remaining <= sum(reclaimable.values()) + 1e-9:
            # deflation could cover the release, but only as scattered
            # slivers: shed whole containers so the freed CPU is placeable
            actions = reclaim_by_termination(pool, target_vcpu)
            victims = {a.container_id for a in actions}
            survivors = [c for c in pool if c.id not in victims]
        else:
            # genuinely out of deflation headroom: keep as many containers as
            # the floor allows
            actions, survivors = [], list(pool)
            for victim in by_allocation(pool):
                if sum(floor_frac * c.standard_vcpu for c in survivors) <= target_vcpu + 1e-9:
                    break
                actions.append(Terminate(victim.id))
                survivors.remove(victim)
        # relax the survivors to the on-grid uniform fraction that refills the
        # pool up to the target exactly
        if survivors:
            std_total = sum(c.standard_vcpu for c in survivors)
            exact = target_vcpu / std_total
            on_grid = 1.0 - step * math.ceil((1.0 - exact) / step - 1e-9)
            frac = min(1.0, max(floor_frac, on_grid))
            if frac * std_total <= target_vcpu + 1e-9:
                for c in survivors:
                    fractions[c.id] = frac

    for c in survivors:
        if abs(fractions[c.id] - c.cpu_fraction) > 1e-12:
            actions.append(SetFraction(c.id, fractions[c.id]))
    return actions


def plan_inflation(containers, target_vcpu: float, step: float) -> list:
    """Uniformly re-inflate deflated containers toward the target, never past it.

    Inflation is free (no cold start), so restoring deflated capacity always
    precedes creating new containers when a pool needs to grow.
    """
    pool = [c for c in containers if c.cpu_fraction < 1.0 - 1e-12]
    if not pool:
        return []
    fractions = {c.id: c.cpu_fraction for c in pool}
    total = sum(c.allocated_vcpu for c in containers)
    while True:
        stepped = False
        for c in pool:
            if fractions[c.id] >= 1.0 - 1e-12:
                continue
            inc = (min(1.0, fractions[c.id] + step) - fractions[c.id]) * c.standard_vcpu
            if total + inc > target_vcpu + 1e-9:
                continue
            fractions[c.id] = min(1.0, fractions[c.id] + step)
            total += inc
            stepped = True
        if not stepped:
            break
    return [
        SetFraction(c.id, fractions[c.id])
        for c in pool
        if abs(fractions[c.id] - c.cpu_fraction) > 1e-12
    ]
