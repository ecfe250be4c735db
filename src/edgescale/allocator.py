"""The per-epoch control loop: rate estimates in, reconciliation actions out.

Each epoch the controller sizes every function's pool from the queueing
models, runs the fair-share adjustment when the aggregate demand exceeds
cluster capacity, and emits actions: create, mark/unmark lazy, terminate,
deflate, inflate. Shrink actions must be applied before grow actions so that
reclaimed capacity is available to under-provisioned functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import fairshare, queuing, reclamation
from .errors import InfeasibleDeadline, NoCapacity
from .queuing import WaitTarget

# shared resolution for fair-share flooring and WRR weight integerisation
VCPU_QUANTUM = 0.05


@dataclass(frozen=True)
class SloPolicy:
    """Latency goal for one function.

    `applies_to` selects whether `deadline` bounds waiting time directly
    (the usual reading for queueing SLOs) or the full response time, in which
    case the waiting budget is deadline minus the service-time tail.
    """

    deadline: float
    percentile: float = 0.99
    applies_to: str = "waiting"  # or "response"

    def wait_target(self, profile) -> WaitTarget:
        if self.applies_to == "response":
            return queuing.wait_budget(self.deadline, profile, self.percentile)
        return WaitTarget(t=self.deadline, percentile=self.percentile)


@dataclass(frozen=True)
class FunctionSpec:
    id: str
    user_id: str
    weight: float
    slo: SloPolicy
    vcpu: float
    memory_mb: float
    profile: reclamation.ServiceProfile
    cold_start_s: float = 0.5
    min_containers: int = 0
    timeout_s: float | None = None  # hard drop limit on waiting, off by default


@dataclass(frozen=True)
class CreateContainer:
    function_id: str


@dataclass(frozen=True)
class MarkLazy:
    container_id: int


@dataclass(frozen=True)
class UnmarkLazy:
    container_id: int


@dataclass
class PlanEntry:
    function_id: str
    rate_estimate: float
    c_active: int
    c_new: int
    demand_vcpu: float
    target_vcpu: float
    guar_vcpu: float
    infeasible: bool = False
    shrink: list = field(default_factory=list)
    grow: list = field(default_factory=list)


@dataclass
class EpochPlan:
    overloaded: bool
    entries: dict  # function_id -> PlanEntry


@dataclass(frozen=True)
class ControllerConfig:
    epoch_s: float = 10.0
    reclamation_mode: str = "deflation"  # or "termination"
    tau: float = 0.3
    deflation_step: float = 0.05
    inflation_enabled: bool = True
    container_cap: int = queuing.DEFAULT_CONTAINER_CAP


def place(size_vcpu: float, memory_mb: float, cluster) -> int:
    """Best-fit node by remaining vCPU among nodes that fit both dimensions.

    Ties go to the lowest node index. Raises NoCapacity when nothing fits;
    the caller is expected to reclaim lazy-marked containers and retry once.
    """
    best = None
    best_free = None
    for idx in range(len(cluster.nodes)):
        free_cpu, free_mem = cluster.node_free(idx)
        if free_cpu + 1e-9 >= size_vcpu and free_mem + 1e-9 >= memory_mb:
            if best_free is None or free_cpu < best_free - 1e-12:
                best, best_free = idx, free_cpu
    if best is None:
        raise NoCapacity(f"no node fits {size_vcpu} vCPU + {memory_mb} MB")
    return best


def required_pool(spec: FunctionSpec, active, rate: float, cfg: ControllerConfig):
    """Size one function's pool for the estimated rate.

    Returns (keep_ids, extra_standard, demand_vcpu): containers worth keeping,
    standard containers to add, and the pool's demand in vCPU.

    With inflation enabled, a deflated pool is restorable to full size at no
    cost, so demand is always full-size equivalents from the homogeneous
    model. With inflation disabled (the measure-the-heterogeneous-model
    configuration), a deflated pool is sized with the worst-case
    heterogeneous model, which only adds standard containers; shrinking is
    probed by dropping the smallest members while the target still holds.
    """
    target = spec.slo.wait_target(spec.profile)
    base_rate = spec.profile.base_rate
    uniform = all(abs(c.cpu_fraction - 1.0) < 1e-12 for c in active)
    if uniform or cfg.inflation_enabled:
        c_needed = queuing.find_c_homogeneous(
            rate, base_rate, target, c_start=0, cap=cfg.container_cap
        )
        c_needed = max(c_needed, spec.min_containers)
        keep = [c.id for c in active]
        extra = max(0, c_needed - len(active))
        if len(active) > c_needed:
            surplus = sorted(active, key=lambda c: (c.allocated_vcpu, c.id))
            drop = {c.id for c in surplus[: len(active) - c_needed]}
            keep = [c.id for c in active if c.id not in drop]
        demand = c_needed * spec.vcpu
        return keep, extra, demand

    rates = sorted(c.effective_rate for c in active)
    extra = queuing.find_c_heterogeneous(
        rate, rates, base_rate, target, cap=cfg.container_cap
    )
    keep = [c.id for c in active]
    if extra == 0:
        # probe shrinking: drop smallest-capacity members while still meeting
        # the target (the additive heterogeneous search never scales down)
        pool = sorted(active, key=lambda c: (c.allocated_vcpu, c.id))
        while len(pool) > max(1, spec.min_containers):
            trial = sorted(c.effective_rate for c in pool[1:])
            model = queuing.HeterogeneousModel(rate, tuple(trial))
            if not model.is_stable:
                break
            if queuing.wait_tail(model, target) < target.percentile:
                break
            pool = pool[1:]
        keep = [c.id for c in pool]
    demand = sum(c.allocated_vcpu for c in active if c.id in set(keep))
    demand += extra * spec.vcpu
    return keep, extra, demand


def reconcile(
    spec: FunctionSpec,
    containers,
    target_vcpu: float,
    pressure: bool,
    cfg: ControllerConfig,
) -> tuple:
    """Actions that move one function's pool toward `target_vcpu`.

    Over-provisioned pools are marked lazy when there is no resource pressure
    (marked containers keep serving and are reclaimed only when needed);
    under pressure the configured reclamation policy shrinks them for real.
    Under-provisioned pools grow by re-inflating deflated containers, then
    rescinding lazy marks, then creating standard containers.
    """
    shrink: list = []
    grow: list = []
    active = [c for c in containers if not c.lazy_marked]
    lazy = [c for c in containers if c.lazy_marked]
    current = sum(c.allocated_vcpu for c in active)

    if current > target_vcpu + 1e-9:
        if not pressure:
            nonlazy = sorted(active, key=lambda c: (c.allocated_vcpu, c.id))
            freed = 0.0
            for c in nonlazy:
                if current - freed - c.allocated_vcpu < target_vcpu - 1e-9:
                    break
                shrink.append(MarkLazy(c.id))
                freed += c.allocated_vcpu
        else:
            for c in lazy:  # marked surplus goes first under pressure
                shrink.append(reclamation.Terminate(c.id))
            if cfg.reclamation_mode == "termination":
                shrink.extend(reclamation.reclaim_by_termination(active, target_vcpu))
            else:
                # node-grouped so the freed CPU is usable for placements
                shrink.extend(
                    reclamation.reclaim_by_deflation_grouped(
                        active, target_vcpu, cfg.tau, cfg.deflation_step
                    )
                )
        return shrink, grow

    if current < target_vcpu - 1e-9:
        gap = target_vcpu - current
        if cfg.inflation_enabled:
            inflations = reclamation.plan_inflation(active, target_vcpu, cfg.deflation_step)
            for act in inflations:
                cont = next(c for c in active if c.id == act.container_id)
                gap -= (act.fraction - cont.cpu_fraction) * cont.standard_vcpu
                grow.append(act)
        for c in sorted(lazy, key=lambda c: (-c.allocated_vcpu, c.id)):
            if gap < VCPU_QUANTUM:
                break
            grow.append(UnmarkLazy(c.id))
            gap -= c.allocated_vcpu
        n_create = int(math.floor(gap / spec.vcpu + 1e-9))
        grow.extend(CreateContainer(spec.id) for _ in range(n_create))
    return shrink, grow


def plan_epoch(cluster, estimates: dict, specs: dict, cfg: ControllerConfig) -> EpochPlan:
    """Compute one epoch's allocation plan over an immutable cluster snapshot.

    Per-function sizing is independent (parallel-safe); the fair-share
    adjustment is the single global step once all demands are known.
    """
    weights = {fid: s.weight for fid, s in specs.items()}
    capacity = cluster.capacity_vcpu
    guar = fairshare.guaranteed_shares(weights, capacity, quantum=VCPU_QUANTUM)

    entries = {}
    demands = {}
    keeps = {}
    extras = {}
    for fid in sorted(specs):
        spec = specs[fid]
        containers = cluster.of_function(fid)
        active = [c for c in containers if not c.lazy_marked]
        rate = max(0.0, estimates.get(fid, 0.0))
        infeasible = False
        if rate <= 0:
            keep = [c.id for c in sorted(active, key=lambda c: (-c.allocated_vcpu, c.id))][
                : spec.min_containers
            ]
            extra = max(0, spec.min_containers - len(active))
            demand = len(keep) * spec.vcpu + extra * spec.vcpu
        else:
            try:
                keep, extra, demand = required_pool(spec, active, rate, cfg)
            except InfeasibleDeadline:
                # no container count can meet the SLO; hold the fair share
                infeasible = True
                keep = [c.id for c in active]
                extra = 0
                demand = guar[fid]
        demands[fid] = demand
        keeps[fid] = keep
        extras[fid] = extra
        entries[fid] = PlanEntry(
            function_id=fid,
            rate_estimate=rate,
            c_active=len(active),
            c_new=len(keep) + extra,
            demand_vcpu=demand,
            target_vcpu=demand,
            guar_vcpu=guar[fid],
            infeasible=infeasible,
        )

    share = fairshare.adjust_allocations(demands, weights, capacity, quantum=VCPU_QUANTUM)
    for fid, entry in entries.items():
        entry.target_vcpu = share.adjusted[fid] if share.overloaded else demands[fid]
        containers = cluster.of_function(fid)
        entry.shrink, entry.grow = reconcile(
            specs[fid], containers, entry.target_vcpu, share.overloaded, cfg
        )
    return EpochPlan(overloaded=share.overloaded, entries=entries)
