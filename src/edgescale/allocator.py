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
from .errors import CapExceeded, InfeasibleDeadline, NoCapacity
from .queuing import WaitTarget
from .reclamation import VCPU_QUANTUM


@dataclass(frozen=True)
class SloPolicy:
    """Latency goal for one function.

    `applies_to` selects whether `deadline` bounds waiting time directly
    (the usual reading for queueing SLOs) or the full response time, in which
    case the waiting budget is deadline minus the service-time tail.
    """

    deadline: float
    percentile: float
    applies_to: str  # "waiting" or "response"

    def wait_target(self, profile) -> WaitTarget:
        if self.applies_to == "response":
            return queuing.wait_budget(self.deadline, profile, self.percentile)
        return WaitTarget(t=self.deadline, percentile=self.percentile)


@dataclass(frozen=True)
class FunctionSpec:
    id: str
    weight: float
    slo: SloPolicy
    vcpu: float
    memory_mb: float
    profile: reclamation.ServiceProfile
    cold_start_s: float
    min_containers: int
    timeout_s: float | None  # hard drop limit on waiting; None drops nothing


@dataclass(frozen=True)
class CreateContainer:
    function_id: str


@dataclass(frozen=True)
class SetLazy:
    container_id: int
    marked: bool


@dataclass
class EpochRecord:
    """One function's decisions and outcome in one epoch.

    `plan_epoch` fills the sizing fields (`rate_estimate`, `c_new`,
    `demand_vcpu`, `target_vcpu`, `guar_vcpu`, `infeasible`), `overloaded`
    and the planned `shrink`/`grow` actions. The simulator sets `epoch` and
    `time`, applies the actions and counts them in the counters, then fills
    `c_active`, `c_lazy` and `alloc_vcpu` from the pool it left.
    `infeasible` says that no pool of at most `DEFAULT_CONTAINER_CAP`
    containers meets the SLO; the demand is then the stable pool, or the
    guarantee when larger, up to the capacity and to the vCPU of
    `DEFAULT_CONTAINER_CAP` containers. The counters and the actions
    start empty and are no constructor arguments.
    """

    function_id: str
    rate_estimate: float
    c_new: int
    demand_vcpu: float
    target_vcpu: float
    guar_vcpu: float
    infeasible: bool
    overloaded: bool = False
    epoch: int = 0
    time: float = 0.0
    c_active: int = 0
    c_lazy: int = 0
    alloc_vcpu: float = 0.0
    creates: int = field(default=0, init=False)
    terminates: int = field(default=0, init=False)
    marks: int = field(default=0, init=False)
    unmarks: int = field(default=0, init=False)
    deflates: int = field(default=0, init=False)
    inflates: int = field(default=0, init=False)
    create_failures: int = field(default=0, init=False)
    shrink: list = field(default_factory=list, init=False)
    grow: list = field(default_factory=list, init=False)


@dataclass(frozen=True)
class ControllerConfig:
    epoch_s: float
    reclamation_mode: str  # "deflation" or "termination"
    tau: float
    deflation_step: float
    inflation_enabled: bool


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

    Returns (c_new, demand_vcpu): the pool's container count after this
    epoch's sizing, and its demand in vCPU. A zero rate needs no containers,
    and no pool is sized below `spec.min_containers`.

    With inflation enabled, a deflated pool is restorable to full size at no
    cost, so demand is always full-size equivalents from the homogeneous
    model. With inflation disabled (the measure-the-heterogeneous-model
    configuration), a deflated pool is sized with the worst-case
    heterogeneous model, which only adds standard containers; shrinking is
    probed by dropping the smallest members while the target still holds.
    """
    kept, extra = [], 0
    if rate > 0:
        target = spec.slo.wait_target(spec.profile)
        base_rate = spec.profile.base_rate
        if cfg.inflation_enabled or all(abs(c.cpu_fraction - 1.0) < 1e-12 for c in active):
            extra = queuing.find_c_homogeneous(rate, base_rate, target)
        else:
            rates = sorted(c.effective_rate for c in active)
            extra = queuing.find_c_heterogeneous(rate, rates, base_rate, target)
            kept = reclamation.by_allocation(active)
            # probe shrinking: drop smallest-capacity members while the target
            # holds (the additive heterogeneous search never scales down)
            while extra == 0 and len(kept) > max(1, spec.min_containers):
                if not queuing.meets_target(rate, [c.effective_rate for c in kept[1:]], target):
                    break
                kept = kept[1:]
    extra = max(extra, spec.min_containers - len(kept))
    # summed in `active` order, which fixes the float result
    ids = {c.id for c in kept}
    demand = sum(c.allocated_vcpu for c in active if c.id in ids)
    return len(kept) + extra, demand + extra * spec.vcpu


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
            freed = 0.0
            for c in reclamation.by_allocation(active):
                if current - freed - c.allocated_vcpu < target_vcpu - 1e-9:
                    break
                shrink.append(SetLazy(c.id, True))
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
            grow.append(SetLazy(c.id, False))
            gap -= c.allocated_vcpu
        n_create = int(math.floor(gap / spec.vcpu + 1e-9))
        grow.extend(CreateContainer(spec.id) for _ in range(n_create))
    return shrink, grow


def plan_epoch(cluster, estimates: dict, specs: dict, cfg: ControllerConfig) -> dict:
    """Compute one epoch's allocation plan over an immutable cluster snapshot.

    Returns {function_id: EpochRecord} with the sizing fields and actions
    filled. Per-function sizing is independent (parallel-safe); the
    fair-share adjustment is the single global step once all demands are
    known.
    """
    weights = {fid: s.weight for fid, s in specs.items()}
    capacity = cluster.capacity_vcpu
    guar = fairshare.guaranteed_shares(weights, capacity)

    records = {}
    pools = {}
    for fid in sorted(specs):
        spec = specs[fid]
        pools[fid] = cluster.of_function(fid)
        active = [c for c in pools[fid] if not c.lazy_marked]
        rate = max(0.0, estimates.get(fid, 0.0))
        infeasible = False
        try:
            c_new, demand = required_pool(spec, active, rate, cfg)
        except (InfeasibleDeadline, CapExceeded):
            # no pool within the cap meets the SLO: ask for the stable pool,
            # or the guarantee when larger, in at most the cap's containers;
            # fair share decides under overload
            infeasible = True
            try:
                stable = queuing.min_stable_count(rate, spec.profile.base_rate) * spec.vcpu
            except CapExceeded:
                stable = capacity
            demand = min(capacity, max(guar[fid], stable),
                         queuing.DEFAULT_CONTAINER_CAP * spec.vcpu)
            c_new = int(math.floor(demand / spec.vcpu + 1e-9))
        records[fid] = EpochRecord(
            function_id=fid,
            rate_estimate=rate,
            c_new=c_new,
            demand_vcpu=demand,
            target_vcpu=demand,
            guar_vcpu=guar[fid],
            infeasible=infeasible,
        )

    demands = {fid: rec.demand_vcpu for fid, rec in records.items()}
    share = fairshare.adjust_allocations(demands, weights, guar, capacity)
    for fid, rec in records.items():
        rec.overloaded = share.overloaded
        rec.target_vcpu = share.adjusted[fid]
        rec.shrink, rec.grow = reconcile(
            specs[fid], pools[fid], rec.target_vcpu, share.overloaded, cfg
        )
    return records
