"""Deterministic discrete-event simulation of the edge cluster.

Requests arrive per function, wait in a per-function FCFS queue when no ready
container is idle, and are dispatched to an idle container chosen by smooth
weighted round robin (weight = allocated vCPU). Containers serve one request
at a time; a container's private queue is therefore just its in-service
request, and terminating a busy container reruns exactly that request.
Controller planning fires on epoch ticks, rate estimation on estimator ticks.

Event ordering at equal timestamps is fixed (completions, then arrivals, then
container-ready, then estimator ticks, then epoch ticks, then sequence
number), which together with per-stream seeded RNGs makes runs bit-identical
for equal (scenario, seed).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from . import workload
from .allocator import (
    ControllerConfig,
    CreateContainer,
    MarkLazy,
    UnmarkLazy,
    VCPU_QUANTUM,
    place,
    plan_epoch,
)
from .cluster import ClusterState
from .errors import NoCapacity
from .reclamation import ContainerState, SetFraction, Terminate

EV_COMPLETE, EV_ARRIVAL, EV_READY, EV_ESTIMATOR, EV_EPOCH = range(5)


@dataclass
class Request:
    function_id: str
    arrival: float
    reruns: int = 0
    dispatch: float = float("nan")
    completion: float = float("nan")
    container_id: int = -1
    status: str = "inflight"


def wrr_weight_units(container) -> int:
    return max(1, int(round(container.allocated_vcpu / VCPU_QUANTUM)))


def dispatch_wrr(candidates, state: dict) -> int:
    """Smooth weighted round robin over the candidate containers.

    Over any W consecutive picks (W = total integerised weight) each
    candidate is chosen in proportion to its weight, and the pick sequence is
    maximally interleaved. Ties go to the lowest container id.
    """
    total = 0
    for c in candidates:
        state[c.id] = state.get(c.id, 0) + wrr_weight_units(c)
        total += wrr_weight_units(c)
    chosen = max(candidates, key=lambda c: (state[c.id], -c.id))
    state[chosen.id] -= total
    return chosen.id


def pick_slowest_idle(candidates) -> int:
    """Worst-case dispatch: slowest idle container first (validation mode)."""
    return min(candidates, key=lambda c: (c.effective_rate, c.id)).id


@dataclass
class _FnRuntime:
    spec: object
    arrivals: np.ndarray
    service_rng: np.random.Generator
    estimator: workload.RateEstimator
    pending: list = field(default_factory=list)
    wrr_state: dict = field(default_factory=dict)
    next_arrival: int = 0


@dataclass
class EpochRecord:
    epoch: int
    time: float
    function_id: str
    rate_estimate: float
    c_active: int
    c_lazy: int
    c_new: int
    demand_vcpu: float
    target_vcpu: float
    guar_vcpu: float
    alloc_vcpu: float
    overloaded: bool
    infeasible: bool
    creates: int = 0
    terminates: int = 0
    marks: int = 0
    unmarks: int = 0
    deflates: int = 0
    inflates: int = 0
    create_failures: int = 0


class SimMetrics:
    """Per-request records, per-epoch allocation records, utilization totals."""

    def __init__(self, horizon: float, capacity_vcpu: float):
        self.horizon = horizon
        self.capacity_vcpu = capacity_vcpu
        self.requests: list = []
        self.epochs: list = []
        self.busy_vcpu_time = 0.0
        self.allocated_vcpu_time = 0.0
        self.cold_starts = 0
        self.reruns = 0
        self.create_failures = 0

    @property
    def utilization(self) -> float:
        denom = self.capacity_vcpu * self.horizon
        return self.busy_vcpu_time / denom if denom > 0 else 0.0

    @property
    def allocated_utilization(self) -> float:
        denom = self.capacity_vcpu * self.horizon
        return self.allocated_vcpu_time / denom if denom > 0 else 0.0

    def counts(self, function_id=None) -> dict:
        out = {"generated": 0, "completed": 0, "inflight": 0, "dropped": 0}
        for r in self.requests:
            if function_id is None or r.function_id == function_id:
                out["generated"] += 1
                out[r.status] += 1
        return out


class Simulation:
    def __init__(self, scenario, seed=None):
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.cfg: ControllerConfig = scenario.controller
        self.cluster = ClusterState(nodes=list(scenario.nodes))
        self.horizon = scenario.horizon_s
        self.worst_case_dispatch = scenario.dispatch == "worst_case"
        self.metrics = SimMetrics(self.horizon, self.cluster.capacity_vcpu)

        self._events: list = []
        self._seq = 0
        self._container_seq = 0
        self._now = 0.0
        self._busy: dict = {}  # container_id -> (request, since, service_seq)
        self._service_seq = 0
        self._alloc_since: dict = {}  # container_id -> (time, vcpu)
        self._ready_ids: set = set()

        ss = np.random.SeedSequence(self.seed)
        fids = sorted(scenario.functions)
        children = ss.spawn(2 * len(fids))
        self.functions: dict = {}
        for i, fid in enumerate(fids):
            fspec = scenario.functions[fid]
            arrivals = workload.generate_arrivals(
                scenario.workloads[fid], self.horizon, children[i]
            )
            est = workload.RateEstimator(**scenario.estimator_params)
            self.functions[fid] = _FnRuntime(
                spec=fspec,
                arrivals=arrivals,
                service_rng=np.random.default_rng(children[len(fids) + i]),
                estimator=est,
            )

    # -- event plumbing -----------------------------------------------------

    def _push(self, time: float, kind: int, payload):
        self._seq += 1
        heapq.heappush(self._events, (time, kind, self._seq, payload))

    def run(self) -> SimMetrics:
        for fid in sorted(self.functions):
            rt = self.functions[fid]
            if len(rt.arrivals):
                self._push(float(rt.arrivals[0]), EV_ARRIVAL, fid)
            for fraction in self.scenario.initial_fractions.get(fid, []):
                self._create_container(0.0, rt.spec, fraction=fraction, cold_start=0.0)
        self._est_tick = float(self.scenario.estimator_params.get("tick", 5.0))
        self._push(self._est_tick, EV_ESTIMATOR, None)
        if self.cfg.epoch_s > 0:
            self._push(self.cfg.epoch_s, EV_EPOCH, 0)

        while self._events:
            time, kind, _, payload = heapq.heappop(self._events)
            if time > self.horizon:
                break
            self._now = time
            if kind == EV_COMPLETE:
                self._on_complete(time, payload)
            elif kind == EV_ARRIVAL:
                self._on_arrival(time, payload)
            elif kind == EV_READY:
                self._on_ready(time, payload)
            elif kind == EV_ESTIMATOR:
                self._on_estimator(time)
            else:
                self._on_epoch(time, payload)

        self._finalize()
        return self.metrics

    # -- request lifecycle --------------------------------------------------

    def _idle_ready(self, fid: str) -> list:
        return [
            c
            for c in self.cluster.of_function(fid)
            if c.id in self._ready_ids and c.id not in self._busy
        ]

    def _on_arrival(self, time: float, fid: str):
        rt = self.functions[fid]
        rt.estimator.observe(time)
        req = Request(function_id=fid, arrival=time)
        self.metrics.requests.append(req)
        rt.next_arrival += 1
        if rt.next_arrival < len(rt.arrivals):
            self._push(float(rt.arrivals[rt.next_arrival]), EV_ARRIVAL, fid)
        idle = self._idle_ready(fid)
        if idle:
            self._start_service(time, self._select(rt, idle), req)
        else:
            rt.pending.append(req)

    def _select(self, rt: _FnRuntime, idle: list):
        if self.worst_case_dispatch:
            chosen = pick_slowest_idle(idle)
        else:
            chosen = dispatch_wrr(idle, rt.wrr_state)
        return self.cluster.containers[chosen]

    def _start_service(self, time: float, container, req: Request):
        spec = self.functions[req.function_id].spec
        req.dispatch = time
        req.container_id = container.id
        base = self._sample_service(req.function_id)
        duration = base / spec.profile.multiplier(container.cpu_fraction)
        self._service_seq += 1
        self._busy[container.id] = (req, time, self._service_seq)
        self._push(time + duration, EV_COMPLETE, (container.id, self._service_seq))

    def _sample_service(self, fid: str) -> float:
        rt = self.functions[fid]
        prof = rt.spec.profile
        if prof.distribution == "deterministic":
            return 1.0 / prof.base_rate
        if prof.distribution == "exponential":
            return float(rt.service_rng.exponential(1.0 / prof.base_rate))
        idx = int(rt.service_rng.integers(len(prof.samples)))
        return prof.samples[idx]

    def _on_complete(self, time: float, payload):
        container_id, seq = payload
        entry = self._busy.get(container_id)
        if entry is None or entry[2] != seq:
            return  # container terminated or request rerun elsewhere
        req, since, _ = entry
        del self._busy[container_id]
        container = self.cluster.containers[container_id]
        self.metrics.busy_vcpu_time += (time - since) * container.allocated_vcpu
        req.completion = time
        req.status = "completed"
        self._drain_pending(time, req.function_id, container)

    def _drain_pending(self, time: float, fid: str, container):
        rt = self.functions[fid]
        while rt.pending:
            req = rt.pending.pop(0)
            timeout = rt.spec.timeout_s
            if timeout is not None and time - req.arrival > timeout:
                req.status = "dropped"
                continue
            self._start_service(time, container, req)
            return

    def _on_ready(self, time: float, container_id: int):
        container = self.cluster.containers.get(container_id)
        if container is None:
            return  # terminated before warming up
        self._ready_ids.add(container_id)
        self._drain_pending(time, container.function_id, container)

    # -- controller hooks ----------------------------------------------------

    def _on_estimator(self, time: float):
        for fid in sorted(self.functions):
            self.functions[fid].estimator.update(time)
        nxt = time + self._est_tick
        if nxt <= self.horizon:
            self._push(nxt, EV_ESTIMATOR, None)

    def _on_epoch(self, time: float, epoch_idx: int):
        estimates = {fid: rt.estimator.value for fid, rt in self.functions.items()}
        specs = {fid: rt.spec for fid, rt in self.functions.items()}
        plan = plan_epoch(self.cluster, estimates, specs, self.cfg)

        counters = {fid: EpochRecord(
            epoch=epoch_idx, time=time, function_id=fid,
            rate_estimate=e.rate_estimate, c_active=e.c_active,
            c_lazy=sum(1 for c in self.cluster.of_function(fid) if c.lazy_marked),
            c_new=e.c_new, demand_vcpu=e.demand_vcpu, target_vcpu=e.target_vcpu,
            guar_vcpu=e.guar_vcpu, alloc_vcpu=0.0, overloaded=plan.overloaded,
            infeasible=e.infeasible,
        ) for fid, e in plan.entries.items()}

        for fid in sorted(plan.entries):
            for action in plan.entries[fid].shrink:
                self._apply(time, fid, action, counters[fid])
        for fid in sorted(plan.entries):
            for action in plan.entries[fid].grow:
                self._apply(time, fid, action, counters[fid])

        for fid, rec in counters.items():
            active = [c for c in self.cluster.of_function(fid) if not c.lazy_marked]
            rec.alloc_vcpu = sum(c.allocated_vcpu for c in active)
            rec.c_active = len(active)
            rec.c_lazy = sum(1 for c in self.cluster.of_function(fid) if c.lazy_marked)
            self.metrics.epochs.append(rec)

        nxt = time + self.cfg.epoch_s
        if nxt <= self.horizon:
            self._push(nxt, EV_EPOCH, epoch_idx + 1)

    def _apply(self, time: float, fid: str, action, rec: EpochRecord):
        if isinstance(action, Terminate):
            if self._terminate(time, action.container_id):
                rec.terminates += 1
        elif isinstance(action, SetFraction):
            before = self.cluster.containers[action.container_id].cpu_fraction
            self._set_fraction(time, action.container_id, action.fraction)
            after = self.cluster.containers[action.container_id].cpu_fraction
            if after < before - 1e-12:
                rec.deflates += 1
            elif after > before + 1e-12:
                rec.inflates += 1
        elif isinstance(action, MarkLazy):
            self.cluster.containers[action.container_id].lazy_marked = True
            rec.marks += 1
        elif isinstance(action, UnmarkLazy):
            self.cluster.containers[action.container_id].lazy_marked = False
            rec.unmarks += 1
        elif isinstance(action, CreateContainer):
            spec = self.functions[fid].spec
            try:
                self._create_container(time, spec)
                rec.creates += 1
            except NoCapacity:
                # reclaim lazy surplus cluster-wide, then retry once
                for lazy in self.cluster.lazy_marked():
                    self._terminate(time, lazy.id)
                try:
                    self._create_container(time, spec)
                    rec.creates += 1
                except NoCapacity:
                    rec.create_failures += 1
                    self.metrics.create_failures += 1

    def _create_container(self, time: float, spec, fraction: float = 1.0, cold_start=None):
        node_id = place(spec.vcpu * fraction, spec.memory_mb, self.cluster)
        delay = spec.cold_start_s if cold_start is None else cold_start
        self._container_seq += 1
        container = ContainerState(
            function_id=spec.id,
            node_id=node_id,
            standard_vcpu=spec.vcpu,
            memory_mb=spec.memory_mb,
            profile=spec.profile,
            cpu_fraction=fraction,
            ready_at=time + delay,
            id=self._container_seq,
        )
        self.cluster.add(container)
        self._alloc_since[container.id] = (time, container.allocated_vcpu)
        if delay > 0:
            self.metrics.cold_starts += 1
            self._push(container.ready_at, EV_READY, container.id)
        else:
            self._ready_ids.add(container.id)
            self._drain_pending(time, spec.id, container)
        return container

    def _terminate(self, time: float, container_id: int) -> bool:
        container = self.cluster.containers.get(container_id)
        if container is None:
            return False
        entry = self._busy.pop(container_id, None)
        if entry is not None:
            req, since, _ = entry
            self.metrics.busy_vcpu_time += (time - since) * container.allocated_vcpu
            req.reruns += 1
            req.dispatch = float("nan")
            req.container_id = -1
            self.metrics.reruns += 1
            self.functions[req.function_id].pending.insert(0, req)
        since, vcpu = self._alloc_since.pop(container_id)
        self.metrics.allocated_vcpu_time += (time - since) * vcpu
        self._ready_ids.discard(container_id)
        self.cluster.remove(container_id)
        # an idle sibling may be able to pick up the rerun right away
        rt = self.functions[container.function_id]
        if rt.pending:
            idle = self._idle_ready(container.function_id)
            if idle:
                self._drain_pending(time, container.function_id, self._select(rt, idle))
        return True

    def _set_fraction(self, time: float, container_id: int, fraction: float):
        container = self.cluster.containers[container_id]
        if fraction > container.cpu_fraction:
            # inflation consumes node headroom; clamp to what the node has,
            # staying on the deflation-step grid
            free_cpu, _ = self.cluster.node_free(container.node_id)
            room = container.cpu_fraction + free_cpu / container.standard_vcpu
            if room < fraction:
                step = self.cfg.deflation_step
                steps = int((room - container.cpu_fraction) / step + 1e-9)
                fraction = container.cpu_fraction + steps * step
                if fraction <= container.cpu_fraction:
                    return
        since, vcpu = self._alloc_since[container_id]
        self.metrics.allocated_vcpu_time += (time - since) * vcpu
        entry = self._busy.get(container_id)
        if entry is not None:
            req, busy_since, seq = entry
            self.metrics.busy_vcpu_time += (time - busy_since) * container.allocated_vcpu
            self._busy[container_id] = (req, time, seq)
        container.cpu_fraction = fraction
        self._alloc_since[container_id] = (time, container.allocated_vcpu)

    def _finalize(self):
        end = self.horizon
        for cid, (since, vcpu) in self._alloc_since.items():
            self.metrics.allocated_vcpu_time += (end - since) * vcpu
        for cid, (req, since, _) in self._busy.items():
            container = self.cluster.containers[cid]
            self.metrics.busy_vcpu_time += (end - since) * container.allocated_vcpu


def run(scenario, seed=None) -> SimMetrics:
    """Simulate a scenario to its horizon; deterministic for equal inputs."""
    return Simulation(scenario, seed=seed).run()
