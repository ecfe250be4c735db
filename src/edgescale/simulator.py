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

Arrivals and completions cost the same however many containers run, and
cost few interpreter steps, because tracked state replaces per-request scans
and lookups:

- Each function's `idle` index holds its ready, not-busy containers. A
  container enters it when it becomes ready (`_on_ready`, or
  `_create_container` with no cold start) and when its service completes
  (`_on_complete`); it leaves when service starts (`_start_service`) or it is
  terminated (`_terminate`). Dispatch policies break ties on container id, so
  the index's order does not matter.
- Two per-container caches sit side by side, keyed by container id: the
  service multiplier, computed by `ServiceProfile.multiplier` on first use,
  and the WRR weight units, computed by `wrr_weight_units` when the container
  is created, so that `dispatch_wrr` reads them. Only `_set_fraction` changes
  `cpu_fraction`; it drops the multiplier and recomputes the units.
  `_terminate` drops both.
- Service times are drawn in blocks of `BLOCK` per function from that
  function's own RNG stream. `run` gives each function one buffer, and
  `refill_draws` overwrites it with one numpy call once it has been read
  through. A block holds exactly the values that `BLOCK` scalar draws
  (`exponential(1 / rate)`, or `integers(k)` indexing the empirical samples)
  would give, so outputs do not depend on the block size.
- An arrival event carries its function's `_FnRuntime`, not the function id,
  so the request path (`_on_arrival`, `_start_service`, `_drain_pending`)
  never looks the function up. Each function has at most one arrival on the
  heap: handling it pushes the next one, read from the arrival array. A
  completion event likewise carries its container, not the container id.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import workload
from .allocator import (
    ControllerConfig,
    CreateContainer,
    EpochRecord,
    MarkLazy,
    UnmarkLazy,
    VCPU_QUANTUM,
    place,
    plan_epoch,
)
from .cluster import ClusterState
from .errors import ConfigError, NoCapacity
from .reclamation import ContainerState, SetFraction, Terminate

EV_COMPLETE, EV_ARRIVAL, EV_READY, EV_ESTIMATOR, EV_EPOCH = range(5)
BLOCK = 4096  # service times drawn per RNG call


@dataclass(slots=True)
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


def dispatch_wrr(candidates, state: dict, units: dict | None = None) -> int:
    """Smooth weighted round robin over the candidate containers.

    Over any W consecutive picks (W = total integerised weight) each
    candidate is chosen in proportion to its weight, and the pick sequence is
    maximally interleaved. Ties go to the lowest container id. A candidate's
    weight is `units[c.id]`; the simulator passes its per-container cache of
    `wrr_weight_units`, kept current as fractions change. Without `units`
    the weights are computed from the candidates.
    """
    if units is None:
        units = {c.id: wrr_weight_units(c) for c in candidates}
    total = 0
    chosen = None
    for c in candidates:
        weight = units[c.id]
        current = state[c.id] = state.get(c.id, 0) + weight
        total += weight
        if chosen is None or current > best or (current == best and c.id < chosen.id):
            chosen, best = c, current
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
    pending: deque = field(default_factory=deque)
    idle: dict = field(default_factory=dict)  # container_id -> ready, not-busy container
    wrr_state: dict = field(default_factory=dict)
    next_arrival: int = 0
    draws: np.ndarray | None = None  # a block of service times, allocated by `run`
    next_draw: int = BLOCK  # index of the next unread draw in `draws`

    def refill_draws(self):
        """Overwrite `draws` with the next `BLOCK` service times at full container size."""
        prof, out = self.spec.profile, self.draws
        if prof.distribution == "exponential":
            self.service_rng.standard_exponential(out=out)
            out *= 1.0 / prof.base_rate
        elif prof.distribution == "empirical":
            np.take(prof.samples, self.service_rng.integers(len(prof.samples), size=BLOCK),
                    out=out)
        else:
            out.fill(1.0 / prof.base_rate)
        self.next_draw = 0


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
        self._busy: dict = {}  # container_id -> (request, since)
        self._alloc_since: dict = {}  # container_id -> (time, vcpu)
        self._multiplier: dict = {}  # container_id -> service rate multiplier
        self._units: dict = {}  # container_id -> WRR weight units

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
            # refilled in place, so the run allocates no more blocks
            rt.draws = np.empty(BLOCK)
            if len(rt.arrivals):
                self._push(rt.arrivals.item(0), EV_ARRIVAL, rt)
            for i, fraction in enumerate(self.scenario.initial_fractions.get(fid, [])):
                try:
                    self._create_container(0.0, rt.spec, fraction=fraction, cold_start=0.0)
                except NoCapacity as exc:
                    raise ConfigError(
                        f"functions.{fid}.initial_containers: container {i + 1}: {exc}"
                    ) from None
        self._est_tick = self.scenario.estimator_params["tick"]
        self._push(self._est_tick, EV_ESTIMATOR, None)
        if self.cfg.epoch_s > 0:
            self._push(self.cfg.epoch_s, EV_EPOCH, 0)

        while self._events:
            time, kind, _, payload = heapq.heappop(self._events)
            if time > self.horizon:
                break
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

    def _on_arrival(self, time: float, rt: _FnRuntime):
        req = Request(function_id=rt.spec.id, arrival=time)
        self.metrics.requests.append(req)
        i = rt.next_arrival = rt.next_arrival + 1
        if i < len(rt.arrivals):
            self._seq += 1
            heapq.heappush(self._events, (rt.arrivals.item(i), EV_ARRIVAL, self._seq, rt))
        if rt.idle:
            self._start_service(time, rt, self._select(rt), req)
        else:
            rt.pending.append(req)

    def _select(self, rt: _FnRuntime):
        if self.worst_case_dispatch:
            chosen = pick_slowest_idle(rt.idle.values())
        else:
            chosen = dispatch_wrr(rt.idle.values(), rt.wrr_state, self._units)
        return rt.idle[chosen]

    def _start_service(self, time: float, rt: _FnRuntime, container, req: Request):
        cid = container.id
        del rt.idle[cid]
        req.dispatch = time
        req.container_id = cid
        if rt.next_draw == BLOCK:
            rt.refill_draws()
        i = rt.next_draw
        rt.next_draw = i + 1
        multiplier = self._multiplier.get(cid)
        if multiplier is None:
            multiplier = self._multiplier[cid] = rt.spec.profile.multiplier(container.cpu_fraction)
        self._busy[cid] = (req, time)
        self._seq += 1
        heapq.heappush(self._events,
                       (time + rt.draws.item(i) / multiplier, EV_COMPLETE, self._seq, container))

    def _on_complete(self, time: float, container):
        # ids are never reused and only termination cancels a service, so a
        # completion whose container serves nothing belongs to a terminated one
        container_id = container.id
        entry = self._busy.pop(container_id, None)
        if entry is None:
            return
        req, since = entry
        self.metrics.busy_vcpu_time += (time - since) * container.allocated_vcpu
        req.completion = time
        req.status = "completed"
        rt = self.functions[req.function_id]
        rt.idle[container_id] = container
        if rt.pending:
            self._drain_pending(time, rt, container)

    def _drain_pending(self, time: float, rt: _FnRuntime, container):
        timeout = rt.spec.timeout_s
        while rt.pending:
            req = rt.pending.popleft()
            if timeout is not None and time - req.arrival > timeout:
                req.status = "dropped"
                continue
            self._start_service(time, rt, container, req)
            return

    def _on_ready(self, time: float, container_id: int):
        container = self.cluster.containers.get(container_id)
        if container is None:
            return  # terminated before warming up
        rt = self.functions[container.function_id]
        rt.idle[container_id] = container
        self._drain_pending(time, rt, container)

    # -- controller hooks ----------------------------------------------------

    def _on_estimator(self, time: float):
        for fid in sorted(self.functions):
            rt = self.functions[fid]
            rt.estimator.update(rt.arrivals, time)
        nxt = time + self._est_tick
        if nxt <= self.horizon:
            self._push(nxt, EV_ESTIMATOR, None)

    def _on_epoch(self, time: float, epoch_idx: int):
        estimates = {fid: rt.estimator.value for fid, rt in self.functions.items()}
        specs = {fid: rt.spec for fid, rt in self.functions.items()}
        records = plan_epoch(self.cluster, estimates, specs, self.cfg)
        for fid in sorted(records):
            for action in records[fid].shrink:
                self._apply(time, fid, action, records[fid])
        for fid in sorted(records):
            for action in records[fid].grow:
                self._apply(time, fid, action, records[fid])

        for fid, rec in records.items():
            rec.epoch, rec.time = epoch_idx, time
            pool = self.cluster.of_function(fid)
            active = [c for c in pool if not c.lazy_marked]
            rec.alloc_vcpu = sum(c.allocated_vcpu for c in active)
            rec.c_active = len(active)
            rec.c_lazy = len(pool) - len(active)
            self.metrics.epochs.append(rec)

        nxt = time + self.cfg.epoch_s
        if nxt <= self.horizon:
            self._push(nxt, EV_EPOCH, epoch_idx + 1)

    def _apply(self, time: float, fid: str, action, rec: EpochRecord):
        if not isinstance(action, CreateContainer):
            container = self.cluster.containers.get(action.container_id)
            if container is None:
                return  # reclaimed this epoch by a create's lazy-surplus retry
        if isinstance(action, Terminate):
            self._terminate(time, action.container_id)
            rec.terminates += 1
        elif isinstance(action, SetFraction):
            before = container.cpu_fraction
            self._set_fraction(time, action.container_id, action.fraction)
            if container.cpu_fraction < before - 1e-12:
                rec.deflates += 1
            elif container.cpu_fraction > before + 1e-12:
                rec.inflates += 1
        elif isinstance(action, MarkLazy):
            container.lazy_marked = True
            rec.marks += 1
        elif isinstance(action, UnmarkLazy):
            container.lazy_marked = False
            rec.unmarks += 1
        else:
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
            id=self._container_seq,
        )
        self.cluster.add(container)
        self._alloc_since[container.id] = (time, container.allocated_vcpu)
        self._units[container.id] = wrr_weight_units(container)
        if delay > 0:
            self.metrics.cold_starts += 1
            self._push(time + delay, EV_READY, container.id)
        else:
            rt = self.functions[spec.id]
            rt.idle[container.id] = container
            self._drain_pending(time, rt, container)

    def _terminate(self, time: float, container_id: int):
        container = self.cluster.containers[container_id]
        entry = self._busy.pop(container_id, None)
        if entry is not None:
            req, since = entry
            self.metrics.busy_vcpu_time += (time - since) * container.allocated_vcpu
            req.reruns += 1
            req.dispatch = float("nan")
            req.container_id = -1
            self.metrics.reruns += 1
            self.functions[req.function_id].pending.appendleft(req)
        since, vcpu = self._alloc_since.pop(container_id)
        self.metrics.allocated_vcpu_time += (time - since) * vcpu
        rt = self.functions[container.function_id]
        rt.idle.pop(container_id, None)
        self._multiplier.pop(container_id, None)
        del self._units[container_id]
        self.cluster.remove(container_id)
        # an idle sibling may be able to pick up the rerun right away
        if rt.pending and rt.idle:
            self._drain_pending(time, rt, self._select(rt))

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
                fraction = min(fraction, container.cpu_fraction + steps * step)
                if fraction <= container.cpu_fraction:
                    return
        since, vcpu = self._alloc_since[container_id]
        self.metrics.allocated_vcpu_time += (time - since) * vcpu
        entry = self._busy.get(container_id)
        if entry is not None:
            req, busy_since = entry
            self.metrics.busy_vcpu_time += (time - busy_since) * container.allocated_vcpu
            self._busy[container_id] = (req, time)
        container.cpu_fraction = fraction
        self._multiplier.pop(container_id, None)
        self._units[container_id] = wrr_weight_units(container)
        self._alloc_since[container_id] = (time, container.allocated_vcpu)

    def _finalize(self):
        end = self.horizon
        for cid, (since, vcpu) in self._alloc_since.items():
            self.metrics.allocated_vcpu_time += (end - since) * vcpu
        for cid, (req, since) in self._busy.items():
            container = self.cluster.containers[cid]
            self.metrics.busy_vcpu_time += (end - since) * container.allocated_vcpu


def run(scenario, seed=None) -> SimMetrics:
    """Simulate a scenario to its horizon; deterministic for equal inputs."""
    return Simulation(scenario, seed=seed).run()
