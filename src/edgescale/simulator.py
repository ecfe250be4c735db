"""Deterministic discrete-event simulation of the edge cluster.

Requests arrive per function, wait in a per-function FCFS queue when no ready
container is idle, and are dispatched to an idle container chosen by smooth
weighted round robin (weight = allocated vCPU). Containers serve one request
at a time; a container's private queue is therefore just its in-service
request, and terminating a busy container reruns exactly that request.
Controller planning fires on epoch ticks, rate estimation on estimator ticks.

Between two controller ticks functions do not interact, so each function runs
its own event loop (`_advance`) on its own heap of arrivals, completions and
container-ready events. `run` walks the merged tick schedule (tick times are
built by repeated addition; estimator ticks go before epoch ticks at equal
times): at each tick it advances every function to the tick time, inclusive,
then runs the controller hook. Within a function, events at equal times go
completions, then arrivals, then container-ready, then in push order; with
per-stream seeded RNGs this makes runs bit-identical for equal (scenario,
seed).

`_advance` has one dispatch path. Each pass first hands waiting requests to
idle containers at the current time (dropping those past their timeout),
then handles one event: an arrival joins the queue, a completion or a ready
container joins the idle index. After every event a function's queue or its
idle index is empty, so a container freed while requests wait is the only
idle one, and the head of the queue goes to it.
When a controller action frees a container or queues a rerun, the action
calls `_advance` at the tick time, where only the hand-out has work.

Every function logs its requests in its own list. When the run ends, or
raises, `_merge_requests` moves them into `metrics.requests` by arrival time,
then function id, then arrival index. Arrivals stay heap events, one pending
per function and pushed as the previous one is handled: one loop then orders
every kind of event, and the heap pops still count each arrival and each
completion.
`busy_vcpu_time` is summed per function between ticks, so its last bits
depend on that grouping.

Arrivals and completions cost the same however many containers run, and
cost few interpreter steps, because tracked state replaces per-request scans
and lookups:

- Each function's `idle` index holds its ready, not-busy containers. A
  container enters it when it becomes ready or its service completes, and
  leaves it when service starts or it is terminated (`_terminate`). Dispatch
  policies break ties on container id, so the index's order does not matter;
  a lone idle container is taken without a policy call, which for WRR leaves
  every counter's value as the call would.
- `_units` caches each container's WRR weight units for `dispatch_wrr`. It
  is filled on create, refreshed by `_set_fraction` (the only caller that
  changes `cpu_fraction`) and dropped, with the WRR counter, by
  `_terminate`. A container's vCPU and service multiplier are its own
  attributes.
- Service times are drawn in blocks of `BLOCK` per function from that
  function's own RNG stream: `refill_draws` makes one numpy call once the
  previous block has been read through. A block holds exactly the values
  that `BLOCK` scalar draws (`exponential(1 / rate)`, or `integers(k)`
  indexing the empirical samples) would give, so outputs do not depend on
  the block size.
- Per-request values are read from Python lists: indexing a list costs a
  fifth of `ndarray.item`. The service-time block becomes a list when it is
  drawn, and arrival times are copied from the arrival array `BLOCK` at a
  time (`_FnRuntime.next_slice`). `run` drops both when it ends, so they do
  not outlive it.
- A completion event carries its container, not the container id, so the
  request path never looks a container up.
- A busy container's `_busy` entry is (request, service start), and its
  `_alloc_since` entry the time its allocation last changed. `_set_fraction`
  closes both accounts at the old vCPU and restarts them at the change, so
  a completion charges the container's current vCPU.

`run` pauses Python's cyclic garbage collector and restores the state it
found when it returns or raises. Every request allocates a few tracked
objects (the `Request`, its `_busy` entry, two heap tuples), so the
collector would run every few hundred requests, and its full passes walk
every live request; yet a run frees everything it drops by reference
counting alone, because it builds no reference cycles, and a collection
during a run finds nothing to free. Pausing therefore changes no output and
holds back no memory. `tests/test_simulator.py` checks that a paused run
leaves the collector nothing.
"""
from __future__ import annotations

import gc
import heapq
import itertools
import math
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

EV_COMPLETE, EV_ARRIVAL, EV_READY = range(3)  # event order at equal times
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


def dispatch_wrr(candidates, state: dict, units: dict) -> int:
    """Smooth weighted round robin over the candidate containers.

    Over any W consecutive picks (W = total integerised weight) each
    candidate is chosen in proportion to its weight, and the pick sequence is
    maximally interleaved. Ties go to the lowest container id. A candidate's
    weight is `units[c.id]`; the simulator passes its per-container cache of
    `wrr_weight_units`, kept current as fractions change.
    """
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
    events: list = field(default_factory=list)  # this function's event heap
    seq: itertools.count = field(default_factory=itertools.count)  # heap tie-breaker
    log: list = field(default_factory=list)  # this function's requests, in arrival order
    pending: deque = field(default_factory=deque)
    idle: dict = field(default_factory=dict)  # container_id -> ready, not-busy container
    wrr_state: dict = field(default_factory=dict)
    upcoming: list = field(default_factory=list)  # a slice of `arrivals`, as floats
    next_up: int = 0  # index in `upcoming` of the next arrival to push
    sliced: int = 0  # arrivals copied into slices so far
    draws: list = field(default_factory=list)  # a block of service times, as floats
    next_draw: int = BLOCK  # index of the next unread draw in `draws`

    def next_slice(self) -> list:
        """The next `BLOCK` arrival times as Python floats; fewer, or none, at the end."""
        lo = self.sliced
        self.sliced = lo + BLOCK
        return self.arrivals[lo:lo + BLOCK].tolist()

    def refill_draws(self):
        """Replace `draws` with the next `BLOCK` service times at full container size."""
        prof, rng = self.spec.profile, self.service_rng
        if prof.distribution == "exponential":
            block = rng.standard_exponential(BLOCK)
            block *= 1.0 / prof.base_rate
            self.draws = block.tolist()
        elif prof.distribution == "empirical":
            picks = rng.integers(len(prof.samples), size=BLOCK)
            self.draws = np.take(prof.samples, picks).tolist()
        else:
            self.draws = [1.0 / prof.base_rate] * BLOCK


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
    def __init__(self, scenario):
        self.scenario = scenario
        self.cfg: ControllerConfig = scenario.controller
        self.cluster = ClusterState(nodes=list(scenario.nodes))
        self.horizon = scenario.horizon_s
        self.worst_case_dispatch = scenario.dispatch == "worst_case"
        self.metrics = SimMetrics(self.horizon, self.cluster.capacity_vcpu)

        self._container_seq = 0
        self._busy: dict = {}  # container_id -> (request, service start)
        self._alloc_since: dict = {}  # container_id -> time its allocation last changed
        self._units: dict = {}  # container_id -> WRR weight units

        ss = np.random.SeedSequence(scenario.seed)
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

    # -- event loops ----------------------------------------------------------

    def run(self) -> SimMetrics:
        collecting = gc.isenabled()
        gc.disable()
        try:
            for fid in sorted(self.functions):
                rt = self.functions[fid]
                for i, fraction in enumerate(self.scenario.initial_fractions.get(fid, [])):
                    try:
                        self._create_container(0.0, rt.spec, fraction=fraction, cold_start=0.0)
                    except NoCapacity as exc:
                        raise ConfigError(
                            f"functions.{fid}.initial_containers: container {i + 1}: {exc}"
                        ) from None
                # pushed once the pool is placed, so an arrival at t=0 sees all of it
                rt.upcoming = rt.next_slice()
                if rt.upcoming:
                    heapq.heappush(rt.events, (rt.upcoming[0], EV_ARRIVAL, next(rt.seq), None))
                    rt.next_up = 1

            est_tick, epoch_s = self.scenario.estimator_params["tick"], self.cfg.epoch_s
            next_est, epoch_idx = est_tick, 0
            next_epoch = epoch_s if epoch_s > 0 else math.inf
            while min(next_est, next_epoch) <= self.horizon:
                time = min(next_est, next_epoch)
                for rt in self.functions.values():
                    self._advance(rt, time)
                if next_est <= next_epoch:  # estimator first at equal times
                    self._on_estimator(time)
                    next_est = time + est_tick
                else:
                    self._on_epoch(time, epoch_idx)
                    next_epoch, epoch_idx = time + epoch_s, epoch_idx + 1
            for rt in self.functions.values():
                self._advance(rt, self.horizon)
            self._finalize()
        finally:
            if collecting:
                gc.enable()
            self._merge_requests()
            for rt in self.functions.values():
                rt.upcoming, rt.draws = [], []
        return self.metrics

    def _advance(self, rt: _FnRuntime, until: float):
        """Run one function's events up to `until`, inclusive.

        Each pass first hands waiting requests to idle containers at the
        current time, then handles one event. Called at a controller tick
        after every earlier event is done, only the hand-out runs, at the
        tick time.
        """
        events, pending, idle, log = rt.events, rt.pending, rt.idle, rt.log
        heappush, heappop = heapq.heappush, heapq.heappop
        busy, units, seq = self._busy, self._units, rt.seq
        fid, timeout = rt.spec.id, rt.spec.timeout_s
        upcoming, next_up, draws, next_draw = rt.upcoming, rt.next_up, rt.draws, rt.next_draw
        n_up = len(upcoming)
        busy_time = 0.0
        time = until
        while True:
            while pending and idle:
                # the pick comes first: it advances the WRR counters even
                # when every waiting request turns out to have expired
                if len(idle) == 1:
                    (container,) = idle.values()
                elif self.worst_case_dispatch:
                    container = idle[pick_slowest_idle(idle.values())]
                else:
                    container = idle[dispatch_wrr(idle.values(), rt.wrr_state, units)]
                if timeout is not None:
                    while pending and time - pending[0].arrival > timeout:
                        pending.popleft().status = "dropped"
                    if not pending:
                        break
                req = pending.popleft()
                cid = container.id
                del idle[cid]
                req.dispatch = time
                req.container_id = cid
                if next_draw == BLOCK:
                    rt.refill_draws()
                    draws, next_draw = rt.draws, 0
                busy[cid] = (req, time)
                heappush(events, (time + draws[next_draw] / container.multiplier, EV_COMPLETE,
                                  next(seq), container))
                next_draw += 1
            if not events or events[0][0] > until:
                break
            time, kind, _, payload = heappop(events)
            if kind == EV_COMPLETE:
                # ids are never reused and only termination cancels a service,
                # so a completion whose container serves nothing belongs to a
                # terminated one
                entry = busy.pop(payload.id, None)
                if entry is not None:
                    req, since = entry
                    busy_time += (time - since) * payload.allocated_vcpu
                    req.completion = time
                    req.status = "completed"
                    idle[payload.id] = payload
            elif kind == EV_ARRIVAL:
                req = Request(fid, time)
                log.append(req)
                pending.append(req)
                if next_up == n_up:
                    upcoming, next_up = rt.next_slice(), 0
                    n_up = len(upcoming)
                if next_up < n_up:
                    heappush(events, (upcoming[next_up], EV_ARRIVAL, next(seq), None))
                    next_up += 1
            else:
                container = self.cluster.containers.get(payload)
                if container is not None:  # else terminated before warming up
                    idle[payload] = container
        rt.upcoming, rt.next_up, rt.next_draw = upcoming, next_up, next_draw
        self.metrics.busy_vcpu_time += busy_time

    def _merge_requests(self):
        """Move every function's requests into `metrics.requests`, in arrival order.

        Requests go by arrival time, then function id, then arrival index:
        one stable sort of the functions' arrivals, concatenated in function
        id order.
        """
        rts = [self.functions[fid] for fid in sorted(self.functions)]
        flat = [req for rt in rts for req in rt.log]
        times = np.concatenate([rt.arrivals[:len(rt.log)] for rt in rts])
        order = np.argsort(times, kind="stable")
        # from the array itself: a list of Python ints would raise the peak memory
        self.metrics.requests = list(map(flat.__getitem__, order))
        for rt in rts:
            rt.log = []

    # -- controller hooks ----------------------------------------------------

    def _on_estimator(self, time: float):
        for fid in sorted(self.functions):
            rt = self.functions[fid]
            rt.estimator.update(rt.arrivals, time)

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
        self._alloc_since[container.id] = time
        self._units[container.id] = wrr_weight_units(container)
        rt = self.functions[spec.id]
        if delay > 0:
            self.metrics.cold_starts += 1
            heapq.heappush(rt.events, (time + delay, EV_READY, next(rt.seq), container.id))
        else:
            rt.idle[container.id] = container
            self._advance(rt, time)

    def _terminate(self, time: float, container_id: int):
        container = self.cluster.containers[container_id]
        rt = self.functions[container.function_id]
        entry = self._busy.pop(container_id, None)
        if entry is not None:
            req, since = entry
            self.metrics.busy_vcpu_time += (time - since) * container.allocated_vcpu
            req.reruns += 1
            req.dispatch = float("nan")
            req.container_id = -1
            self.metrics.reruns += 1
            rt.pending.appendleft(req)
        since = self._alloc_since.pop(container_id)
        self.metrics.allocated_vcpu_time += (time - since) * container.allocated_vcpu
        rt.idle.pop(container_id, None)
        rt.wrr_state.pop(container_id, None)
        del self._units[container_id]
        self.cluster.remove(container_id)
        # an idle sibling may be able to pick up the rerun right away
        self._advance(rt, time)

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
        # both accounts close at the old size before the fraction changes
        vcpu = container.allocated_vcpu
        self.metrics.allocated_vcpu_time += (time - self._alloc_since[container_id]) * vcpu
        entry = self._busy.get(container_id)
        if entry is not None:
            req, busy_since = entry
            self.metrics.busy_vcpu_time += (time - busy_since) * vcpu
            self._busy[container_id] = (req, time)
        container.cpu_fraction = fraction
        self._units[container_id] = wrr_weight_units(container)
        self._alloc_since[container_id] = time

    def _finalize(self):
        end, placed = self.horizon, self.cluster.containers
        for cid, since in self._alloc_since.items():
            self.metrics.allocated_vcpu_time += (end - since) * placed[cid].allocated_vcpu
        for cid, (_, since) in self._busy.items():
            self.metrics.busy_vcpu_time += (end - since) * placed[cid].allocated_vcpu


def run(scenario) -> SimMetrics:
    """Simulate a scenario to its horizon; deterministic for equal inputs."""
    return Simulation(scenario).run()
