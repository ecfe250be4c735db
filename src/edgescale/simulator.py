"""Deterministic discrete-event simulation of the edge cluster.

Requests arrive per function, wait in a per-function FCFS queue when no ready
container is idle, and are dispatched to an idle container chosen by smooth
weighted round robin (weight = allocated vCPU). Containers serve one request
at a time; a container's private queue is therefore just its in-service
request, and terminating a busy container reruns exactly that request.
Controller planning fires on epoch ticks. `run` computes each function's rate
estimate at every epoch when it starts (`workload.estimate_rates`), into the
function's `estimates`, which `_on_epoch` reads by epoch index.

Between two epoch ticks functions do not interact, so each function runs its
own event loop (`_advance`) on its own heap of arrivals, completions and
container-ready events. `run` builds the epoch ticks to the horizon inclusive
once, by `np.cumsum`, which adds left to right as repeated addition would; at
each it advances every function to the tick time, inclusive, then runs
`_on_epoch`. `functions` is built in function id order and `plan_epoch`
returns each epoch's records in that order, so a walk over either visits the
functions by id. Within a function, events at equal times go completions,
then arrivals, then container-ready, then in push order; with per-stream
seeded RNGs, runs are bit-identical for equal (scenario, seed).

`_advance` has one dispatch path. Each pass first hands waiting requests to
idle containers at the current time (dropping those past their timeout),
then handles one event: an arrival joins the queue, a completion or a ready
container joins the idle index. After every event a function's queue or its
idle index is empty, so a container freed while requests wait is the only
idle one, and the head of the queue goes to it.
When a controller action frees a container or queues a rerun, the action
calls `_advance` at the tick time, where only the hand-out has work.

`run` builds the request log (`metrics.requests`) when it starts, from
`len(arrivals)` and not in `__init__`, so an `arrivals` array replaced after
construction is logged in full. The log has one row per arrival, already in
its final order: arrival time, then function id, then arrival index, by one
stable argsort of the functions' arrivals concatenated in function id order.
Dispatch and completion times start NaN, container ids -1, status codes
(`STATUSES`) in flight and reruns 0. Each function's `rows` maps its arrival
index to its log row. Inside `_advance` a request is its log row, an int:
`pending` holds rows, timeouts read the log's arrival column, and writes go
through a memoryview of each column, which stores a Python value faster than
an `array.array` or an ndarray item assignment. Each outcome is written once,
in place. A run that raises keeps only the rows of the arrivals each function
handled, so its log is exactly those prefixes, in the same order.
Arrivals stay heap events, one pending per function and pushed as the
previous one is handled: one loop then orders every kind of event, and the
heap pops still count each arrival and each completion.
`busy_vcpu_time` is summed per function between epoch ticks, so its last bits
depend on that grouping: a completion charges its service to a local sum,
and only the controller's actions and the horizon go through `_settle`.

Arrivals and completions cost the same however many containers run, and
cost few interpreter steps, because tracked state replaces per-request scans
and lookups:

- Each function's `idle` index holds its ready, not-busy containers. A
  container enters it when it becomes ready or its service completes, and
  leaves it when service starts or it is terminated (`_terminate`). Dispatch
  policies break ties on container id, so the index's order does not matter;
  a lone idle container is taken without a policy call, which for WRR leaves
  every counter's value as the call would.
- A container carries its own state (`ContainerState`): its vCPU, service
  multiplier and WRR weight units, kept current by its `cpu_fraction`
  setter; its WRR counter; the request row it serves (`serving`) with its
  service start (`busy_since`); and the time its allocation last changed
  (`alloc_since`). `_settle` charges both vCPU accounts at the container's
  current size and restarts them. `_set_fraction` calls it before the size
  changes, so a completion charges the container's current vCPU; `_terminate`
  calls it before it clears `serving`, and `run` calls it at the horizon. A
  terminated container's state leaves with it, so its late completion finds
  nothing to complete.
- Service times are drawn in blocks of `BLOCK` per function from that
  function's own RNG stream: `refill_draws` makes one numpy call once the
  previous block has been read through. A block holds exactly the values
  that `BLOCK` scalar draws (`exponential(1 / rate)`, or `integers(k)`
  indexing the empirical samples) would give, so outputs do not depend on
  the block size.
- Arrival times are read through `_FnRuntime.arrival`, a float64
  memoryview of the arrival array whose items are the Python floats
  `tolist()` gives; the next arrival to push is the one at `handled`. Only
  the service-time block is a Python list, made when it is drawn, since
  indexing a list costs a fifth of `ndarray.item`. `run` drops it when it
  ends, so it does not outlive the run.
- A completion event carries its container, not the container id, and the
  dispatch policies return the container they pick, so the request path
  never looks a container up.

`run` pauses Python's cyclic garbage collector and restores the state it
found when it returns or raises. Every request allocates a few tracked
objects (two heap tuples), so the collector would run every few hundred
requests; yet a run frees everything it drops by reference counting alone,
because it builds no reference cycles, and a collection during a run finds
nothing to free. Pausing therefore changes no output and holds back no
memory. `tests/test_simulator.py` checks that a paused run leaves the
collector nothing. The request log is a few arrays that it does not track.
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
    SetLazy,
    place,
    plan_epoch,
)
from .cluster import ClusterState
from .errors import ConfigError, NoCapacity
from .reclamation import ContainerState, SetFraction, Terminate

EV_COMPLETE, EV_ARRIVAL, EV_READY = range(3)  # event order at equal times
BLOCK = 4096  # service times drawn per RNG call
STATUSES = ("inflight", "completed", "dropped")  # request log status codes
INFLIGHT, COMPLETED, DROPPED = range(3)
# the request log columns that the event loop reads or writes, by log row
_VIEWED = ("arrival", "dispatch", "completion", "container_id", "status", "reruns")


@dataclass(slots=True)
class Request:
    function_id: str
    arrival: float
    reruns: int = 0
    dispatch: float = float("nan")
    completion: float = float("nan")
    container_id: int = -1
    status: str = "inflight"


class RequestLog:
    """Every request's outcome, one numpy column per field, in log order.

    `function` indexes `function_ids` and `status` indexes `STATUSES`. A
    request not (or no longer) dispatched has a NaN `dispatch` and container
    id -1; one not completed has a NaN `completion`. Iterating yields
    `Request` records built `BLOCK` rows at a time, and a slice is a log of
    views of the columns.
    """

    FIELDS = ("function", "arrival", "dispatch", "completion", "container_id", "status",
              "reruns")

    def __init__(self, function_ids, function, arrival, dispatch, completion, container_id,
                 status, reruns):
        self.function_ids = list(function_ids)
        self.function, self.arrival = function, arrival
        self.dispatch, self.completion = dispatch, completion
        self.container_id, self.status, self.reruns = container_id, status, reruns

    def __len__(self) -> int:
        return len(self.arrival)

    def __getitem__(self, index: slice) -> RequestLog:
        if not isinstance(index, slice):
            raise TypeError("a RequestLog takes slices; iterate it for records")
        return RequestLog(self.function_ids, *(getattr(self, f)[index] for f in self.FIELDS))

    def blocks(self):
        """Yield the rows `BLOCK` at a time, each a tuple of Python values in `FIELDS` order."""
        columns = [getattr(self, f) for f in self.FIELDS]
        for lo in range(0, len(self), BLOCK):
            yield zip(*(column[lo:lo + BLOCK].tolist() for column in columns))

    def __iter__(self):
        names = self.function_ids
        for block in self.blocks():
            for f, arrival, dispatch, completion, cid, status, reruns in block:
                yield Request(names[f], arrival, reruns, dispatch, completion, cid,
                              STATUSES[status])


def dispatch_wrr(candidates):
    """Smooth weighted round robin over the candidate containers; returns the pick.

    Over any W consecutive picks (W = total integerised weight) each
    candidate is chosen in proportion to its weight, and the pick sequence is
    maximally interleaved. Ties go to the lowest container id. A candidate's
    weight is its `wrr_units` and its running credit its `wrr_counter`,
    which this call moves.
    """
    total = 0
    chosen = None
    for c in candidates:
        weight = c.wrr_units
        current = c.wrr_counter = c.wrr_counter + weight
        total += weight
        if chosen is None or current > best or (current == best and c.id < chosen.id):
            chosen, best = c, current
    chosen.wrr_counter -= total
    return chosen


def pick_slowest_idle(candidates):
    """Worst-case dispatch: slowest idle container first (validation mode)."""
    return min(candidates, key=lambda c: (c.effective_rate, c.id))


@dataclass
class _FnRuntime:
    spec: object
    arrivals: np.ndarray
    service_rng: np.random.Generator
    # run state, no constructor arguments
    estimates: list = field(default_factory=list, init=False)  # rate estimate by epoch index
    events: list = field(default_factory=list, init=False)  # this function's event heap
    seq: itertools.count = field(default_factory=itertools.count, init=False)  # heap tie-breaker
    pending: deque = field(default_factory=deque, init=False)  # rows of requests waiting, FCFS
    idle: dict = field(default_factory=dict, init=False)  # id -> ready, not-busy container
    draws: list = field(default_factory=list, init=False)  # a block of service times, as floats
    next_draw: int = field(default=BLOCK, init=False)  # index of the next unread draw in `draws`
    handled: int = field(default=0, init=False)  # arrivals handled so far; the next one to push
    # memoryviews by arrival index, set while `run` runs: `arrivals`, read for
    # arrival times, and `rows` (int32), each arrival's row in the request log
    arrival: memoryview = field(default=None, init=False)
    rows: memoryview = field(default=None, init=False)

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
    """The request log, per-epoch allocation records, utilization totals."""

    def __init__(self, horizon: float, capacity_vcpu: float):
        self.horizon = horizon
        self.capacity_vcpu = capacity_vcpu
        # set when `Simulation.run` starts and written in place as it runs
        self.requests: RequestLog | None = None
        self.epochs: list = []
        self.busy_vcpu_time = 0.0
        self.allocated_vcpu_time = 0.0
        self.cold_starts = 0
        self.reruns = 0
        self.create_failures = 0

    @property
    def utilization(self) -> float:
        return self.busy_vcpu_time / (self.capacity_vcpu * self.horizon)

    @property
    def allocated_utilization(self) -> float:
        return self.allocated_vcpu_time / (self.capacity_vcpu * self.horizon)


class Simulation:
    def __init__(self, scenario):
        self.scenario = scenario
        self.cfg: ControllerConfig = scenario.controller
        self.cluster = ClusterState(nodes=list(scenario.nodes))
        self.horizon = scenario.horizon_s
        self.worst_case_dispatch = scenario.dispatch == "worst_case"
        self.metrics = SimMetrics(self.horizon, self.cluster.capacity_vcpu)

        self._container_seq = 0

        ss = np.random.SeedSequence(scenario.seed)
        fids = sorted(scenario.functions)
        children = ss.spawn(2 * len(fids))
        self.functions: dict = {}
        for i, fid in enumerate(fids):
            fspec = scenario.functions[fid]
            arrivals = workload.generate_arrivals(
                scenario.workloads[fid], self.horizon, children[i]
            )
            self.functions[fid] = _FnRuntime(
                spec=fspec,
                arrivals=arrivals,
                service_rng=np.random.default_rng(children[len(fids) + i]),
            )

    # -- event loops ----------------------------------------------------------

    def run(self) -> SimMetrics:
        fids, rts = list(self.functions), list(self.functions.values())
        counts = [len(rt.arrivals) for rt in rts]
        times = np.concatenate([rt.arrivals for rt in rts])
        n = len(times)
        # rows go by arrival time, then function id, then arrival index; the
        # sort temporaries are freed before the written columns are made
        order = np.argsort(times, kind="stable")
        arrival = times[order]
        del times
        rows = np.empty(n, dtype=np.int32)
        rows[order] = np.arange(n, dtype=np.int32)
        codes = np.arange(len(rts), dtype=np.min_scalar_type(len(rts)))
        function = np.repeat(codes, counts)[order]
        del order
        log = self.metrics.requests = RequestLog(
            fids, function, arrival, np.full(n, np.nan), np.full(n, np.nan),
            np.full(n, -1, dtype=np.int32), np.full(n, INFLIGHT, dtype=np.int8),
            np.zeros(n, dtype=np.int32))
        self._columns = {name: memoryview(getattr(log, name)) for name in _VIEWED}
        for rt, part in zip(rts, np.split(rows, np.cumsum(counts[:-1]))):
            rt.arrival, rt.rows = memoryview(rt.arrivals), memoryview(part)
        # a grid two epochs longer than the horizon holds, cut at it
        epochs = np.cumsum(np.full(int(self.horizon / self.cfg.epoch_s) + 2, self.cfg.epoch_s))
        epochs = epochs[:np.searchsorted(epochs, self.horizon, side="right")]
        for rt in rts:
            rt.estimates = workload.estimate_rates(rt.arrivals, epochs,
                                                   **self.scenario.estimator_params)
        collecting = gc.isenabled()
        gc.disable()
        try:
            for fid, rt in zip(fids, rts):
                for i, fraction in enumerate(self.scenario.initial_fractions.get(fid, [])):
                    try:
                        self._create_container(0.0, rt.spec, fraction=fraction, cold_start=0.0)
                    except NoCapacity as exc:
                        raise ConfigError(
                            f"functions.{fid}.initial_containers: container {i + 1}: {exc}"
                        ) from None
                # pushed once the pool is placed, so an arrival at t=0 sees all of it
                if len(rt.arrival):
                    heapq.heappush(rt.events, (rt.arrival[0], EV_ARRIVAL, next(rt.seq), None))

            for epoch_idx, time in enumerate(epochs.tolist()):
                for rt in rts:
                    self._advance(rt, time)
                self._on_epoch(time, epoch_idx)
            for rt in self.functions.values():
                self._advance(rt, self.horizon)
            for container in self.cluster.containers.values():
                self._settle(self.horizon, container)
        finally:
            if collecting:
                gc.enable()
            if any(rt.handled < len(rt.rows) for rt in rts):
                # a run that raised logs only the arrivals it handled
                kept = np.sort(np.concatenate([rt.rows[:rt.handled] for rt in rts]))
                self.metrics.requests = RequestLog(
                    fids, *(getattr(log, name)[kept] for name in RequestLog.FIELDS))
            for rt in rts:
                rt.draws, rt.rows = [], None
            del self._columns
        return self.metrics

    def _advance(self, rt: _FnRuntime, until: float):
        """Run one function's events up to `until`, inclusive.

        Each pass first hands waiting requests to idle containers at the
        current time, then handles one event. Called at a controller tick
        after every earlier event is done, only the hand-out runs, at the
        tick time. A request is its row in the request log.
        """
        events, pending, idle, arrival, rows = rt.events, rt.pending, rt.idle, rt.arrival, rt.rows
        log_arrival, dispatch, completion, served_by, status, _ = self._columns.values()  # _VIEWED
        heappush, heappop = heapq.heappush, heapq.heappop
        seq = rt.seq
        timeout = rt.spec.timeout_s
        draws, next_draw, handled = rt.draws, rt.next_draw, rt.handled
        n_arrivals = len(arrival)
        busy_time = 0.0
        time = until
        try:
            while True:
                while pending and idle:
                    # the pick comes first: it advances the WRR counters even
                    # when every waiting request turns out to have expired
                    if len(idle) == 1:
                        (container,) = idle.values()
                    elif self.worst_case_dispatch:
                        container = pick_slowest_idle(idle.values())
                    else:
                        container = dispatch_wrr(idle.values())
                    if timeout is not None:
                        while pending and time - log_arrival[pending[0]] > timeout:
                            status[pending.popleft()] = DROPPED
                        if not pending:
                            break
                    row = pending.popleft()
                    del idle[container.id]
                    dispatch[row] = time
                    served_by[row] = container.id
                    if next_draw == BLOCK:
                        rt.refill_draws()
                        draws, next_draw = rt.draws, 0
                    container.serving, container.busy_since = row, time
                    heappush(events, (time + draws[next_draw] / container.multiplier,
                                      EV_COMPLETE, next(seq), container))
                    next_draw += 1
                if not events or events[0][0] > until:
                    break
                time, kind, _, payload = heappop(events)
                if kind == EV_COMPLETE:
                    # only termination cancels a service, so a completion
                    # whose container serves nothing belongs to a terminated one
                    row = payload.serving
                    if row is not None:
                        payload.serving = None
                        busy_time += (time - payload.busy_since) * payload.allocated_vcpu
                        completion[row] = time
                        status[row] = COMPLETED
                        idle[payload.id] = payload
                elif kind == EV_ARRIVAL:
                    pending.append(rows[handled])
                    handled += 1
                    if handled < n_arrivals:
                        heappush(events, (arrival[handled], EV_ARRIVAL, next(seq), None))
                else:
                    container = self.cluster.containers.get(payload)
                    if container is not None:  # else terminated before warming up
                        idle[payload] = container
        finally:
            # a run that raises here still logs every arrival it handled
            rt.next_draw, rt.handled = next_draw, handled
        self.metrics.busy_vcpu_time += busy_time

    # -- controller hooks ----------------------------------------------------

    def _on_epoch(self, time: float, epoch_idx: int):
        estimates = {fid: rt.estimates[epoch_idx] for fid, rt in self.functions.items()}
        specs = {fid: rt.spec for fid, rt in self.functions.items()}
        records = plan_epoch(self.cluster, estimates, specs, self.cfg)
        for fid, rec in records.items():
            for action in rec.shrink:
                self._apply(time, fid, action, rec)
        for fid, rec in records.items():
            for action in rec.grow:
                self._apply(time, fid, action, rec)

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
        elif isinstance(action, SetLazy):
            container.lazy_marked = action.marked
            if action.marked:
                rec.marks += 1
            else:
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
        container.alloc_since = time
        self.cluster.add(container)
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
        self._settle(time, container)
        row = container.serving
        if row is not None:
            container.serving = None
            columns = self._columns
            columns["reruns"][row] += 1
            columns["dispatch"][row] = math.nan
            columns["container_id"][row] = -1
            self.metrics.reruns += 1
            rt.pending.appendleft(row)
        rt.idle.pop(container_id, None)
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
        self._settle(time, container)  # both accounts close at the old size
        container.cpu_fraction = fraction

    def _settle(self, time: float, container: ContainerState):
        """Charge a container's vCPU up to `time` to its accounts and restart them there."""
        vcpu = container.allocated_vcpu
        self.metrics.allocated_vcpu_time += (time - container.alloc_since) * vcpu
        if container.serving is not None:
            self.metrics.busy_vcpu_time += (time - container.busy_since) * vcpu
        container.alloc_since = container.busy_since = time


def run(scenario) -> SimMetrics:
    """Simulate a scenario to its horizon; deterministic for equal inputs."""
    return Simulation(scenario).run()
