"""Monte-Carlo multi-server queue simulator used to validate the closed-form math.

This is deliberately a separate, simpler machine than the cluster simulator:
Poisson arrivals feed one shared FCFS queue over a fixed pool of exponential
servers, matching the abstraction of the analytical models exactly. The only
policy knob is which idle server a request takes when several are free --
"fastest-idle" (sensible dispatcher) or "slowest-idle" (the worst case the
heterogeneous model assumes).

Two tie rules fix the schedule exactly: a server that completes at exactly a
request's start time counts as idle for it, and among idle servers of
different rates the policy's choice wins (fastest-idle takes the highest
rate, slowest-idle the lowest).

Servers of equal rate are interchangeable. A request's completion time is
its start plus its unit service over the server's rate, so which server of
a rate it takes changes no start or completion time, only the server's name,
and the oracle reports no names. The kernel (`_serve`) therefore keeps one
heap of free-at times per distinct rate, a rate class, and the policy only
picks a class. Classes whose earliest free-at time is at or before the
current start are idle, the rest busy, each kept on its own heap, so a
request costs O(log K) over K classes whatever the pool size. An equal-rate
pool, the M/M/c case, is one class and costs one `heapreplace` a request.
The schedule is the one a scan over every server gives, bit for bit.
"""

from __future__ import annotations

import heapq
import math
import numbers
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, UnstableSystem

POLICIES = ("fastest-idle", "slowest-idle")
SLICE = 1024  # requests read from the input arrays per pass, as Python floats
MIN_WARMUP = 1000  # requests dropped before measuring: this many, or 1% if more
BATCHES = 100  # batch means behind the standard error


@dataclass(frozen=True)
class OracleResult:
    p_wait_le_t: float
    sample_count: int
    stderr: float


def _shared_queue(lam: float, rates, num_requests: int, seed: int, pick_fastest: bool):
    """Serve `num_requests` Poisson arrivals at rate `lam` with `_serve`.

    Draws the inter-arrival gaps, then the unit-mean service times, from one
    generator seeded with `seed`. Returns the arrival, service-start and
    completion times, in arrival order.
    """
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / lam, size=num_requests))
    unit_service = rng.exponential(1.0, size=num_requests)
    starts, completions = _serve(arrivals, unit_service, rates, pick_fastest)
    return arrivals, starts, completions


def _serve(arrivals, unit_service, rates, pick_fastest: bool):
    """Serve requests FCFS from one shared queue over servers at `rates`.

    Request n arrives at `arrivals[n]` (non-decreasing) and starts service no
    earlier than request n-1. When servers of several rates are idle at its
    start time it takes the fastest, or the slowest when `pick_fastest` is
    false, and completes `unit_service[n] / rate` later. Returns the start
    and completion times as arrays, in arrival order.

    Class k is the k-th distinct rate in policy order, so lower is preferred;
    `free_at[k]` is a heap of its servers' free-at times. `idle` is a heap of
    the classes whose earliest free-at time is at or before `start`, `busy` a
    heap of `(earliest free_at, k)` for the others. A taken server is the
    earliest of its class, which is idle at `start`; its class moves to
    `busy` when its new earliest time is later than `start`. `start` never
    moves back, so an idle class stays idle until it is taken. With every
    class busy the request starts at the earliest free-at time, and every
    class free by then turns idle before the choice, so tied classes go by
    policy order.
    """
    classes = sorted(Counter(rates).items(), reverse=pick_fastest)
    class_rates = [rate for rate, _ in classes]
    n = len(arrivals)
    starts = np.empty(n)
    completions = np.empty(n)
    start = 0.0
    push, pop, replace = heapq.heappush, heapq.heappop, heapq.heapreplace

    if len(classes) == 1:
        # the M/M/c case: the one class is idle once `start` reaches its
        # earliest free-at time, and service times divide in numpy
        heap = [0.0] * classes[0][1]  # an all-equal list is a heap
        for lo in range(0, n, SLICE):
            hi = min(lo + SLICE, n)
            service = unit_service[lo:hi] / class_rates[0]
            slice_starts = []
            record = slice_starts.append
            for arrived, needed in zip(arrivals[lo:hi].tolist(), service.tolist()):
                if arrived > start:
                    start = arrived
                if heap[0] > start:
                    start = heap[0]
                replace(heap, start + needed)
                record(start)
            starts[lo:hi] = slice_starts
            np.add(starts[lo:hi], service, out=completions[lo:hi])
        return starts, completions

    free_at = [[0.0] * count for _, count in classes]
    idle = list(range(len(classes)))  # a sorted list is a heap
    busy = []
    for lo in range(0, n, SLICE):
        hi = min(lo + SLICE, n)
        slice_starts = []
        slice_done = []
        for arrived, unit in zip(arrivals[lo:hi].tolist(), unit_service[lo:hi].tolist()):
            if arrived > start:
                start = arrived
            if not idle and busy[0][0] > start:
                start = busy[0][0]
            while busy and busy[0][0] <= start:
                push(idle, pop(busy)[1])
            k = idle[0]
            done = start + unit / class_rates[k]
            heap = free_at[k]
            replace(heap, done)
            if heap[0] > start:
                push(busy, (heap[0], pop(idle)))
            slice_starts.append(start)
            slice_done.append(done)
        starts[lo:hi] = slice_starts
        completions[lo:hi] = slice_done
    return starts, completions


def mc_wait(
    lam: float,
    rates,
    t: float,
    num_requests: int = 200_000,
    seed: int = 0,
    policy: str = "fastest-idle",
) -> OracleResult:
    """Estimate P(wait <= t) for a shared-queue pool with the given idle policy.

    The policy picks which idle server a request takes (see `_serve`).
    The standard error is computed by batch means, which keeps it honest in
    the presence of the serial correlation queueing induces.
    """
    # NaN fails every comparison, so each check passes only a finite value in
    # range; a NaN time would also break the busy heap's order silently
    rates = [float(r) for r in rates]
    if not rates or not all(0 < r < math.inf for r in rates):
        raise InvalidParameter("rates must be non-empty, finite and > 0")
    rates.sort()
    if not 0 < lam < math.inf:
        raise InvalidParameter(f"arrival rate must be finite and > 0, got {lam}")
    if not 0 <= t < math.inf:
        raise InvalidParameter(f"t must be finite and >= 0, got {t}")
    if policy not in POLICIES:
        raise InvalidParameter(f"policy must be one of {POLICIES}, got {policy!r}")
    if lam >= sum(rates):
        raise UnstableSystem(f"lam={lam} >= total rate {sum(rates)}")
    for name, value in (("num_requests", num_requests), ("seed", seed)):
        if not isinstance(value, (int, numbers.Integral)):  # int first: the fast check
            raise InvalidParameter(f"{name} must be an integer, got {value!r}")
    if seed < 0:
        raise InvalidParameter(f"seed must be >= 0, got {seed}")
    if num_requests < 100:
        raise InvalidParameter("need at least 100 requests")
    warmup = max(MIN_WARMUP, num_requests // 100)
    if num_requests - warmup < BATCHES:
        raise InvalidParameter(
            f"{num_requests} requests leave {max(num_requests - warmup, 0)} samples "
            f"after a warmup of {warmup}, fewer than the {BATCHES} batches"
        )

    pick_fastest = policy == "fastest-idle"
    arrivals, starts, _ = _shared_queue(lam, rates, num_requests, seed, pick_fastest)
    measured = (starts - arrivals)[warmup:]
    hits = (measured <= t).astype(float)
    p_hat = float(hits.mean())

    usable = (len(hits) // BATCHES) * BATCHES
    per_batch = hits[:usable].reshape(BATCHES, -1).mean(axis=1)
    se_batch = float(per_batch.std(ddof=1)) / math.sqrt(BATCHES)
    se_binom = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / len(hits))
    stderr = max(se_batch, se_binom)

    return OracleResult(
        p_wait_le_t=p_hat,
        sample_count=len(measured),
        stderr=stderr,
    )

