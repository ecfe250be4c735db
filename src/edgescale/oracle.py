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

The queue runs a block of `BLOCK` requests at a time, so its memory does not
grow with the request count. The gaps and the service times are one stream of
draws from one seed, gaps first; two generators seeded alike read it, one from
the first gap and one from the first service time, and each block of arrivals
is the cumsum of its gaps carried on from the previous block's last arrival.
Both equal a single whole-array draw and cumsum bit for bit. `mc_wait` keeps
only hit counts per batch mean, never a per-request array.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter

BLOCK = 4096  # requests drawn and served per numpy pass
SLICE = 1024  # requests read from a block per pass, as Python floats
# requests one validation may serve over all its replications, the same ten
# million a scenario may draw
MAX_REQUESTS = 10_000_000
MIN_WARMUP = 1000  # requests dropped before measuring: this many, or 1% if more
BATCHES = 100  # batch means behind the standard error


@dataclass(frozen=True)
class OracleResult:
    p_wait_le_t: float
    sample_count: int
    stderr: float


def _exponentials(rng, scale, count: int):
    """Yield `count` exponential draws at `scale` from `rng`, `BLOCK` at a time."""
    for lo in range(0, count, BLOCK):
        yield rng.exponential(scale, size=min(BLOCK, count - lo))


def _shared_queue(lam: float, rates, num_requests: int, seed: int, pick_fastest: bool):
    """Serve `num_requests` Poisson arrivals at rate `lam` with `_serve`.

    Yields `_serve`'s `(arrivals, starts, completions)` blocks, in arrival
    order. `gaps` reads the stream of `seed` from its first draw, `services`
    from the draw after the last gap (module docstring).
    """
    gaps = np.random.default_rng(seed)
    services = np.random.default_rng(seed)

    def arrivals():
        last = 0.0
        for block in _exponentials(gaps, 1.0 / lam, num_requests):
            block[0] += last  # the cumsum goes on from the previous block
            np.cumsum(block, out=block)
            last = block[-1]
            yield block

    def unit_services():
        for _ in _exponentials(services, 1.0, num_requests):  # the gaps' draws
            pass
        yield from _exponentials(services, 1.0, num_requests)

    return _serve(arrivals(), unit_services(), rates, pick_fastest)


def _serve(arrival_blocks, unit_blocks, rates, pick_fastest: bool):
    """Serve requests FCFS from one shared queue over servers at `rates`.

    Takes the arrival times (non-decreasing) and the unit-mean service times
    as two iterables of equal-length array blocks. Request n starts service no
    earlier than its arrival and than request n-1. When servers of several
    rates are idle at its start time it takes the fastest, or the slowest when
    `pick_fastest` is false, and completes its unit service over the rate
    later. Yields `(arrivals, starts, completions)` arrays per block; the
    queue's state carries over from block to block.

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
    start = 0.0
    push, pop, replace = heapq.heappush, heapq.heappop, heapq.heapreplace

    if len(classes) == 1:
        # the M/M/c case: the one class is idle once `start` reaches its
        # earliest free-at time, and service times divide in numpy
        heap = [0.0] * classes[0][1]  # an all-equal list is a heap
        for arrivals, unit_service in zip(arrival_blocks, unit_blocks):
            service = unit_service / class_rates[0]
            starts = np.empty(len(arrivals))
            for lo in range(0, len(arrivals), SLICE):
                hi = lo + SLICE
                slice_starts = []
                record = slice_starts.append
                for arrived, needed in zip(arrivals[lo:hi].tolist(), service[lo:hi].tolist()):
                    if arrived > start:
                        start = arrived
                    if heap[0] > start:
                        start = heap[0]
                    replace(heap, start + needed)
                    record(start)
                starts[lo:hi] = slice_starts
            yield arrivals, starts, starts + service
        return

    free_at = [[0.0] * count for _, count in classes]
    idle = list(range(len(classes)))  # a sorted list is a heap
    busy = []
    for arrivals, unit_service in zip(arrival_blocks, unit_blocks):
        starts = np.empty(len(arrivals))
        completions = np.empty(len(arrivals))
        for lo in range(0, len(arrivals), SLICE):
            hi = lo + SLICE
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
        yield arrivals, starts, completions


def mc_wait(lam: float, rates, t: float, num_requests: int, seed: int,
            policy: str) -> OracleResult:
    """Estimate P(wait <= t) for a shared-queue pool with the given idle policy.

    The policy, "fastest-idle" or "slowest-idle", picks which idle server a
    request takes (see `_serve`). The standard error is computed by batch
    means, which keeps it honest in the presence of the serial correlation
    queueing induces.

    `validate` checks every argument first, by its flag types, its limit on
    requests x replications and the sizing search, which leaves a stable
    pool. Only the request count's lower bounds, which `--requests` can
    miss, are checked here.
    """
    if num_requests < 100:
        raise InvalidParameter("need at least 100 requests")
    warmup = max(MIN_WARMUP, num_requests // 100)
    if num_requests - warmup < BATCHES:
        raise InvalidParameter(
            f"{num_requests} requests leave {max(num_requests - warmup, 0)} samples "
            f"after a warmup of {warmup}, fewer than the {BATCHES} batches"
        )

    # each block's hits add to the count of the batch mean they fall in;
    # counts of 0/1 are exact, so the means equal those of a whole array
    samples = num_requests - warmup
    size = samples // BATCHES  # the last samples % BATCHES are in no batch
    hits = 0
    per_batch = np.zeros(BATCHES, dtype=np.int64)
    first = -warmup  # the block's first request, counted from the first sample
    blocks = _shared_queue(lam, rates, num_requests, seed, policy == "fastest-idle")
    for arrivals, starts, _ in blocks:
        at = np.flatnonzero(starts - arrivals <= t) + first
        first += len(arrivals)
        at = at[at >= 0]
        hits += len(at)
        per_batch += np.bincount(at // size, minlength=BATCHES)[:BATCHES]
    p_hat = hits / samples

    se_batch = float((per_batch / size).std(ddof=1)) / math.sqrt(BATCHES)
    # when every sample meets the deadline, or none does, p(1 - p) is 0; the
    # floor is what one miss (or one hit) among the samples would give
    one = 1.0 / samples
    se_binom = math.sqrt(max(p_hat * (1.0 - p_hat), one * (1.0 - one)) / samples)
    return OracleResult(p_wait_le_t=p_hat, sample_count=samples, stderr=max(se_batch, se_binom))
