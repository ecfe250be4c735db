"""Monte-Carlo multi-server queue simulator used to validate the closed-form math.

This is deliberately a separate, simpler machine than the cluster simulator:
Poisson arrivals feed one shared FCFS queue over a fixed pool of exponential
servers, matching the abstraction of the analytical models exactly. The only
policy knob is which idle server a request takes when several are free --
"fastest-idle" (sensible dispatcher) or "slowest-idle" (the worst case the
heterogeneous model assumes).

Two tie rules fix the schedule exactly: a server that completes at exactly a
request's start time counts as idle for it, and idle servers are ranked by
index, which is rate order because rates are sorted ascending. Under them a
request costs O(log c) on two heaps, idle and busy, and gets the same start
time and server as a scan over all c servers would give it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, UnstableSystem

POLICIES = ("fastest-idle", "slowest-idle")
SLICE = 1024  # requests read from the draw arrays per pass, as Python floats


@dataclass(frozen=True)
class OracleResult:
    p_wait_le_t: float
    sample_count: int
    stderr: float


def _shared_queue(lam: float, rates, num_requests: int, seed: int, pick_fastest: bool):
    """Serve Poisson arrivals FCFS from one shared queue over servers at `rates`.

    Request n starts service no earlier than request n-1. When several
    servers are idle at its start time it takes the fastest one, or the
    slowest when `pick_fastest` is false; service time is exponential at that
    server's rate. `rates` must be sorted ascending. Returns the arrival,
    service-start and completion times, in arrival order.

    Tie rules: a server that completes at exactly `start` counts as idle, and
    idle ties go by index, which is rate order. The idle heap holds exactly
    the servers free at `start`, keyed by index (negated for fastest-idle);
    the busy heap holds `(free_at, index)` for the rest. `start` never moves
    back, since request n starts no earlier than request n-1.
    """
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / lam, size=num_requests))
    unit_service = rng.exponential(1.0, size=num_requests)

    sign = -1 if pick_fastest else 1
    idle = sorted(sign * j for j in range(len(rates)))  # a sorted list is a heap
    busy = []
    start = 0.0
    starts = np.empty(num_requests)
    completions = np.empty(num_requests)
    push, pop = heapq.heappush, heapq.heappop

    for lo in range(0, num_requests, SLICE):
        hi = min(lo + SLICE, num_requests)
        slice_starts = []
        slice_done = []
        for arrived, unit in zip(arrivals[lo:hi].tolist(), unit_service[lo:hi].tolist()):
            if arrived > start:
                start = arrived
            if not idle and busy[0][0] > start:
                start = busy[0][0]
            while busy and busy[0][0] <= start:
                push(idle, sign * pop(busy)[1])
            j = sign * pop(idle)
            done = start + unit / rates[j]
            push(busy, (done, j))
            slice_starts.append(start)
            slice_done.append(done)
        starts[lo:hi] = slice_starts
        completions[lo:hi] = slice_done
    return arrivals, starts, completions


def mc_wait(
    lam: float,
    rates,
    t: float,
    num_requests: int = 200_000,
    seed: int = 0,
    policy: str = "fastest-idle",
    warmup: int | None = None,
    batches: int = 100,
) -> OracleResult:
    """Estimate P(wait <= t) for a shared-queue pool with the given idle policy.

    The policy picks which idle server a request takes (see `_shared_queue`).
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
    if num_requests < 100:
        raise InvalidParameter("need at least 100 requests")
    if batches < 2:
        raise InvalidParameter(f"batch means need at least 2 batches, got {batches}")
    if warmup is None:
        warmup = max(1000, num_requests // 100)
    if warmup < 0:
        raise InvalidParameter(f"warmup must be >= 0, got {warmup}")
    if num_requests - warmup < batches:
        raise InvalidParameter(
            f"{num_requests} requests leave {max(num_requests - warmup, 0)} samples "
            f"after a warmup of {warmup}, fewer than the {batches} batches"
        )

    pick_fastest = policy == "fastest-idle"
    arrivals, starts, _ = _shared_queue(lam, rates, num_requests, seed, pick_fastest)
    measured = (starts - arrivals)[warmup:]
    hits = (measured <= t).astype(float)
    p_hat = float(hits.mean())

    usable = (len(hits) // batches) * batches
    per_batch = hits[:usable].reshape(batches, -1).mean(axis=1)
    se_batch = float(per_batch.std(ddof=1)) / math.sqrt(batches)
    se_binom = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / len(hits))
    stderr = max(se_batch, se_binom)

    return OracleResult(
        p_wait_le_t=p_hat,
        sample_count=len(measured),
        stderr=stderr,
    )

