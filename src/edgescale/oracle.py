"""Monte-Carlo multi-server queue simulator used to validate the closed-form math.

This is deliberately a separate, simpler machine than the cluster simulator:
Poisson arrivals feed one shared FCFS queue over a fixed pool of exponential
servers, matching the abstraction of the analytical models exactly. The only
policy knob is which idle server a request takes when several are free --
"fastest-idle" (sensible dispatcher) or "slowest-idle" (the worst case the
heterogeneous model assumes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, UnstableSystem

POLICIES = ("fastest-idle", "slowest-idle")


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
    """
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / lam, size=num_requests))
    unit_service = rng.exponential(1.0, size=num_requests)

    c = len(rates)
    free_at = [0.0] * c
    starts = np.empty(num_requests)
    completions = np.empty(num_requests)

    for i in range(num_requests):
        arrived = arrivals[i]
        start = min(free_at)
        if start < arrived:
            start = arrived
        # among servers already free at `start`, take per policy; rates are
        # sorted ascending so index order is slowness order
        chosen = -1
        if pick_fastest:
            for j in range(c - 1, -1, -1):
                if free_at[j] <= start:
                    chosen = j
                    break
        else:
            for j in range(c):
                if free_at[j] <= start:
                    chosen = j
                    break
        done = start + unit_service[i] / rates[chosen]
        free_at[chosen] = done
        starts[i] = start
        completions[i] = done
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
    rates = sorted(float(r) for r in rates)
    if not rates or rates[0] <= 0:
        raise InvalidParameter("rates must be non-empty and positive")
    if lam <= 0:
        raise InvalidParameter(f"arrival rate must be > 0, got {lam}")
    if policy not in POLICIES:
        raise InvalidParameter(f"policy must be one of {POLICIES}, got {policy!r}")
    if lam >= sum(rates):
        raise UnstableSystem(f"lam={lam} >= total rate {sum(rates)}")
    if num_requests < 100:
        raise InvalidParameter("need at least 100 requests")
    if warmup is None:
        warmup = max(1000, num_requests // 100)
    if warmup >= num_requests:
        raise InvalidParameter("warmup must leave samples to measure")

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

