"""Simulated statistics and output checks for one simulator run.

Everything here is a pure function of what the run produced (the generated
arrival stream and the `SimMetrics` records), so the figures are exact for a
given seed and repeat bit-for-bit.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter

import numpy as np

CAPACITY_EPS = 1e-6


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def request_outcomes(arrivals: dict, requests, slos: dict, horizon: float) -> dict:
    """Outcome of every generated request, including those never simulated.

    `arrivals` maps function id to its generated arrival times; `requests`
    are the simulator's records, which cover a prefix of each function's
    stream (all of it unless the run raised). `slos` maps function id to
    (deadline, applies_to). A request that did not complete counts as an SLO
    miss, and a request never dispatched has its wait censored at
    horizon - arrival.
    """
    recorded = Counter()
    waits = []
    completed = misses = 0
    for r in requests:
        recorded[r.function_id] += 1
        if r.status == "completed":
            completed += 1
            deadline, applies_to = slos[r.function_id]
            end = r.dispatch if applies_to == "waiting" else r.completion
            misses += (end - r.arrival) > deadline
        else:
            misses += 1
        waits.append((horizon if math.isnan(r.dispatch) else r.dispatch) - r.arrival)
    waits = np.asarray(waits, dtype=float)
    lost = [np.asarray(arr[recorded[fid]:], dtype=float) for fid, arr in arrivals.items()]
    n_lost = sum(len(x) for x in lost)
    generated = sum(len(arr) for arr in arrivals.values())
    return {
        "generated": generated,
        "recorded": len(requests),
        "completed": completed,
        "lost": n_lost,
        "misses": misses + n_lost,
        "waits": np.concatenate([waits, *[horizon - x for x in lost]]),
    }


def pending_peak(requests, horizon: float) -> int:
    """Largest number of one function's requests arrived but not yet dispatched.

    A request that was rerun counts as pending from its arrival to its last
    dispatch.
    """
    by_fn: dict = {}
    for r in requests:
        by_fn.setdefault(r.function_id, []).append(
            (r.arrival, horizon if math.isnan(r.dispatch) else r.dispatch)
        )
    peak = 0
    for pairs in by_fn.values():
        span = np.asarray(pairs, dtype=float)
        times = np.concatenate([span[:, 0], span[:, 1]])
        deltas = np.concatenate([np.ones(len(span)), -np.ones(len(span))])
        # at equal times, dispatches (-1) go before arrivals (+1)
        order = np.lexsort((deltas, times))
        peak = max(peak, int(np.cumsum(deltas[order]).max()))
    return peak


def conservation_errors(arrivals: dict, requests, completed_run: bool) -> list:
    """Per-function request conservation: generated = completed + inflight + dropped.

    After a raised run the records cover only part of each stream, so the
    check there is that no function has more records than arrivals.
    """
    counts = Counter((r.function_id, r.status) for r in requests)
    errors = []
    for fid, arr in arrivals.items():
        records = sum(n for (f, _), n in counts.items() if f == fid)
        parts = sum(counts[(fid, status)] for status in ("completed", "inflight", "dropped"))
        if parts != records:
            errors.append(f"{fid}: {records - parts} records with another status")
        if records > len(arr) or (completed_run and records != len(arr)):
            errors.append(f"{fid}: {records} records for {len(arr)} generated arrivals")
    return errors


def capacity_errors(epochs, capacity: float) -> list:
    """Epochs whose total allocated vCPU exceeds the cluster's capacity."""
    per_epoch: dict = {}
    for e in epochs:
        per_epoch[e.epoch] = per_epoch.get(e.epoch, 0.0) + e.alloc_vcpu
    return [f"epoch {k}: allocates {v:.4f} > capacity {capacity:.4f}"
            for k, v in sorted(per_epoch.items()) if v > capacity + CAPACITY_EPS]


def model_counters(metrics) -> dict:
    """Controller and simulator counters recorded in the run's outputs."""
    out = {"cold_starts": metrics.cold_starts, "reruns": metrics.reruns,
           "create_failures": metrics.create_failures}
    for key in ("creates", "deflates", "inflates", "terminates"):
        out[key] = sum(getattr(e, key) for e in metrics.epochs)
    return out


def instance_summary(sim, completed_run: bool) -> dict:
    """Statistics, counters and check results for one `simulator.Simulation`.

    `completed_run` is False when `sim.run()` raised; the records then stop
    at the simulated time the run reached.
    """
    arrivals = {fid: rt.arrivals for fid, rt in sim.functions.items()}
    slos = {fid: (rt.spec.slo.deadline, rt.spec.slo.applies_to)
            for fid, rt in sim.functions.items()}
    m = sim.metrics
    capacity = sim.cluster.capacity_vcpu
    out = request_outcomes(arrivals, m.requests, slos, sim.horizon)
    if completed_run:
        reached = sim.horizon
    else:
        reached = max([r.arrival for r in m.requests[-1:]] + [e.time for e in m.epochs[-1:]]
                      + [0.0])
    out.update(
        capacity_vcpu=capacity,
        epoch_ticks=len({e.epoch for e in m.epochs}),
        alloc_vcpu_sum=sum(e.alloc_vcpu for e in m.epochs),
        pending_peak=pending_peak(m.requests, sim.horizon) if m.requests else 0,
        reached_s=reached,
        counters=model_counters(m),
        errors=conservation_errors(arrivals, m.requests, completed_run)
        + capacity_errors(m.epochs, capacity),
    )
    return out


def pool(summaries: list) -> dict:
    """End-to-end simulated statistics over several instance summaries."""
    generated = sum(s["generated"] for s in summaries)
    completed = sum(s["completed"] for s in summaries)
    misses = sum(s["misses"] for s in summaries)
    waits = np.concatenate([s["waits"] for s in summaries])
    ticks = sum(s["epoch_ticks"] for s in summaries)
    alloc = sum(s["alloc_vcpu_sum"] for s in summaries)
    capacity = summaries[0]["capacity_vcpu"]
    return {
        "generated": generated,
        "failed_frac": (generated - completed) / generated,
        "slo_miss_frac": misses / generated,
        "wait_p99_s": float(np.percentile(waits, 99)),
        "alloc_vcpu_frac": alloc / (capacity * ticks) if ticks else 0.0,
    }
