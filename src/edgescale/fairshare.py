"""Weighted fair shares under overload: guaranteed minimums and water-filling.

Capacity is in vCPUs. All results are floored to multiples of the fixed vCPU
quantum (`VCPU_QUANTUM`, 0.05 vCPU) so the caller can never overcommit;
leftover whole quanta are handed out by largest fractional remainder, ties
broken by function id.

Weights arrive flattened, one per function: `scenario.from_dict` splits each
user's weight over that user's functions in proportion to their weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .reclamation import VCPU_QUANTUM

_EPS = 1e-9


def _floor_quanta(x: float) -> float:
    return math.floor(x / VCPU_QUANTUM + _EPS) * VCPU_QUANTUM


def guaranteed_shares(weights: dict, capacity: float) -> dict:
    """Guaranteed minimum per function: floor(w_i / sum(w) * C) in quanta."""
    total_w = sum(weights.values())
    return {
        fid: _floor_quanta(capacity * w / total_w)
        for fid, w in weights.items()
    }


@dataclass(frozen=True)
class ShareResult:
    adjusted: dict
    overloaded: bool


def adjust_allocations(demands: dict, weights: dict, guar: dict, capacity: float) -> ShareResult:
    """Cap demands to fair shares when sum > capacity; pass them through otherwise.

    `guar` is `guaranteed_shares(weights, capacity)`; `plan_epoch`
    computes it once per epoch, for its records and for this call.

    Well-behaved functions (demand <= guaranteed share) keep their demand.
    The remaining capacity is split across the overloaded ones in proportion
    to weight, water-filling: anyone whose proportional share exceeds their
    demand is capped there and the surplus re-split among the rest. Floors to
    `VCPU_QUANTUM` happen last, with leftover quanta going to the largest
    fractional remainders (ties by function id).
    """
    if sum(demands.values()) <= capacity + _EPS:
        return ShareResult(adjusted=dict(demands), overloaded=False)

    adjusted = {}
    over = []
    budget = capacity
    for fid, demand in demands.items():
        if demand <= guar[fid] + _EPS:
            adjusted[fid] = demand
            budget -= demand
        else:
            over.append(fid)

    # continuous water-filling over the overloaded set
    shares = {}
    active = list(over)
    while active:
        w_active = sum(weights[f] for f in active)
        capped = []
        for fid in active:
            prop = budget * weights[fid] / w_active
            if prop >= demands[fid] - _EPS:
                capped.append(fid)
        if not capped:
            for fid in active:
                shares[fid] = budget * weights[fid] / w_active
            break
        for fid in capped:
            shares[fid] = demands[fid]
            budget -= demands[fid]
            active.remove(fid)

    # floor to quanta, then hand leftover quanta to the biggest remainders
    leftover = sum(shares.values())
    for fid in over:
        adjusted[fid] = _floor_quanta(shares[fid])
        leftover -= adjusted[fid]
    by_remainder = sorted(
        over, key=lambda f: (-(shares[f] - adjusted[f]), f)
    )
    for fid in by_remainder:
        if leftover < VCPU_QUANTUM - _EPS:
            break
        if adjusted[fid] + VCPU_QUANTUM <= demands[fid] + _EPS:
            adjusted[fid] += VCPU_QUANTUM
            leftover -= VCPU_QUANTUM

    return ShareResult(adjusted=adjusted, overloaded=True)
