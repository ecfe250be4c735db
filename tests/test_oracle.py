"""The Monte-Carlo oracle itself: closed-form spot checks and self-consistency."""

import math

import numpy as np
import pytest

from edgescale import oracle
from edgescale.errors import InvalidParameter, UnstableSystem
from edgescale.oracle import mc_wait


def test_mm1_tail_closed_form():
    # M/M/1: P(W > t) = rho e^{-mu(1-rho)t}; at (5, 10, t=0.5) that is ~0.041
    res = mc_wait(5, [10.0], 0.5, num_requests=200_000, seed=1)
    exact = 1 - 0.5 * math.exp(-10 * 0.5 * 0.5)
    assert abs(res.p_wait_le_t - exact) <= 3 * res.stderr
    assert res.sample_count > 150_000
    assert res.stderr > 0


def test_policy_equivalent_for_equal_rates():
    a = mc_wait(15, [10.0] * 3, 0.1, num_requests=150_000, seed=7, policy="fastest-idle")
    b = mc_wait(15, [10.0] * 3, 0.1, num_requests=150_000, seed=7, policy="slowest-idle")
    assert abs(a.p_wait_le_t - b.p_wait_le_t) <= 3 * math.hypot(a.stderr, b.stderr)


def test_slowest_idle_waits_more_when_rates_differ():
    fast = mc_wait(9, [3.0, 15.0], 0.15, num_requests=150_000, seed=3, policy="fastest-idle")
    slow = mc_wait(9, [3.0, 15.0], 0.15, num_requests=150_000, seed=3, policy="slowest-idle")
    assert slow.p_wait_le_t < fast.p_wait_le_t


def test_stderr_shrinks_with_horizon():
    small = mc_wait(15, [10.0] * 2, 0.1, num_requests=60_000, seed=5)
    big = mc_wait(15, [10.0] * 2, 0.1, num_requests=240_000, seed=5)
    ratio = small.stderr / big.stderr
    assert 1.3 < ratio < 3.2  # ~2 expected at 4x the samples


def test_determinism():
    a = mc_wait(12, [10.0, 10.0], 0.1, num_requests=50_000, seed=9)
    b = mc_wait(12, [10.0, 10.0], 0.1, num_requests=50_000, seed=9)
    assert a == b


def test_littles_law():
    """Time-averaged jobs in system equals lam * mean response over a window.

    Both sides come from different views of one run: the left by integrating
    the occupancy process over an interior window, the right from nominal lam
    and per-request sojourns. Edge effects make this a real consistency check
    rather than an identity.
    """
    lam, n = 18, 120_000
    arrivals, _, completions = oracle._shared_queue(lam, [10.0] * 3, n, 2, True)

    lo = float(arrivals[n // 10])
    hi = float(arrivals[9 * n // 10])
    times = np.concatenate([arrivals, completions])
    deltas = np.concatenate([np.ones(n), -np.ones(n)])
    order = np.argsort(times, kind="stable")
    times, deltas = times[order], deltas[order]
    occupancy = np.cumsum(deltas)
    inside = (times >= lo) & (times <= hi)
    seg_times = np.concatenate([[lo], times[inside], [hi]])
    start_occ = occupancy[np.searchsorted(times, lo, side="right") - 1]
    seg_occ = np.concatenate([[start_occ], occupancy[inside]])
    l_avg = float(np.sum(seg_occ * np.diff(seg_times))) / (hi - lo)

    in_window = (arrivals >= lo) & (arrivals <= hi)
    mean_response = float((completions[in_window] - arrivals[in_window]).mean())
    assert l_avg == pytest.approx(lam * mean_response, rel=0.05)


def test_input_validation():
    with pytest.raises(UnstableSystem):
        mc_wait(30, [10.0, 10.0], 0.1)
    with pytest.raises(InvalidParameter):
        mc_wait(5, [], 0.1)
    with pytest.raises(InvalidParameter):
        mc_wait(5, [10.0], 0.1, policy="round-robin")


@pytest.mark.parametrize("lam, rates, t, match", [
    (5, [math.nan, 10.0], 0.1, "rates"),
    (5, [10.0, math.nan, 4.0], 0.1, "rates"),
    (5, [math.inf], 0.1, "rates"),
    (math.nan, [10.0], 0.1, "arrival rate"),
    (math.inf, [10.0], 0.1, "arrival rate"),
    (5, [10.0], math.nan, "t must"),
    (5, [10.0], math.inf, "t must"),
    (5, [10.0], -0.1, "t must"),
])
def test_non_finite_or_negative_input_rejected(lam, rates, t, match):
    with pytest.raises(InvalidParameter, match=match):
        mc_wait(lam, rates, t, num_requests=2_000)


def test_warmup_and_batches_must_leave_samples():
    # the warmup of 1,000 leaves 50 samples for 100 batches
    with pytest.raises(InvalidParameter, match="50 samples"):
        mc_wait(5, [1.0] * 10, 0.1, num_requests=1_050)
    res = mc_wait(5, [1.0] * 10, 0.1, num_requests=1_100)
    assert res.sample_count == 100 and math.isfinite(res.stderr)


def scan_reference(lam, rates, num_requests, seed, pick_fastest):
    """`_shared_queue` as one O(c) scan over every server per request."""
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / lam, size=num_requests))
    unit_service = rng.exponential(1.0, size=num_requests)
    free_at = [0.0] * len(rates)
    starts = np.empty(num_requests)
    completions = np.empty(num_requests)
    for i in range(num_requests):
        start = max(arrivals[i], min(free_at))
        order = range(len(rates) - 1, -1, -1) if pick_fastest else range(len(rates))
        chosen = next(j for j in order if free_at[j] <= start)
        free_at[chosen] = start + unit_service[i] / rates[chosen]
        starts[i] = start
        completions[i] = free_at[chosen]
    return arrivals, starts, completions


def _random_pools(count, seed):
    rng = np.random.default_rng(seed)
    for k in range(count):
        c = int(rng.integers(1, 61))
        kind = ("equal", "mixed", "repeated")[k % 3]
        if kind == "equal":
            rates = [float(rng.uniform(0.5, 20.0))] * c
        elif kind == "mixed":
            rates = sorted(rng.uniform(0.5, 20.0, size=c).tolist())
        else:
            rates = sorted(rng.choice([1.0, 2.5, 6.0, 9.0, 10.0], size=c).tolist())
        yield pytest.param(float(rng.uniform(0.2, 0.97)) * sum(rates), rates,
                           id=f"{kind}-c{c}")


@pytest.mark.parametrize("pick_fastest", [True, False], ids=["fastest", "slowest"])
@pytest.mark.parametrize("lam, rates", [
    pytest.param(45.0, [1.0] * 55, id="homog_c55"),
    pytest.param(300.0, sorted([6.0] * 15 + [9.0] * 15 + [10.0] * 10), id="hetero_c40"),
    *_random_pools(18, seed=11),
])
def test_heaps_equal_scan_bit_for_bit(lam, rates, pick_fastest):
    n = 2 * oracle.SLICE + 37
    want = scan_reference(lam, rates, n, 4, pick_fastest)
    got = oracle._shared_queue(lam, rates, n, 4, pick_fastest)
    for w, g in zip(want, got):
        assert np.array_equal(w, g)


class _FixedDraws:
    """Stands in for a numpy Generator: hands out preset exponential draws."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def exponential(self, scale, size):
        return scale * np.array(self.draws.pop(0), dtype=float)


@pytest.mark.parametrize("pick_fastest", [True, False])
def test_tied_completions_count_as_idle(monkeypatch, pick_fastest):
    """Three servers all free up at exactly t=2 while requests queue from t=1.

    Request 3 starts at 2.0 on the fastest (or slowest) of them. Request 4
    arrives at 1.5 and must also start at 2.0, on the next of the tied
    servers: the two left idle at 2.0 do not make it start at its arrival.
    """
    gaps = [1.0, 0.0, 0.0, 0.0, 0.5, 3.0]
    units = [4.0, 2.0, 1.0, 4.0, 2.0, 1.0]  # 1 s on rates 4, 2, 1 in turn
    rates = [1.0, 2.0, 4.0]
    results = []
    for kernel in (scan_reference, oracle._shared_queue):
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: _FixedDraws(gaps, units if pick_fastest
                                                     else units[::-1]))
        results.append(kernel(1.0, rates, len(gaps), 0, pick_fastest))
    want, got = results
    assert want[1].tolist() == [1.0, 1.0, 1.0, 2.0, 2.0, 4.5]
    for w, g in zip(want, got):
        assert np.array_equal(w, g)
