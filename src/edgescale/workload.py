"""Synthetic workload generation and rate estimation.

Generators produce Poisson arrival streams in four modes: static rate,
discrete rate changes, continuously varying rate (thinning), and trace replay
from per-minute invocation counts. The controller's rate estimate
(`estimate_rates`) counts two sliding windows (2 min / 10 s by default), each
over (t - w, t] at every estimator tick t, on a function's sorted arrival
stream, and smooths with an EWMA, except when the short window shows a burst,
in which case the burst rate is passed through undamped. It depends on
nothing but the arrivals, the tick grid and the settings, so one pass gives
the estimate at every epoch.

Static and discrete segments draw their gaps `BLOCK` standard exponentials
at a time, and the arrays equal those of one `rng.exponential(1.0 / rate)`
call per arrival, bit for bit, because:
- `rng.exponential(scale)` is `rng.standard_exponential() * scale` from the
  same stream, and a block of `standard_exponential` draws is the same
  stream as one scalar draw after another;
- `np.cumsum` of `[start + g0, g1, ...]` adds left to right, in the scalar
  loop's order;
- a segment with k arrivals consumes exactly k + 1 draws, the last one
  overshooting its end. The unconsumed rest of a block carries over to the
  next segment, so no RNG state is saved or rewound.
Trace mode draws the uniforms of every minute before the horizon in one
`rng.random` call, which is the same stream as one call per minute. The
continuous mode interleaves exponential and uniform draws in one stream, so
it keeps its scalar thinning loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MODES = ("static", "discrete", "continuous", "trace")
BLOCK = 4096  # exponential gaps drawn per RNG call


@dataclass(frozen=True)
class WorkloadSpec:
    """How a function's requests arrive.

    mode "static"     -- rate_schedule [(0, rate)]
    mode "discrete"   -- rate_schedule [(start_time, rate), ...], stepwise
    mode "continuous" -- rate_points [(time, rate), ...], linear in between
    mode "trace"      -- per_minute_counts from an invocation trace
    """

    mode: str
    rate_schedule: tuple = ()
    rate_points: tuple = ()
    per_minute_counts: tuple = ()


def _segments(sched, horizon) -> list:
    """(rate, start, end) of each schedule step that starts before `horizon`, cut at it."""
    ends = [t for t, _ in sched[1:]] + [horizon]
    return [(rate, start, min(end, horizon))
            for (start, rate), end in zip(sched, ends) if start < horizon]


def _poisson_segments(rng, segments) -> np.ndarray:
    """Poisson arrivals at constant rate over each (rate, start, end), in order.

    Each segment's arrivals lie in [start, end); a zero rate draws nothing.
    Gaps are read from blocks of `BLOCK` standard exponentials, and the
    draws a segment leaves unconsumed start the next one (module docstring).
    """
    parts = []
    draws = np.empty(0)
    for rate, start, end in segments:
        if rate <= 0:
            continue
        t = start
        while True:
            if not len(draws):
                draws = rng.standard_exponential(BLOCK)
            # scan a prefix a few deviations past the expected count, not
            # the whole buffer; if it falls short, go on from its last time
            expect = rate * (end - t)
            n = int(min(len(draws), expect + 4.0 * math.sqrt(expect) + 16.0))
            times = draws[:n] * (1.0 / rate)
            times[0] += t
            np.cumsum(times, out=times)
            k = int(np.searchsorted(times, end))
            parts.append(times[:k])
            if k < n:  # times[k] overshoots: k + 1 draws consumed
                draws = draws[k + 1:]
                break
            t = times[-1]
            draws = draws[n:]
    return np.concatenate(parts) if parts else np.empty(0)


def generate_arrivals(spec: WorkloadSpec, horizon: float, seed) -> np.ndarray:
    """Arrival timestamps in [0, horizon), sorted; deterministic given seed."""
    rng = np.random.default_rng(seed)

    if spec.mode in ("static", "discrete"):
        # segments are disjoint and in time order, so their arrivals are sorted
        return _poisson_segments(rng, _segments(spec.rate_schedule, horizon))
    if spec.mode == "continuous":
        out: list = []
        times = np.array([t for t, _ in spec.rate_points])
        rates = np.array([r for _, r in spec.rate_points])
        envelope = float(rates.max())
        if envelope > 0:
            # thinning against the constant envelope; rate is held flat
            # outside the sampled range
            t = rng.exponential(1.0 / envelope)
            while t < horizon:
                rate_here = float(np.interp(t, times, rates))
                if rng.random() < rate_here / envelope:
                    out.append(t)
                t += rng.exponential(1.0 / envelope)
        return np.array(out, dtype=float)
    # trace: every minute that starts before the horizon draws all its
    # arrivals, uniform over the minute; those at or past the horizon are cut
    starts = 60.0 * np.arange(len(spec.per_minute_counts))
    starts = starts[starts < horizon]
    per_minute = np.array(spec.per_minute_counts[:len(starts)], dtype=np.int64)
    arr = rng.random(int(per_minute.sum()))
    arr *= 60.0
    arr += np.repeat(starts, per_minute)
    arr.sort()
    return arr[:np.searchsorted(arr, horizon)]


def expected_arrivals(spec: WorkloadSpec, horizon: float) -> float:
    """Mean number of draws `generate_arrivals` makes over [0, horizon).

    That is the expected arrival count, except in continuous mode, where it
    counts the thinning draws at the envelope rate.
    """
    if spec.mode == "continuous":
        return max(r for _, r in spec.rate_points) * horizon
    if spec.mode == "trace":
        return float(sum(spec.per_minute_counts[: math.ceil(horizon / 60.0)]))
    segments = _segments(spec.rate_schedule, horizon)
    return sum((rate * (end - start) for rate, start, end in segments), 0.0)


def estimate_rates(arrivals: np.ndarray, epochs: np.ndarray, long_window: float,
                   short_window: float, tick: float, burst_factor: float, alpha: float) -> list:
    """The rate estimate committed at each of the ascending `epochs`, as a list.

    Ticks fall every `tick` from 0, each the previous one plus `tick`, and an
    epoch reads the estimate of its last tick at or before it, 0.0 before the
    first tick. At tick t each window counts the sorted `arrivals` in
    (t - w, t], so no estimate reads an arrival after its epoch. The
    long-window rate is the baseline; if the short window runs at
    burst_factor times the long window, the short-window rate is adopted
    directly (no smoothing, so bursts are seen at full strength), otherwise
    the long-window rate is folded into the EWMA with weight `alpha` on the
    new observation.

    Ticks go `BLOCK` at a time up to the last epoch, and none after it is
    computed. A block's counts in each window are one `np.searchsorted`;
    the rule then runs over them tick by tick, on Python ints and floats, so
    each rate is Python's int / float as a tick-by-tick loop computes it.
    """
    estimates: list = []
    value = None  # the estimate committed at the last tick
    t = 0.0  # the last tick
    while len(epochs):
        # `np.cumsum` adds left to right, as `t += tick` would
        ticks = np.cumsum(np.concatenate(([t + tick], np.full(BLOCK - 1, tick))))
        ticks = ticks[:np.searchsorted(ticks, epochs[-1], side="right")]
        ends = np.searchsorted(arrivals, ticks, side="right")
        long_counts = ends - np.searchsorted(arrivals, ticks - long_window, side="right")
        short_counts = ends - np.searchsorted(arrivals, ticks - short_window, side="right")
        # the epochs in [previous tick, tick) read the estimate committed before the tick
        passed = np.diff(np.searchsorted(epochs, ticks), prepend=len(estimates))
        for n_long, n_short, n_passed in zip(long_counts.tolist(), short_counts.tolist(),
                                             passed.tolist()):
            if n_passed:
                estimates += [0.0 if value is None else value] * n_passed
            r_long, r_short = n_long / long_window, n_short / short_window
            if r_short > 0 and r_short >= burst_factor * r_long:
                value = r_short
            else:
                if value is not None:
                    r_long = alpha * r_long + (1 - alpha) * value
                # below half an arrival per long window the EWMA tail is noise;
                # snap to zero so idle functions actually release their resources
                value = 0.0 if r_long < 0.5 / long_window else r_long
        if len(ticks) < BLOCK:
            break
        t = ticks[-1]
    return estimates + [0.0 if value is None else value] * (len(epochs) - len(estimates))
