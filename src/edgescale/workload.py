"""Synthetic workload generation and rate estimation.

Generators produce Poisson arrival streams in four modes: static rate,
discrete rate changes, continuously varying rate (thinning), and trace replay
from per-minute invocation counts. The controller-side RateEstimator counts
two sliding windows (2 min / 10 s by default), each over (now - w, now], on a
function's sorted arrival stream, and smooths with an EWMA, except when the
short window shows a burst, in which case the burst rate is passed through
undamped.

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
from dataclasses import dataclass, field

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


@dataclass
class RateEstimator:
    """Dual sliding-window arrival-rate estimator with EWMA smoothing.

    value_at(arrivals, now) calls update(arrivals, t) with the function's
    sorted arrival times at each tick t <= now not yet committed, t built by
    adding `tick` from 0; each window counts the arrivals in (t - w, t], so
    the estimator keeps no copy of them. The long-window rate is the
    baseline; if the short window runs at burst_factor times the long window,
    the short-window rate is adopted directly (no smoothing, so bursts are
    seen at full strength), otherwise the long-window rate is folded into the
    EWMA with weight `alpha` on the new observation.

    `ewma` holds the last committed estimate, None before the first tick.
    Like `last_tick` it is state the ticks write, not a constructor argument.
    """

    long_window: float
    short_window: float
    tick: float
    burst_factor: float
    alpha: float
    ewma: float | None = field(default=None, init=False)
    last_tick: float = field(default=0.0, init=False)  # the last committed tick time

    def window_rates(self, arrivals: np.ndarray, now: float) -> tuple:
        """(long-window rate, short-window rate) of sorted `arrivals` at `now`."""
        cutoffs = (now - self.long_window, now - self.short_window, now)
        first_long, first_short, end = np.searchsorted(
            arrivals, cutoffs, side="right"
        ).tolist()
        long_rate = (end - first_long) / self.long_window
        return long_rate, (end - first_short) / self.short_window

    def update(self, arrivals: np.ndarray, now: float) -> float:
        """Commit the estimate at tick time `now` and return it.

        `arrivals` is the function's whole sorted arrival array; times after
        `now` are not counted.
        """
        r_long, r_short = self.window_rates(arrivals, now)
        if r_short > 0 and r_short >= self.burst_factor * r_long:
            value = r_short
        else:
            if self.ewma is None:
                value = r_long
            else:
                value = self.alpha * r_long + (1 - self.alpha) * self.ewma
            # below half an arrival per long window the EWMA tail is noise;
            # snap to zero so idle functions actually release their resources
            if value < 0.5 / self.long_window:
                value = 0.0
        self.ewma = value
        return value

    def value_at(self, arrivals: np.ndarray, now: float) -> float:
        """Commit the estimate at each tick up to `now`, inclusive; return `value`."""
        while self.last_tick + self.tick <= now:
            self.last_tick += self.tick
            self.update(arrivals, self.last_tick)
        return self.value

    @property
    def value(self) -> float:
        return 0.0 if self.ewma is None else self.ewma
