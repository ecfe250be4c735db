"""Synthetic workload generation, invocation-trace ingestion, and rate estimation.

Generators produce Poisson arrival streams in four modes: static rate,
discrete rate changes, continuously varying rate (thinning), and trace replay
from per-minute invocation counts. The controller-side RateEstimator counts
two sliding windows (2 min / 10 s by default), each over (now - w, now], on a
function's sorted arrival stream, and smooths with an EWMA, except when the
short window shows a burst, in which case the burst rate is passed through
undamped.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSchedule, ParseError, SchemaError

MODES = ("static", "discrete", "continuous", "trace")


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

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidSchedule(f"unknown workload mode {self.mode!r}")
        if self.mode in ("static", "discrete"):
            sched = tuple((float(t), float(r)) for t, r in self.rate_schedule)
            if not sched:
                raise InvalidSchedule("rate schedule is empty")
            times = [t for t, _ in sched]
            if any(b <= a for a, b in zip(times, times[1:])):
                raise InvalidSchedule("schedule times must be strictly increasing")
            if any(r < 0 for _, r in sched):
                raise InvalidSchedule("rates must be >= 0")
            object.__setattr__(self, "rate_schedule", sched)
        elif self.mode == "continuous":
            pts = tuple((float(t), float(r)) for t, r in self.rate_points)
            if len(pts) < 1:
                raise InvalidSchedule("continuous mode needs at least one rate point")
            times = [t for t, _ in pts]
            if any(b <= a for a, b in zip(times, times[1:])):
                raise InvalidSchedule("rate point times must be strictly increasing")
            if any(r < 0 for _, r in pts):
                raise InvalidSchedule("rates must be >= 0")
            object.__setattr__(self, "rate_points", pts)
        else:
            counts = tuple(int(c) for c in self.per_minute_counts)
            if any(c < 0 for c in counts):
                raise InvalidSchedule("trace counts must be >= 0")
            object.__setattr__(self, "per_minute_counts", counts)


@dataclass(frozen=True)
class InvocationTrace:
    """Per-minute request counts for one function, index 0 = first minute."""

    function_id: str
    per_minute_counts: tuple

    def to_workload(self) -> WorkloadSpec:
        return WorkloadSpec(mode="trace", per_minute_counts=self.per_minute_counts)


def _poisson_segment(rng, rate, start, end, out):
    """Append Poisson arrivals at constant `rate` over [start, end) to `out`."""
    if rate <= 0:
        return
    t = start + rng.exponential(1.0 / rate)
    while t < end:
        out.append(t)
        t += rng.exponential(1.0 / rate)


def generate_arrivals(spec: WorkloadSpec, horizon: float, seed) -> np.ndarray:
    """Arrival timestamps in [0, horizon), sorted; deterministic given seed."""
    if horizon <= 0:
        raise InvalidSchedule(f"horizon must be > 0, got {horizon}")
    rng = np.random.default_rng(seed)
    out: list = []

    if spec.mode in ("static", "discrete"):
        sched = spec.rate_schedule
        for i, (start, rate) in enumerate(sched):
            if start >= horizon:
                break
            end = sched[i + 1][0] if i + 1 < len(sched) else horizon
            _poisson_segment(rng, rate, start, min(end, horizon), out)
    elif spec.mode == "continuous":
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
    else:  # trace
        for minute, count in enumerate(spec.per_minute_counts):
            start = 60.0 * minute
            if start >= horizon:
                break
            if count:
                ts = start + 60.0 * rng.random(count)
                out.extend(ts[ts < horizon].tolist())

    arr = np.array(sorted(out), dtype=float)
    return arr


def expected_arrivals(spec: WorkloadSpec, horizon: float) -> float:
    """Mean number of draws `generate_arrivals` makes over [0, horizon).

    That is the expected arrival count, except in continuous mode, where it
    counts the thinning draws at the envelope rate.
    """
    if spec.mode == "continuous":
        return max(r for _, r in spec.rate_points) * horizon
    if spec.mode == "trace":
        return float(sum(spec.per_minute_counts[: math.ceil(horizon / 60.0)]))
    sched = spec.rate_schedule
    ends = [t for t, _ in sched[1:]] + [horizon]
    return sum(r * (min(end, horizon) - min(start, horizon))
               for (start, r), end in zip(sched, ends))


def load_trace(path) -> list:
    """Read a trace CSV (`function_id,minute_index,count`) into InvocationTraces.

    Rows for a function may appear in any order but must not repeat a minute;
    minutes absent from the file count as zero. Returns one trace per function
    in first-appearance order.
    """
    per_fn: dict = {}
    order: list = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if lineno == 1 and row[0].strip().lower() == "function_id":
                continue
            if len(row) != 3:
                raise ParseError(f"expected 3 columns, got {len(row)}", line=lineno)
            fn = row[0].strip()
            if not fn:
                raise ParseError("empty function_id", line=lineno)
            try:
                minute = int(row[1])
                count = int(row[2])
            except ValueError as exc:
                raise ParseError(f"bad integer field: {exc}", line=lineno) from None
            if minute < 0:
                raise SchemaError(f"line {lineno}: negative minute_index {minute}")
            if count < 0:
                raise SchemaError(f"line {lineno}: negative count {count}")
            minutes = per_fn.setdefault(fn, {})
            if minute in minutes:
                raise SchemaError(
                    f"line {lineno}: duplicate minute {minute} for function {fn!r}"
                )
            minutes[minute] = count
            if fn not in order:
                order.append(fn)

    traces = []
    for fn in order:
        minutes = per_fn[fn]
        top = max(minutes)
        counts = tuple(minutes.get(m, 0) for m in range(top + 1))
        traces.append(InvocationTrace(function_id=fn, per_minute_counts=counts))
    return traces


@dataclass
class RateEstimator:
    """Dual sliding-window arrival-rate estimator with EWMA smoothing.

    Every `tick` seconds the controller calls update(arrivals, now) with the
    function's sorted arrival times; each window counts the arrivals in
    (now - w, now], so the estimator keeps no copy of them. The long-window
    rate is the baseline; if the short window runs at burst_factor times the
    long window, the short-window rate is adopted directly (no smoothing, so
    bursts are seen at full strength), otherwise the long-window rate is
    folded into the EWMA with weight `alpha` on the new observation.
    """

    long_window: float = 120.0
    short_window: float = 10.0
    tick: float = 5.0
    burst_factor: float = 2.0
    alpha: float = 0.7
    ewma: float | None = None

    def __post_init__(self):
        # each message starts with its field; scenario.from_dict adds the section
        if not self.short_window < self.long_window:
            raise InvalidSchedule("short_window: must be < long_window")
        if not 0 < self.alpha <= 1:
            raise InvalidSchedule(f"alpha: must be in (0, 1], got {self.alpha}")
        if not self.burst_factor > 1:
            raise InvalidSchedule(f"burst_factor: must be > 1, got {self.burst_factor}")

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

    @property
    def value(self) -> float:
        return 0.0 if self.ewma is None else self.ewma
