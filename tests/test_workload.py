"""Workload generators, trace ingestion, and the dual-window rate estimator."""

import math
import tracemalloc

import numpy as np
import pytest

from edgescale import scenario
from edgescale.errors import ParseError
from edgescale.scenario import load_trace
from edgescale.workload import (
    BLOCK,
    WorkloadSpec,
    estimate_rates,
    expected_arrivals,
    generate_arrivals,
)
from scenario_builders import REPO_ROOT, config_error, estimator, time_limit

WORKLOAD = "functions.f.workload"


# The reference kernel: one scalar RNG call per arrival in the static and
# discrete modes, and one per minute in trace mode, gathered in a Python list
# and sorted. `generate_arrivals` must give its arrays byte for byte.

def reference_arrivals(spec, horizon, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    out = []
    if spec.mode in ("static", "discrete"):
        sched = spec.rate_schedule
        for i, (start, rate) in enumerate(sched):
            if start >= horizon:
                break
            end = min(sched[i + 1][0] if i + 1 < len(sched) else horizon, horizon)
            if rate <= 0:
                continue
            t = start + rng.exponential(1.0 / rate)
            while t < end:
                out.append(t)
                t += rng.exponential(1.0 / rate)
    else:
        assert spec.mode == "trace"
        for minute, count in enumerate(spec.per_minute_counts):
            start = 60.0 * minute
            if start >= horizon:
                break
            if count:
                ts = start + 60.0 * rng.random(count)
                out.extend(ts[ts < horizon].tolist())
    return np.array(sorted(out), dtype=float)


def assert_equals_reference(spec, horizon, seed):
    got = generate_arrivals(spec, horizon, seed)
    assert got.dtype == np.float64
    assert got.tobytes() == reference_arrivals(spec, horizon, seed).tobytes()
    return got


def discrete(*pairs):
    return WorkloadSpec(mode="discrete", rate_schedule=pairs)


class TestGenerator:
    def test_static_count_within_3_sigma(self):
        spec = WorkloadSpec(mode="static", rate_schedule=((0.0, 10.0),))
        arr = generate_arrivals(spec, 600.0, seed=1)
        assert abs(len(arr) - 6000) <= 3 * math.sqrt(6000)
        assert np.all(np.diff(arr) >= 0) and arr[-1] < 600.0

    def test_zero_rate_is_empty(self):
        spec = WorkloadSpec(mode="static", rate_schedule=((0.0, 0.0),))
        assert len(generate_arrivals(spec, 100.0, seed=1)) == 0

    def test_discrete_segments_within_3_sigma(self):
        spec = WorkloadSpec(mode="discrete", rate_schedule=((0.0, 5.0), (300.0, 30.0)))
        arr = generate_arrivals(spec, 600.0, seed=2)
        first = np.sum(arr < 300.0)
        second = np.sum(arr >= 300.0)
        assert abs(first - 1500) <= 3 * math.sqrt(1500)
        assert abs(second - 9000) <= 3 * math.sqrt(9000)

    def test_continuous_thinning_tracks_ramp(self):
        spec = WorkloadSpec(mode="continuous", rate_points=((0.0, 5.0), (600.0, 50.0)))
        arr = generate_arrivals(spec, 600.0, seed=3)
        lo = np.sum(arr < 100.0)  # mean rate ~8.75 over [0,100)
        hi = np.sum(arr >= 500.0)  # mean rate ~46.25 over [500,600)
        assert abs(lo - 875) <= 4 * math.sqrt(875)
        assert abs(hi - 4625) <= 4 * math.sqrt(4625)

    def test_deterministic_given_seed(self):
        spec = WorkloadSpec(mode="discrete", rate_schedule=((0.0, 7.0), (50.0, 3.0)))
        a = generate_arrivals(spec, 200.0, seed=42)
        b = generate_arrivals(spec, 200.0, seed=42)
        assert np.array_equal(a, b)

    def test_trace_round_trip(self):
        counts = (3, 0, 17, 1, 0, 250, 42)
        spec = WorkloadSpec(mode="trace", per_minute_counts=counts)
        arr = generate_arrivals(spec, 60.0 * len(counts), seed=5)
        binned = np.bincount((arr // 60).astype(int), minlength=len(counts))
        assert tuple(binned) == counts

    def test_expected_arrivals_clip_to_the_horizon(self):
        discrete = WorkloadSpec(mode="discrete",
                                rate_schedule=((0.0, 2.0), (5.0, 4.0), (50.0, 9.0)))
        assert expected_arrivals(discrete, 10.0) == 2.0 * 5 + 4.0 * 5
        assert expected_arrivals(discrete, 60.0) == 2.0 * 5 + 4.0 * 45 + 9.0 * 10
        # continuous mode counts the thinning draws at the envelope rate
        ramp = WorkloadSpec(mode="continuous", rate_points=((0.0, 1.0), (10.0, 3.0)))
        assert expected_arrivals(ramp, 20.0) == 3.0 * 20
        # a trace minute that starts before the horizon draws all its arrivals
        trace = WorkloadSpec(mode="trace", per_minute_counts=(5, 7, 9))
        assert expected_arrivals(trace, 120.0) == 12
        assert expected_arrivals(trace, 121.0) == 21

    # a bad schedule is caught where `scenario` reads it: WorkloadSpec
    # trusts what it is given
    def test_invalid_schedules(self):
        assert config_error(f"{WORKLOAD}={{mode: discrete, schedule: []}}").startswith(
            f"{WORKLOAD}.schedule: must not be empty")
        assert config_error(f"{WORKLOAD}={{mode: discrete, schedule: [[0, 5], [0, 6]]}}"
                            ).startswith(f"{WORKLOAD}.schedule[1]: time must be > 0.0")
        assert config_error(f"{WORKLOAD}.rate=-1").startswith(
            f"{WORKLOAD}.rate: must be in [0, inf), got -1.0")

    def test_unknown_mode(self):
        assert config_error(f"{WORKLOAD}.mode=poisson").startswith(
            f"{WORKLOAD}.mode: must be one of static|discrete|continuous|trace, got 'poisson'")

    @pytest.mark.parametrize("mode, key", [("discrete", "schedule"), ("continuous", "points")])
    def test_rate_pairs_checked_alike_in_every_mode(self, mode, key):
        at = f"{WORKLOAD}.{key}"
        for pairs, problem in (("[[0, 1], [0, 2]]", "[1]: time must be > 0.0, the time before "
                                                    "it, got 0.0"),
                               ("[[5, 1], [1, 2]]", "[1]: time must be > 5.0, the time before "
                                                    "it, got 1.0"),
                               ("[[0, -1]]", "[0]: must be in [0, inf), got -1.0"),
                               ("[]", ": must not be empty")):
            assert config_error(f"{WORKLOAD}={{mode: {mode}, {key}: {pairs}}}") == at + problem

    @pytest.mark.parametrize("bad, value", [(".nan", "nan"), (".inf", "inf"), ("-.inf", "-inf")])
    @pytest.mark.parametrize("mode, key, pairs, at", [
        ("discrete", "schedule", "[[0, {}]]", "[0]"),
        ("discrete", "schedule", "[[0, 1], [{}, 2]]", "[1]"),
        ("continuous", "points", "[[0, {}], [10, 1]]", "[0]"),
        ("continuous", "points", "[[{}, 1]]", "[0]"),
    ], ids=["discrete-rate", "discrete-time", "continuous-rate", "continuous-time"])
    def test_non_finite_schedule_values_rejected(self, mode, key, pairs, at, bad, value):
        assert config_error(f"{WORKLOAD}={{mode: {mode}, {key}: {pairs.format(bad)}}}") == (
            f"{WORKLOAD}.{key}{at}: must be in [0, inf), got {value}")

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_trace_count_rejected(self, tmp_path, bad):
        (tmp_path / "t.csv").write_text(f"f,0,3\nf,1,{bad}\n")
        assert config_error(f"{WORKLOAD}={{mode: trace, file: t.csv, function: f}}",
                            base_dir=tmp_path).startswith(
            f"{WORKLOAD}.file: {tmp_path / 't.csv'}: line 2: bad integer field")

    # `generate_arrivals` takes the scenario's horizon as finite and > 0: a
    # bad one ends at `horizon_seconds`, whatever the workload's mode
    @pytest.mark.parametrize("workload", [
        "{mode: static, rate: 1.0}",
        "{mode: discrete, schedule: [[0, 1.0], [5, 0.0]]}",
        "{mode: continuous, points: [[0, 1.0]]}",
        "{mode: trace, file: t.csv, function: f}",
    ], ids=["static", "discrete", "continuous", "trace"])
    @pytest.mark.parametrize("horizon", [math.inf, math.nan, -math.inf])
    def test_non_finite_horizon_rejected(self, tmp_path, workload, horizon):
        (tmp_path / "t.csv").write_text("f,0,3\n")
        assert config_error(f"{WORKLOAD}={workload}", f"horizon_seconds={horizon}",
                            base_dir=tmp_path) == (
            f"horizon_seconds: must be in (0, inf), got {horizon}")


class TestBlockDraws:
    """Block draws give the scalar reference kernel's arrays byte for byte."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_tenant_churn_streams(self, seed):
        scn = scenario.load(REPO_ROOT / "perfbench" / "scenarios" / "tenant_churn.yaml",
                            overrides=[f"seed={seed}"])
        fids = sorted(scn.functions)
        children = np.random.SeedSequence(seed).spawn(2 * len(fids))
        assert len(fids) == 12
        for fid, child in zip(fids, children):
            arr = assert_equals_reference(scn.workloads[fid], scn.horizon_s, child)
            assert len(arr) > 4000

    @pytest.mark.parametrize("seed", [0, 7])
    def test_six_function_trace(self, seed):
        traces = load_trace(REPO_ROOT / "traces" / "six_function_hour.csv")
        assert len(traces) == 6
        for i, counts in enumerate(traces.values()):
            spec = WorkloadSpec(mode="trace", per_minute_counts=counts)
            assert_equals_reference(spec, 3600.0, (seed, i))

    @pytest.mark.parametrize("spec, horizon", [
        (discrete((0.0, 0.0), (10.0, 5.0), (20.0, 0.0), (30.0, 8.0)), 40.0),
        (discrete((12.5, 3.0), (40.0, 0.5)), 60.0),  # first start after 0
        (discrete((0.0, 2.0), (50.0, 9.0), (70.0, 4.0)), 50.0),  # start at the horizon
        (discrete((0.0, 2.0), (80.0, 9.0)), 50.0),  # start past the horizon
        (discrete((0.0, 4.0), (30.0, 6.0)), 37.3),  # horizon cuts a segment
        # segments too short or too slow to hold an arrival
        (discrete((0.0, 0.01), (1.0, 5.0), (1.001, 0.02), (2.0, 3.0)), 9.0),
        (WorkloadSpec(mode="static", rate_schedule=((0.0, 7.0),)), 100.0),
    ])
    @pytest.mark.parametrize("seed", range(5))
    def test_discrete_edge_schedules(self, spec, horizon, seed):
        arr = assert_equals_reference(spec, horizon, seed)
        if len(arr):
            assert arr[0] >= spec.rate_schedule[0][0] and arr[-1] < horizon

    @pytest.mark.parametrize("seed", range(3))
    def test_segments_longer_than_a_block(self, seed):
        # each 12/s segment holds about 2.5 blocks of draws
        spec = discrete((0.0, 12.0), (900.0, 0.0), (1000.0, 3.0), (1100.0, 14.0))
        assert 12.0 * 900.0 > 2 * BLOCK and 14.0 * 900.0 > 2 * BLOCK
        assert_equals_reference(spec, 2000.0, seed)

    @pytest.mark.parametrize("counts, horizon", [
        ((0, 0, 5, 0, 17), 300.0),  # minutes with no arrivals
        ((4, 9, 300, 2), 150.5),  # a horizon that is not a multiple of 60
        ((8, 6, 7, 5), 120.0),  # counts past the horizon
        ((5000, 1, 0, 6000), 200.0),  # more than a block in one minute
        ((0, 0), 100.0),
        ((), 30.0),
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_trace_edge_counts(self, counts, horizon, seed):
        spec = WorkloadSpec(mode="trace", per_minute_counts=counts)
        assert_equals_reference(spec, horizon, seed)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_schedules(self, seed):
        rng = np.random.default_rng(1000 + seed)
        for _ in range(20):
            k = int(rng.integers(1, 8))
            starts = np.cumsum(rng.uniform(0.0, 50.0, k))
            if rng.random() < 0.5:
                starts[0] = 0.0
            rates = rng.choice([0.0, 0.5, 3.0, 40.0, 200.0], k)
            spec = discrete(*zip(starts.tolist(), rates.tolist()))
            horizon = float(rng.uniform(1.0, 300.0))
            arr = assert_equals_reference(spec, horizon, int(rng.integers(1 << 30)))
            # segments are concatenated in time order, with no sort
            assert np.all(np.diff(arr) >= 0)
            counts = rng.choice([0, 0, 1, 5, 300, 3000], int(rng.integers(0, 12)))
            spec = WorkloadSpec(mode="trace", per_minute_counts=tuple(counts.tolist()))
            assert_equals_reference(spec, float(rng.uniform(1.0, 800.0)), seed)


class TestTraceLoader:
    def test_simple_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "function_id,minute_index,count\n"
            + "".join(f"f1,{m},3\n" for m in range(60))
        )
        traces = load_trace(p)
        assert len(traces) == 1
        assert list(traces) == ["f1"]
        assert traces["f1"] == (3,) * 60

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        assert load_trace(p) == {}

    def test_gaps_fill_with_zero(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("f1,0,5\nf1,3,2\n")
        assert load_trace(p)["f1"] == (5, 0, 0, 2)

    def test_functions_in_first_appearance_order(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("zz,1,1\naa,0,2\nzz,0,3\n")
        assert load_trace(p) == {"zz": (3, 1), "aa": (2,)}
        assert list(load_trace(p)) == ["zz", "aa"]

    def test_parse_error_carries_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("f1,0,5\nf1,oops,2\n")
        with pytest.raises(ParseError, match="line 2"):
            load_trace(p)

    def test_negative_count_is_schema_error(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("f1,0,-5\n")
        with pytest.raises(ParseError):
            load_trace(p)

    def test_duplicate_minute_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("f1,0,5\nf1,0,6\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_trace(p)

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("f1,0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_trace(p)

    def test_shipped_fixture(self):
        from pathlib import Path

        fixture = Path(__file__).parent.parent / "traces" / "six_function_hour.csv"
        traces = load_trace(fixture)
        assert len(traces) == 6
        for counts in traces.values():
            assert len(counts) == 60
        # one sporadic on/off trace: long idle stretches yet real load overall
        sporadic = [
            counts for counts in traces.values()
            if sum(1 for c in counts if c == 0) >= 20
            and sum(counts) > 0
        ]
        assert sporadic, "fixture must include an on/off function"


# The reference estimator: the scalar loop the simulator ran before
# `estimate_rates`, committing each tick up to an epoch in turn, each tick
# the last one plus `tick` and its windows one `np.searchsorted` of three
# cutoffs. `estimate_rates` must give its estimates bit for bit.

def reference_window_rates(arrivals, now, long_window, short_window) -> tuple:
    """(long-window rate, short-window rate) of sorted `arrivals` at `now`."""
    cutoffs = (now - long_window, now - short_window, now)
    first_long, first_short, end = np.searchsorted(arrivals, cutoffs, side="right").tolist()
    return (end - first_long) / long_window, (end - first_short) / short_window


def reference_estimates(arrivals, epochs, long_window, short_window, tick, burst_factor,
                        alpha, branches) -> list:
    """The estimate at each of the ascending `epochs`; each tick adds the
    branch its rule took ("burst", "ewma" or "snap") to `branches`."""
    ewma, last_tick, out = None, 0.0, []
    for epoch in epochs:
        while last_tick + tick <= epoch:
            last_tick += tick
            r_long, r_short = reference_window_rates(arrivals, last_tick, long_window,
                                                     short_window)
            if r_short > 0 and r_short >= burst_factor * r_long:
                value, branch = r_short, "burst"
            else:
                value = r_long if ewma is None else alpha * r_long + (1 - alpha) * ewma
                branch = "ewma"
                if value < 0.5 / long_window:
                    branch = "snap" if value > 0 else branch
                    value = 0.0
            ewma = value
            branches.add(branch)
        out.append(0.0 if ewma is None else ewma)
    return out


def bursty_arrivals(seed, horizon=600.0) -> np.ndarray:
    """A steady rate, a burst, a silence long enough to snap, then a random
    rate; half the arrivals rounded to whole seconds, so some fall on ticks
    and on window edges."""
    rng = np.random.default_rng(seed)
    burst_at = float(rng.integers(60, 150))
    spec = discrete((0.0, float(rng.uniform(0.5, 3.0))), (burst_at, float(rng.uniform(20, 40))),
                    (burst_at + float(rng.integers(5, 20)), 0.0),
                    (burst_at + 300.0, float(rng.uniform(0.0, 5.0))))
    arrivals = generate_arrivals(spec, horizon, seed)
    arrivals[::2] = np.round(arrivals[::2])
    return np.sort(arrivals)


def epoch_grid(epoch_s, horizon) -> np.ndarray:
    """Epoch times by repeated addition up to `horizon`, as the simulator builds them."""
    times, t = [], epoch_s
    while t <= horizon:
        times.append(t)
        t += epoch_s
    return np.array(times)


class TestRateEstimator:
    @pytest.mark.parametrize("seed", range(20))
    def test_window_counts_match_brute_force(self, seed):
        # one tick, at `now`: with bursts out of reach and alpha 1 the
        # estimate is the long-window rate, and with every nonzero short
        # window a burst it is the short-window rate unless that is 0
        rng = np.random.default_rng(seed)
        long_window, short_window = float(rng.integers(20, 130)), float(rng.integers(1, 20))
        now = float(rng.integers(1, 300) + rng.choice([0.0, 0.25, 0.5]))
        edges = [now - long_window, now - short_window, now]
        times = np.concatenate([
            rng.uniform(now - 2 * long_window, now + 20.0, rng.integers(0, 200)),
            np.repeat(edges, rng.integers(1, 4, size=3)),  # repeated, at each cutoff
            np.round(rng.uniform(now - long_window, now, 30)),  # integer ties
        ])
        arrivals = np.sort(times)
        r_long, r_short = (sum(1 for t in arrivals.tolist() if now - w < t <= now) / w
                           for w in (long_window, short_window))
        settings = estimator(long_window=long_window, short_window=short_window, tick=now,
                             alpha=1.0)
        epochs = np.array([now])
        assert estimate_rates(arrivals, epochs, **{**settings, "burst_factor": 1e300}) == [r_long]
        assert estimate_rates(arrivals, epochs, **{**settings, "burst_factor": 1e-300}) == [
            r_short or r_long]

    def test_steady_rate_recovered(self):
        arrivals = np.arange(10 * 130) * 0.1  # exactly 10/s for 130 s
        (value,) = estimate_rates(arrivals, np.array([130.0]), **estimator())
        assert value == pytest.approx(10.0, abs=1.0)

    def test_burst_bypasses_smoothing(self):
        # long window ~5/s, short window 12/s => 12 >= 2*long -> burst
        t = 200.0
        arrivals = np.concatenate([
            80.0 + np.arange(550) * (110.0 / 550.0),
            190.0 + np.arange(120) * (10.0 / 120.0),
        ])
        r_long, r_short = reference_window_rates(arrivals, t, 120.0, 10.0)
        assert r_short >= 2 * r_long
        assert estimate_rates(arrivals, np.array([t]), **estimator()) == [r_short]

    def test_ewma_weighting(self):
        # 10/s over (0, 120], then 20/s over (120, 240]: one tick at each
        # end, neither a burst; the second folds 20/s into the first's 10/s
        arrivals = np.concatenate([np.arange(1, 1201) / 10.0, 120.0 + np.arange(1, 2401) / 20.0])
        first, second = estimate_rates(arrivals, np.array([120.0, 240.0]),
                                       **estimator(alpha=0.7, tick=120.0))
        assert first == 10.0
        assert second == pytest.approx(0.7 * 20.0 + 0.3 * 10.0)

    def test_empty_state_yields_zero(self):
        assert estimate_rates(np.array([]), np.array([2.0, 100.0]), **estimator()) == [0.0, 0.0]
        # before the first tick an epoch reads 0.0, whatever has arrived
        assert estimate_rates(np.array([0.5, 1.0]), np.array([2.0]), **estimator()) == [0.0]
        assert estimate_rates(np.array([0.5]), np.array([]), **estimator()) == []

    def test_step_detection_lag(self):
        # step a=4/s -> b=12/s at t=300: within short_window + tick the
        # estimate sees the burst and is >= 0.8*b undamped, though the
        # arrivals after its tick are in the array too
        times = []
        t = 0.0
        while t < 300.0:
            times.append(t)
            t += 1 / 4.0
        while t < 320.0:
            times.append(t)
            t += 1 / 12.0
        (value,) = estimate_rates(np.array(times), np.array([315.0]), **estimator())
        assert value >= 0.8 * 12.0

    # estimator settings are checked where `scenario` reads them: a zero
    # tick would never pass the last epoch
    def test_invalid_config(self):
        assert config_error("estimator.long_window=10", "estimator.short_window=10") == (
            "estimator.short_window: must be < long_window 10.0, got 10.0")
        assert config_error("estimator.alpha=0").startswith(
            "estimator.alpha: must be in (0, 1], got 0.0")
        assert config_error("estimator.burst_factor=1").startswith(
            "estimator.burst_factor: must be in (1, inf), got 1.0")

    @pytest.mark.parametrize("tick", ["0", "-5", ".nan", ".inf"])
    def test_tick_must_be_positive_and_finite(self, tick):
        assert config_error(f"estimator.tick={tick}").startswith(
            "estimator.tick: must be in (0, inf)")

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("tick", [5.0, 3.0, 20.0])
    def test_equals_the_reference_bit_for_bit(self, tick, seed):
        # 10 s epochs: 5 s ticks divide them, 3 s and 20 s ones do not, and
        # 20 s ones leave the first epoch without a tick
        arrivals = bursty_arrivals(seed)
        epochs = epoch_grid(10.0, 600.0)
        settings = estimator(long_window=60.0, tick=tick)
        branches = set()
        want = reference_estimates(arrivals, epochs.tolist(), **settings, branches=branches)
        assert estimate_rates(arrivals, epochs, **settings) == want
        assert branches == {"burst", "ewma", "snap"}
        assert (want[0] == 0.0) == (tick > 10.0)
        no_arrivals = reference_estimates(np.array([]), epochs.tolist(), **settings,
                                          branches=set())
        assert estimate_rates(np.array([]), epochs, **settings) == no_arrivals == [0.0] * 60

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_the_reference_at_any_epochs(self, seed):
        # epochs off any grid, some equal, some before the first tick, and
        # more than a block of ticks
        rng = np.random.default_rng(seed)
        arrivals = bursty_arrivals(seed, horizon=20_000.0)
        epochs = np.sort(np.concatenate([rng.uniform(0, 20_000.0, 30), [0.1, 0.1, 500.0]]))
        settings = estimator(tick=float(rng.uniform(1.0, 4.0)), alpha=float(rng.uniform(0.1, 1)))
        want = reference_estimates(arrivals, epochs.tolist(), **settings, branches=set())
        assert estimate_rates(arrivals, epochs, **settings) == want

    @pytest.mark.parametrize("seed", range(10))
    def test_estimates_read_no_later_arrival(self, seed):
        # causality: the estimates at every epoch up to a cut time equal
        # those from the arrivals up to it alone; cuts fall on arrivals, on
        # epochs and between them
        rng = np.random.default_rng(seed)
        arrivals = bursty_arrivals(seed)
        epochs = epoch_grid(10.0, 600.0)
        settings = estimator(long_window=60.0, tick=float(rng.choice([3.0, 5.0, 20.0])))
        full = estimate_rates(arrivals, epochs, **settings)
        cuts = np.concatenate([arrivals[::40], epochs, rng.uniform(0, 600.0, 20)]).tolist()
        for cut in cuts:
            seen = arrivals[:np.searchsorted(arrivals, cut, side="right")]
            n = int(np.searchsorted(epochs, cut, side="right"))
            assert estimate_rates(seen, epochs, **settings)[:n] == full[:n], cut

    def test_ticks_at_the_limit_take_constant_memory_and_little_time(self):
        # `scenario.MAX_TICKS` ticks and ten epochs, at 1 arrival/s: ticks go
        # `BLOCK` at a time, so the traced peak does not grow with their count
        arrivals = np.arange(scenario.MAX_TICKS) + 0.5
        settings = estimator(tick=1.0)

        def peak(n_ticks):
            epochs = n_ticks // 10 * np.arange(1.0, 11.0)
            tracemalloc.start()
            try:
                estimate_rates(arrivals, epochs, **settings)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(scenario.MAX_TICKS) <= peak(10_000) + 1_000_000
        with time_limit(5.0):
            estimate_rates(arrivals, scenario.MAX_TICKS // 10 * np.arange(1.0, 11.0), **settings)
