"""Workload generators, trace ingestion, and the dual-window rate estimator."""

import math

import numpy as np
import pytest

from edgescale.errors import (
    InvalidSchedule,
    ParseError,
    SchemaError,
)
from edgescale.workload import (
    InvocationTrace,
    RateEstimator,
    WorkloadSpec,
    expected_arrivals,
    generate_arrivals,
    load_trace,
)


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

    def test_invalid_schedules(self):
        with pytest.raises(InvalidSchedule):
            WorkloadSpec(mode="static", rate_schedule=())
        with pytest.raises(InvalidSchedule):
            WorkloadSpec(mode="discrete", rate_schedule=((0.0, 5.0), (0.0, 6.0)))
        with pytest.raises(InvalidSchedule):
            WorkloadSpec(mode="static", rate_schedule=((0.0, -1.0),))
        with pytest.raises(InvalidSchedule):
            generate_arrivals(WorkloadSpec(mode="static", rate_schedule=((0.0, 1.0),)), 0.0, 1)


class TestTraceLoader:
    def test_simple_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "function_id,minute_index,count\n"
            + "".join(f"f1,{m},3\n" for m in range(60))
        )
        traces = load_trace(p)
        assert len(traces) == 1
        assert traces[0].function_id == "f1"
        assert traces[0].per_minute_counts == (3,) * 60

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        assert load_trace(p) == []

    def test_gaps_fill_with_zero(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("f1,0,5\nf1,3,2\n")
        assert load_trace(p)[0].per_minute_counts == (5, 0, 0, 2)

    def test_parse_error_carries_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("f1,0,5\nf1,oops,2\n")
        with pytest.raises(ParseError, match="line 2"):
            load_trace(p)

    def test_negative_count_is_schema_error(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("f1,0,-5\n")
        with pytest.raises(SchemaError):
            load_trace(p)

    def test_duplicate_minute_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("f1,0,5\nf1,0,6\n")
        with pytest.raises(SchemaError, match="duplicate"):
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
        for t in traces:
            assert len(t.per_minute_counts) == 60
        # one sporadic on/off trace: long idle stretches yet real load overall
        sporadic = [
            t for t in traces
            if sum(1 for c in t.per_minute_counts if c == 0) >= 20
            and sum(t.per_minute_counts) > 0
        ]
        assert sporadic, "fixture must include an on/off function"


class TestRateEstimator:
    @pytest.mark.parametrize("seed", range(20))
    def test_window_counts_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        est = RateEstimator(long_window=float(rng.integers(20, 130)),
                            short_window=float(rng.integers(1, 20)))
        now = float(rng.integers(0, 300)) + rng.choice([0.0, 0.25, 0.5])
        edges = [now - est.long_window, now - est.short_window, now]
        times = np.concatenate([
            rng.uniform(now - 2 * est.long_window, now + 20.0, rng.integers(0, 200)),
            np.repeat(edges, rng.integers(1, 4, size=3)),  # repeated, at each cutoff
            np.round(rng.uniform(now - est.long_window, now, 30)),  # integer ties
        ])
        arrivals = np.sort(times)
        r_long, r_short = est.window_rates(arrivals, now)
        for window, rate in ((est.long_window, r_long), (est.short_window, r_short)):
            count = sum(1 for t in arrivals.tolist() if now - window < t <= now)
            assert rate == count / window

    def test_steady_rate_recovered(self):
        est = RateEstimator()
        arrivals = np.arange(10 * 130) * 0.1  # exactly 10/s for 130 s
        for tick in range(25, 27):
            est.update(arrivals, tick * 5.0)
        assert est.value == pytest.approx(10.0, abs=1.0)

    def test_burst_bypasses_smoothing(self):
        est = RateEstimator()
        est.ewma = 5.0
        # long window ~5/s, short window 12/s => 12 >= 2*long -> burst
        t = 200.0
        arrivals = np.concatenate([
            80.0 + np.arange(550) * (110.0 / 550.0),
            190.0 + np.arange(120) * (10.0 / 120.0),
        ])
        r_long, r_short = est.window_rates(arrivals, t)
        assert r_short >= 2 * r_long
        assert est.update(arrivals, t) == pytest.approx(r_short)

    def test_ewma_weighting(self):
        est = RateEstimator(alpha=0.7)
        est.ewma = 10.0
        # craft a non-burst raw of 20/s in the long window
        arrivals = np.arange(20 * 120) / 20.0
        now = float(arrivals[-1])
        r_long, r_short = est.window_rates(arrivals, now)
        assert r_long == pytest.approx(20.0, abs=0.1)
        assert est.update(arrivals, now) == pytest.approx(0.7 * r_long + 0.3 * 10.0, abs=0.1)

    def test_empty_state_yields_zero(self):
        est = RateEstimator()
        assert est.value == 0.0
        assert est.update(np.array([]), 100.0) == 0.0
        assert est.value == 0.0

    def test_step_detection_lag(self):
        # step a=4/s -> b=12/s at t=300: within short_window + tick the next
        # update sees the burst and returns >= 0.8*b undamped; every update
        # gets the whole array, arrivals after its tick included
        times = []
        t = 0.0
        while t < 300.0:
            times.append(t)
            t += 1 / 4.0
        while t < 320.0:
            times.append(t)
            t += 1 / 12.0
        arrivals = np.array(times)
        est = RateEstimator()
        for tick_time in np.arange(5.0, 301.0, 5.0):
            est.update(arrivals, float(tick_time))
        value = est.update(arrivals, 315.0)  # first tick after short window fills
        assert value >= 0.8 * 12.0

    def test_invalid_config(self):
        with pytest.raises(InvalidSchedule):
            RateEstimator(long_window=10, short_window=10)
        with pytest.raises(InvalidSchedule):
            RateEstimator(alpha=0.0)
        with pytest.raises(InvalidSchedule):
            RateEstimator(burst_factor=1.0)
