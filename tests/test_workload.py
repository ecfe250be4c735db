"""Workload generators, trace ingestion, and the dual-window rate estimator."""

import math

import numpy as np
import pytest

from edgescale import scenario
from edgescale.errors import InvalidParameter, ParseError
from edgescale.scenario import load_trace
from edgescale.workload import (
    BLOCK,
    WorkloadSpec,
    expected_arrivals,
    generate_arrivals,
)
from scenario_builders import REPO_ROOT, config_error, estimator

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
        with pytest.raises(InvalidParameter):
            generate_arrivals(WorkloadSpec(mode="static", rate_schedule=((0.0, 1.0),)), 0.0, 1)

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

    @pytest.mark.parametrize("spec", [
        WorkloadSpec(mode="static", rate_schedule=((0.0, 1.0),)),
        WorkloadSpec(mode="discrete", rate_schedule=((0.0, 1.0), (5.0, 0.0))),
        WorkloadSpec(mode="continuous", rate_points=((0.0, 1.0),)),
        WorkloadSpec(mode="trace", per_minute_counts=(3,)),
    ], ids=lambda spec: spec.mode)
    @pytest.mark.parametrize("horizon", [math.inf, math.nan, -math.inf])
    def test_non_finite_horizon_rejected(self, spec, horizon):
        with pytest.raises(InvalidParameter, match=f"got {horizon}"):
            generate_arrivals(spec, horizon, 1)


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


class TestRateEstimator:
    @pytest.mark.parametrize("seed", range(20))
    def test_window_counts_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        est = estimator(long_window=float(rng.integers(20, 130)),
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
        est = estimator()
        arrivals = np.arange(10 * 130) * 0.1  # exactly 10/s for 130 s
        for tick in range(25, 27):
            est.update(arrivals, tick * 5.0)
        assert est.value == pytest.approx(10.0, abs=1.0)

    def test_burst_bypasses_smoothing(self):
        est = estimator()
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
        est = estimator(alpha=0.7)
        est.ewma = 10.0
        # craft a non-burst raw of 20/s in the long window
        arrivals = np.arange(20 * 120) / 20.0
        now = float(arrivals[-1])
        r_long, r_short = est.window_rates(arrivals, now)
        assert r_long == pytest.approx(20.0, abs=0.1)
        assert est.update(arrivals, now) == pytest.approx(0.7 * r_long + 0.3 * 10.0, abs=0.1)

    def test_empty_state_yields_zero(self):
        est = estimator()
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
        est = estimator()
        for tick_time in np.arange(5.0, 301.0, 5.0):
            est.update(arrivals, float(tick_time))
        value = est.update(arrivals, 315.0)  # first tick after short window fills
        assert value >= 0.8 * 12.0

    def test_ewma_is_state_not_an_argument(self):
        assert estimator().ewma is None
        with pytest.raises(TypeError):
            estimator(ewma=5.0)

    # estimator settings are checked where `scenario` reads them: a
    # RateEstimator built with a zero tick would never reach `now`
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

    @pytest.mark.parametrize("tick, epoch", [(5.0, 10.0), (3.0, 10.0), (15.0, 10.0)])
    def test_value_at_equals_an_update_at_every_tick(self, tick, epoch):
        # 1/s, a 20/s burst from 60 s to 70 s, then silence: the estimate
        # passes the burst through undamped, then decays and snaps to zero.
        # The reference updates at every tick and reads at every epoch, both
        # built by repeated addition, a tick before an epoch at equal times.
        rng = np.random.default_rng(4)
        arrivals = np.sort(np.concatenate([rng.uniform(0, 60, 60), rng.uniform(60, 70, 200)]))
        est, ref = (estimator(long_window=60.0, tick=tick) for _ in range(2))
        got, want = [], []
        next_tick, next_epoch = tick, epoch
        while min(next_tick, next_epoch) <= 300.0:
            if next_tick <= next_epoch:
                ref.update(arrivals, next_tick)
                next_tick += tick
            else:
                got.append(est.value_at(arrivals, next_epoch))
                want.append(ref.value)
                next_epoch += epoch
        assert got == want
        assert max(want) >= 10.0  # the burst: the long window never tops 4.5/s
        assert want[-1] == 0.0  # the snap: an EWMA alone would stay positive
