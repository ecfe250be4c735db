"""Tests for the benchmark's own code: statistics, checks, tracing, workloads.

Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

import time

import numpy as np
import pytest
import yaml

import layertrace
import measure
import simstats
import workloads
from edgescale.simulator import EpochRecord, Request

NAN = float("nan")

TINY = """
horizon_seconds: 60.0
seed: 0
cluster:
  nodes:
    - {vcpu: 2.0, memory_mb: 4096.0}
controller: {epoch_seconds: 5.0}
users:
  - {id: a, weight: 1.0}
  - {id: b, weight: 3.0}
functions:
  - id: f1
    user: a
    size: {vcpu: 0.5, memory_mb: 256.0}
    slo: {deadline: 0.2, percentile: 0.95}
    service: {distribution: exponential, rate: 4.0}
    workload: {mode: discrete, schedule: [[0, 3], [20, 12], [40, 3]]}
  - id: f2
    user: b
    size: {vcpu: 0.5, memory_mb: 256.0}
    slo: {deadline: 0.5, percentile: 0.9, applies_to: response}
    service: {distribution: exponential, rate: 8.0}
    workload: {mode: static, rate: 10.0}
"""


def _req(arrival, dispatch=NAN, completion=NAN, status="inflight", fid="f"):
    return Request(function_id=fid, arrival=arrival, dispatch=dispatch,
                   completion=completion, status=status)


def _summary(outcome, alloc=0.0, ticks=0, capacity=1.0):
    return dict(outcome, alloc_vcpu_sum=alloc, epoch_ticks=ticks, capacity_vcpu=capacity)


def test_outcomes_count_unfinished_and_lost_requests():
    arrivals = {"f": np.array([0.0, 1.0, 2.0, 3.0, 4.0])}
    requests = [
        _req(0.0, 0.1, 0.3, "completed"),   # waited 0.1: meets the 0.5 s deadline
        _req(1.0, 2.0, 2.2, "completed"),   # waited 1.0: miss
        _req(2.0, 2.5),                     # in service at the horizon: miss, wait 0.5
        _req(3.0),                          # still queued: miss, wait censored at 7
    ]                                       # arrival at 4.0 never simulated: wait 6
    out = simstats.request_outcomes(arrivals, requests, {"f": (0.5, "waiting")}, 10.0)
    assert (out["generated"], out["recorded"], out["completed"], out["lost"]) == (5, 4, 2, 1)
    assert out["misses"] == 4
    assert sorted(out["waits"]) == pytest.approx([0.1, 0.5, 1.0, 6.0, 7.0])

    pooled = simstats.pool([_summary(out, alloc=3.0, ticks=2, capacity=2.0)])
    assert pooled["failed_frac"] == pytest.approx(3 / 5)
    assert pooled["slo_miss_frac"] == pytest.approx(4 / 5)
    assert pooled["wait_p99_s"] == pytest.approx(6.0 + 0.96 * 1.0)
    assert pooled["alloc_vcpu_frac"] == pytest.approx(3.0 / (2.0 * 2))


def test_response_slo_uses_completion_time():
    arrivals = {"f": np.array([0.0, 1.0])}
    requests = [_req(0.0, 0.0, 0.4, "completed"), _req(1.0, 1.0, 1.6, "completed")]
    out = simstats.request_outcomes(arrivals, requests, {"f": (0.5, "response")}, 10.0)
    assert out["misses"] == 1
    assert simstats.pool([_summary(out)])["failed_frac"] == 0.0


def test_pool_weights_instances_by_requests():
    slos = {"f": (1.0, "waiting")}
    a = simstats.request_outcomes({"f": np.array([0.0])}, [_req(0.0, 0.0, 1.0, "completed")],
                                  slos, 5.0)
    b = simstats.request_outcomes({"f": np.array([0.0, 1.0, 2.0])}, [], slos, 5.0)
    pooled = simstats.pool([_summary(a), _summary(b)])
    assert pooled["generated"] == 4
    assert pooled["failed_frac"] == pytest.approx(3 / 4)
    assert pooled["slo_miss_frac"] == pytest.approx(3 / 4)


def test_pending_peak_counts_queued_requests():
    requests = [_req(0.0, 0.0), _req(1.0, 3.0), _req(1.5, 4.0), _req(2.0), _req(0.0, 1.0, fid="g")]
    # at t=2: requests from 1.0, 1.5 and 2.0 wait; an immediate dispatch never counts
    assert simstats.pending_peak(requests, horizon=10.0) == 3


def _epoch(epoch, fid, alloc):
    return EpochRecord(epoch=epoch, time=10.0 * epoch, function_id=fid, rate_estimate=1.0,
                       c_active=1, c_lazy=0, c_new=1, demand_vcpu=alloc, target_vcpu=alloc,
                       guar_vcpu=alloc, alloc_vcpu=alloc, overloaded=False, infeasible=False)


def test_capacity_check_sums_functions_per_epoch():
    ok = [_epoch(0, "a", 2.0), _epoch(0, "b", 2.0), _epoch(1, "a", 3.0)]
    assert simstats.capacity_errors(ok, capacity=4.0) == []
    bad = ok + [_epoch(1, "b", 1.5)]
    assert len(simstats.capacity_errors(bad, capacity=4.0)) == 1


def test_conservation_check_compares_records_with_arrivals():
    arrivals = {"f": np.array([0.0, 1.0])}
    done = [_req(0.0, 0.0, 1.0, "completed"), _req(1.0)]
    assert simstats.conservation_errors(arrivals, done, completed_run=True) == []
    assert len(simstats.conservation_errors(arrivals, done[:1], completed_run=True)) == 1
    assert simstats.conservation_errors(arrivals, done[:1], completed_run=False) == []
    odd = done + [_req(2.0, status="lost")]  # an unknown status and one record too many
    assert len(simstats.conservation_errors(arrivals, odd, completed_run=False)) == 2


@pytest.fixture
def tiny_workload(tmp_path, monkeypatch):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY)
    monkeypatch.setitem(workloads.SIM_WORKLOADS, "tiny", path)
    return "tiny"


def _edgescale_bindings():
    import edgescale  # noqa: F401

    found = {}
    for mod in layertrace._edgescale_modules():
        for key, value in vars(mod).items():
            found[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("edgescale"):
                for attr, member in vars(value).items():
                    found[(mod.__name__, key, attr)] = member
    return found


def test_traced_run_matches_untraced_and_restores_wrappers(tiny_workload, tmp_path):
    plain = measure.run_simulations(tiny_workload, 3, tmp_path / "plain", time.monotonic())
    before = _edgescale_bindings()
    tracer = layertrace.install(layertrace.Tracer())
    try:
        traced = measure.run_simulations(tiny_workload, 3, tmp_path / "traced", time.monotonic())
    finally:
        tracer.restore()
    after = _edgescale_bindings()

    assert plain["instances"] == traced["instances"]
    assert "requests_sha256" in plain["instances"][0]
    assert plain["stats"] == traced["stats"] and plain["errors"] == []
    assert tracer._patches == []
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)

    layers = layertrace.layer_metrics(tracer)
    assert layers["allocator.plan_epoch.calls"] == 12
    assert layers["workload.generate_arrivals.calls"] == 2
    assert layers["sim.events"] > plain["processed"]
    assert 0 < layers["simulator.run.self_ms"] < tracer.stats["simulator.run"].total_s * 1000


def test_a_raising_run_is_counted_as_failed(tiny_workload, tmp_path, monkeypatch):
    import edgescale.simulator as simulator

    real = simulator.plan_epoch
    calls = []

    def plan_then_fail(*args, **kwargs):
        calls.append(1)
        if len(calls) == 4:
            raise KeyError(99)
        return real(*args, **kwargs)

    monkeypatch.setattr(simulator, "plan_epoch", plan_then_fail)
    result = measure.run_simulations(tiny_workload, 3, tmp_path / "out", time.monotonic())
    (inst,) = result["instances"]
    assert result["failed_operations"] == 1
    assert inst["raised"] == "KeyError" and inst["reached_s"] == pytest.approx(20.0, abs=1.0)
    assert inst["recorded"] < inst["generated"]
    assert result["stats"]["failed_frac"] >= 1 - inst["recorded"] / inst["generated"]
    assert result["errors"] == []


def test_tenant_churn_schedules_are_phase_shifted_square_waves():
    doc = yaml.safe_load(workloads.SIM_WORKLOADS["tenant_churn"].read_text())
    assert [u["weight"] for u in doc["users"]] == [1.0, 2.0, 3.0]
    assert len(doc["functions"]) == 12
    for k, fn in enumerate(doc["functions"]):
        sched = fn["workload"]["schedule"]
        for t in range(0, int(doc["horizon_seconds"])):
            rate = [r for start, r in sched if start <= t][-1]
            assert rate == (12 if (t - 15 * k) % 60 < 30 else 2), (fn["id"], t)


def test_validate_rows_parse_and_check():
    m = measure._ROW.match("hetero c=40 (+10 std)            0.95433     0.93585   0.02947  PASS")
    row = {"label": m["label"], "p_model": float(m["model"]), "p_oracle": float(m["mc"])}
    argv = workloads.validate_argv("hetero_deflated30", 0)
    assert row["label"] == "hetero c=40 (+10 std)"
    assert measure.check_case(argv, row) == []
    argv = workloads.validate_argv("o3_low_load", 0)
    assert measure.check_case(argv, {"label": "homog c=0", "p_model": 0.5, "p_oracle": 1.5})


def test_instance_seeds_batch_only_tenant_churn():
    assert workloads.instance_seeds("trace_overload", 4) == [4]
    assert workloads.instance_seeds("tenant_churn", 1) == list(
        range(workloads.CHURN_BATCH, 2 * workloads.CHURN_BATCH))



def test_operations_count_once_per_seed_not_per_repeat():
    import run

    rep = {"operations": 4, "failed_operations": 3}
    assert run.operation_counts([rep]) == run.operation_counts([rep] * 5) == (4, 3)
