"""Whole-system metamorphic relations: known input changes give known output changes.

- Time scale. Dividing every time quantity by k and multiplying every rate
  by k, for k a power of two, divides every arrival, dispatch and completion
  time by k bit for bit, since each sum, product and quotient then scales
  exactly. Statuses, container ids, reruns and `utilization_allocated` stay
  equal, and each epoch record differs only in its time (divided by k) and
  its rate estimate (multiplied by k). A constant in absolute seconds
  anywhere in the estimator, the planner or the event loop breaks it.
- Weights. Multiplying every user and function weight by 4 leaves the
  output files byte-identical: fair share reads weights as proportions.
- Order. Reversing the functions, or the users, in the scenario file leaves
  the output files byte-identical.

Trace mode is not scaled: its per-minute counts fix a 60 s unit.
"""

import copy
import dataclasses

import numpy as np
import pytest

from edgescale import cli, scenario as scenario_mod, simulator
from scenario_builders import REPO_ROOT

# Static and discrete arrivals, WRR dispatch, deflation with inflation,
# exponential and deterministic service, waiting SLOs, two weighted users.
DISCRETE_WRR_DEFLATION = {
    "horizon_seconds": 160.0,
    "seed": 3,
    "dispatch": "wrr",
    "cluster": {"nodes": [{"vcpu": 2.0, "memory_mb": 4096.0}] * 2},
    "controller": {"epoch_seconds": 10.0, "reclamation": "deflation", "inflation": True},
    "estimator": {"long_window": 60.0, "short_window": 10.0, "tick": 5.0},
    "users": [{"id": "u0", "weight": 1.0}, {"id": "u1", "weight": 3.0}],
    "functions": [
        {"id": "a", "user": "u0", "size": {"vcpu": 0.5, "memory_mb": 256.0},
         "slo": {"deadline": 0.1, "percentile": 0.95},
         "service": {"distribution": "exponential", "rate": 10.0},
         "cold_start_seconds": 0.5,
         "workload": {"mode": "discrete",
                      "schedule": [[0, 10], [40, 60], [80, 5], [120, 50]]},
         "initial_containers": 2},
        {"id": "b", "user": "u1", "weight": 2.0, "size": {"vcpu": 0.5, "memory_mb": 256.0},
         "slo": {"deadline": 0.2, "percentile": 0.9},
         "service": {"distribution": "deterministic", "rate": 8.0},
         "cold_start_seconds": 1.0,
         "workload": {"mode": "discrete", "schedule": [[0, 5], [60, 40], [100, 5]]},
         "initial_containers": 1},
        {"id": "c", "user": "u1", "size": {"vcpu": 0.25, "memory_mb": 128.0},
         "slo": {"deadline": 0.25, "percentile": 0.95},
         "service": {"distribution": "exponential", "rate": 5.0},
         "workload": {"mode": "static", "rate": 6.0},
         "initial_containers": [0.5]},
    ],
}

# Continuous arrivals, worst-case dispatch, termination with inflation off,
# empirical service, timeouts and response SLOs.
CONTINUOUS_WORST_CASE_TERMINATION = {
    "horizon_seconds": 120.0,
    "seed": 5,
    "dispatch": "worst_case",
    "cluster": {"nodes": [{"vcpu": 2.0, "memory_mb": 4096.0}] * 2},
    "controller": {"epoch_seconds": 8.0, "reclamation": "termination", "inflation": False},
    "estimator": {"long_window": 40.0, "short_window": 8.0, "tick": 4.0},
    "users": [{"id": "u0", "weight": 2.0}, {"id": "u1", "weight": 1.0}],
    "functions": [
        {"id": "p", "user": "u0", "size": {"vcpu": 0.5, "memory_mb": 256.0},
         "slo": {"deadline": 0.5, "percentile": 0.9, "applies_to": "response"},
         "service": {"distribution": "empirical", "rate": 6.0,
                     "samples": [0.05, 0.1, 0.125, 0.2, 0.375]},
         "cold_start_seconds": 0.75, "timeout_seconds": 1.0,
         "workload": {"mode": "continuous", "points": [[0, 4], [30, 40], [70, 2], [100, 30]]},
         "initial_containers": 1},
        {"id": "q", "user": "u1", "size": {"vcpu": 0.5, "memory_mb": 256.0},
         "slo": {"deadline": 0.5, "percentile": 0.95, "applies_to": "response"},
         "service": {"distribution": "exponential", "rate": 8.0},
         "cold_start_seconds": 0.25, "timeout_seconds": 0.5,
         "workload": {"mode": "continuous", "points": [[0, 30], [50, 5], [90, 35]]},
         "initial_containers": 2},
    ],
}

SCENARIOS = {"discrete_wrr_deflation": DISCRETE_WRR_DEFLATION,
             "continuous_worst_case_termination": CONTINUOUS_WORST_CASE_TERMINATION}
OUTPUTS = ("requests.csv", "epochs.csv", "summary.txt")


def build(doc):
    return scenario_mod.from_dict(copy.deepcopy(doc), base_dir=REPO_ROOT)


def default(section, key):
    return scenario_mod.FIELDS[section][key][1]


def time_scaled(doc, k):
    """`doc` with every time quantity divided by `k` and every rate multiplied by it."""
    out = copy.deepcopy(doc)
    out["horizon_seconds"] /= k
    ctrl = out.setdefault("controller", {})
    ctrl["epoch_seconds"] = ctrl.get("epoch_seconds", default("controller", "epoch_seconds")) / k
    est = out.setdefault("estimator", {})
    for key in ("long_window", "short_window", "tick"):
        est[key] = est.get(key, default("estimator", key)) / k
    for fn in out["functions"]:
        fn["slo"]["deadline"] /= k
        fn["cold_start_seconds"] = fn.get("cold_start_seconds",
                                          default("function", "cold_start_seconds")) / k
        if "timeout_seconds" in fn:
            fn["timeout_seconds"] /= k
        fn["service"]["rate"] *= k
        fn["service"]["samples"] = [s / k for s in fn["service"].get("samples", [])]
        wl = fn["workload"]
        if wl["mode"] == "static":
            wl["rate"] *= k
        else:
            key = "schedule" if wl["mode"] == "discrete" else "points"
            wl[key] = [[t / k, r * k] for t, r in wl[key]]
    return out


def write_outputs(doc, out_dir) -> dict:
    cli.run_scenario_to_dir(build(doc), out_dir)
    return {name: (out_dir / name).read_bytes() for name in OUTPUTS}


@pytest.fixture(scope="module")
def base_runs():
    return {name: simulator.run(build(doc)) for name, doc in SCENARIOS.items()}


def test_scenarios_exercise_the_controller(base_runs):
    # the relations below say little about a run in which nothing happens
    for m in base_runs.values():
        assert m.cold_starts > 0 and sum(e.creates for e in m.epochs) > 0
        assert any(e.rate_estimate > 0 for e in m.epochs)
        assert np.count_nonzero(m.requests.status == simulator.COMPLETED) > 1000
    wrr = base_runs["discrete_wrr_deflation"]
    assert sum(e.deflates for e in wrr.epochs) > 0 and sum(e.inflates for e in wrr.epochs) > 0
    assert any(e.overloaded for e in wrr.epochs)
    worst = base_runs["continuous_worst_case_termination"]
    assert sum(e.terminates for e in worst.epochs) > 0 and worst.reruns > 0
    assert np.count_nonzero(worst.requests.status == simulator.DROPPED) > 0


@pytest.mark.parametrize("k", [2.0, 0.5])
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_time_scale(base_runs, name, k):
    base = base_runs[name]
    scaled = simulator.run(build(time_scaled(SCENARIOS[name], k)))
    b, s = base.requests, scaled.requests
    assert s.function_ids == b.function_ids
    for column in ("arrival", "dispatch", "completion"):
        np.testing.assert_array_equal(getattr(s, column), getattr(b, column) / k,
                                      err_msg=column)
    for column in ("function", "container_id", "status", "reruns"):
        np.testing.assert_array_equal(getattr(s, column), getattr(b, column), err_msg=column)
    assert scaled.allocated_utilization == base.allocated_utilization
    assert (scaled.cold_starts, scaled.reruns, scaled.create_failures) == (
        base.cold_starts, base.reruns, base.create_failures)
    assert len(scaled.epochs) == len(base.epochs)
    for e, want in zip(scaled.epochs, base.epochs):
        assert (e.time, e.rate_estimate) == (want.time / k, want.rate_estimate * k), e.epoch
        assert dataclasses.replace(e, time=want.time, rate_estimate=want.rate_estimate) == want


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_weights_scale_out(tmp_path, name):
    doc = SCENARIOS[name]
    heavy = copy.deepcopy(doc)
    for entry in heavy["users"] + heavy["functions"]:
        entry["weight"] = entry.get("weight", 1.0) * 4
    assert write_outputs(heavy, tmp_path / "heavy") == write_outputs(doc, tmp_path / "base")


@pytest.mark.parametrize("section", ["functions", "users"])
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_file_order_does_not_matter(tmp_path, name, section):
    doc = SCENARIOS[name]
    reversed_doc = copy.deepcopy(doc)
    reversed_doc[section].reverse()
    assert (write_outputs(reversed_doc, tmp_path / "reversed")
            == write_outputs(doc, tmp_path / "base"))
