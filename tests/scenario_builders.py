"""Builders for small scenarios in tests."""

import copy
import dataclasses
import math
import signal
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import edgescale.scenario as scenario_mod
from edgescale.errors import ConfigError
from edgescale.simulator import Simulation

REPO_ROOT = Path(__file__).parent.parent

# The smallest scenario `scenario.from_dict` takes: every setting it leaves out
# takes its default from `scenario.FIELDS`, so tests that build model objects
# directly take their settings from its parts and write no default again,
# e.g. `dataclasses.replace(DEFAULTS.controller, tau=0.2)`.
SMALLEST = {
    "horizon_seconds": 60.0,
    "cluster": {"nodes": [{"vcpu": 1.0, "memory_mb": 1024.0}]},
    "functions": [{"id": "f", "size": {"vcpu": 1.0, "memory_mb": 256.0},
                   "slo": {"deadline": 0.1}, "service": {"rate": 10.0},
                   "workload": {"mode": "static", "rate": 1.0}}],
}
DEFAULTS = scenario_mod.from_dict(copy.deepcopy(SMALLEST), base_dir=REPO_ROOT)
DEFAULT_FUNCTION = DEFAULTS.functions["f"]
SLO_PERCENTILE = DEFAULT_FUNCTION.slo.percentile


def function_spec(**changes):
    """A FunctionSpec with the scenario defaults, but for `changes`."""
    return dataclasses.replace(DEFAULT_FUNCTION, **changes)


def slo(deadline, **changes):
    """An SloPolicy with the scenario defaults, but for `deadline` and `changes`."""
    return dataclasses.replace(DEFAULT_FUNCTION.slo, deadline=deadline, **changes)


def profile(base_rate, **changes):
    """A ServiceProfile with the scenario defaults, but for `base_rate` and `changes`."""
    return dataclasses.replace(DEFAULT_FUNCTION.profile, base_rate=base_rate, **changes)


def controller(**changes):
    """A ControllerConfig with the scenario defaults, but for `changes`."""
    return dataclasses.replace(DEFAULTS.controller, **changes)


def estimator(**changes):
    """The estimator settings with the scenario defaults, but for `changes`,
    as keywords of `workload.estimate_rates`."""
    return {**DEFAULTS.estimator_params, **changes}


def config_error(*overrides, base_dir=REPO_ROOT) -> str:
    """The ConfigError message `scenario.from_dict` gives for `SMALLEST` with
    each `key=value` override applied, as `--override` applies it.

    Model classes do not check their arguments, so a bad value is tested
    here, where `scenario` reads it."""
    doc = copy.deepcopy(SMALLEST)
    for item in overrides:
        scenario_mod.apply_override(doc, item)
    with pytest.raises(ConfigError) as info:
        scenario_mod.from_dict(doc, base_dir=base_dir)
    return str(info.value)


def make_scenario(functions, nodes=None, horizon=120.0, seed=7, controller=None,
                  estimator=None, dispatch="wrr", users=None):
    doc = {
        "horizon_seconds": horizon,
        "seed": seed,
        "dispatch": dispatch,
        "cluster": {"nodes": nodes or [{"vcpu": 4.0, "memory_mb": 8192.0}] * 3},
        "controller": controller or {"epoch_seconds": 10.0},
        "functions": functions,
    }
    if estimator:
        doc["estimator"] = estimator
    if users:
        doc["users"] = users
    return scenario_mod.from_dict(doc, base_dir=REPO_ROOT)


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the body once `seconds` of wall time have passed,
    so that a hang fails a test instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def request_counts(metrics, function_id=None) -> dict:
    """Requests generated, and per final status, over one function or all."""
    out = {"generated": 0, "completed": 0, "inflight": 0, "dropped": 0}
    for r in metrics.requests:
        if function_id is None or r.function_id == function_id:
            out["generated"] += 1
            out[r.status] += 1
    return out


def basic_function(fid="f1", rate=10.0, mu=10.0, vcpu=1.0, initial=2, **extra):
    fn = {
        "id": fid,
        "size": {"vcpu": vcpu, "memory_mb": 256.0},
        "slo": {"deadline": 0.1, "percentile": 0.95},
        "service": {"distribution": "exponential", "rate": mu},
        "workload": {"mode": "static", "rate": rate},
        "initial_containers": initial,
    }
    fn.update(extra)
    return fn


CHURN_FUNCTIONS = [
    {
        "id": "a",
        "size": {"vcpu": 1.0, "memory_mb": 256.0},
        "slo": {"deadline": 0.1, "percentile": 0.95},
        "service": {"distribution": "exponential", "rate": 10.0},
        "cold_start_seconds": 0.5,
        "workload": {"mode": "discrete",
                     "schedule": [[0, 20], [40, 60], [80, 10], [120, 60]]},
        "initial_containers": 2,
    },
    {
        "id": "b",
        "size": {"vcpu": 0.5, "memory_mb": 256.0},
        "slo": {"deadline": 0.2, "percentile": 0.9},
        "service": {"distribution": "deterministic", "rate": 8.0},
        "cold_start_seconds": 1.0,
        "workload": {"mode": "discrete",
                     "schedule": [[0, 5], [60, 40], [100, 5], [140, 40]]},
        "initial_containers": 1,
    },
]


def churn_scenario(dispatch="wrr", **controller):
    """Two bursty functions on two small nodes, three simulated minutes.

    The controller cold-starts, deflates, inflates and terminates containers,
    and terminating busy ones reruns requests; `b` has deterministic service.
    Keyword arguments are extra `controller` keys, such as `inflation=False`.
    """
    return make_scenario(CHURN_FUNCTIONS, horizon=180.0, seed=11, dispatch=dispatch,
                         nodes=[{"vcpu": 4.0, "memory_mb": 4096.0}] * 2,
                         controller={"epoch_seconds": 10.0, **controller})


def scanned_free(cluster, node_id) -> tuple:
    """A node's free CPU and memory, summed over a scan of every placed container.

    The scan visits `cluster.containers` in insertion order, the order in
    which `ClusterState.node_free` must sum too.
    """
    node = cluster.nodes[node_id]
    used_cpu = used_mem = 0.0
    for c in cluster.containers.values():
        if c.node_id == node_id:
            used_cpu += c.allocated_vcpu
            used_mem += c.memory_mb
    return node.vcpu - used_cpu, node.memory_mb - used_mem


def cluster_views(cluster) -> tuple:
    """The cluster's non-empty per-node and per-function views, as id lists."""
    return ({k: list(v) for k, v in cluster._by_node.items() if v},
            {k: list(v) for k, v in cluster._by_function.items() if v})


def scanned_views(cluster) -> tuple:
    """What `cluster_views` must be: ids by node and by function, in `containers`' order."""
    by_node, by_function = {}, {}
    for cid, c in cluster.containers.items():
        by_node.setdefault(c.node_id, []).append(cid)
        by_function.setdefault(c.function_id, []).append(cid)
    return by_node, by_function


def assert_cluster_invariants(sim, time):
    """No node has negative free CPU or memory; every CPU fraction is in (0, 1];
    placed ids rise in `containers`' order, and the views match a scan of it."""
    for idx in range(len(sim.cluster.nodes)):
        free_cpu, free_mem = scanned_free(sim.cluster, idx)
        assert free_cpu >= -1e-9 and free_mem >= -1e-9, (time, idx)
    for c in sim.cluster.containers.values():
        assert 0 < c.cpu_fraction <= 1, (time, c.id, c.cpu_fraction)
    ids = list(sim.cluster.containers)
    assert all(a < b for a, b in zip(ids, ids[1:])), (time, ids)
    assert cluster_views(sim.cluster) == scanned_views(sim.cluster), time


class InvariantSimulation(Simulation):
    """Checks the cluster invariants after every epoch and at the horizon.

    Each epoch's records must come in function id order, each with a finite
    rate estimate >= 0. At the end of the run every function's generated
    requests must equal its arrivals and completed + inflight + dropped.
    """

    epochs_checked = 0

    def _on_epoch(self, time, epoch_idx):
        super()._on_epoch(time, epoch_idx)
        records = self.metrics.epochs[-len(self.functions):]
        assert [r.function_id for r in records] == sorted(self.functions), time
        assert all(0 <= r.rate_estimate < math.inf for r in records), time
        assert_cluster_invariants(self, time)
        self.epochs_checked += 1

    def run(self):
        m = super().run()
        assert_cluster_invariants(self, self.horizon)
        for fid, rt in self.functions.items():
            n = request_counts(m, fid)
            assert n["generated"] == len(rt.arrivals), fid
            assert n["generated"] == n["completed"] + n["inflight"] + n["dropped"], fid
        return m


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


def assert_time_scaled(base, scaled, k):
    """`scaled` is the run of `time_scaled(doc, k)` and `base` the run of `doc`:
    its times are `base`'s divided by `k`, its rate estimates multiplied by
    `k`, bit for bit, and everything else is equal."""
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
        # field by field: `dataclasses.replace` would reset the init=False counters
        for f in dataclasses.fields(want):
            if f.name not in ("time", "rate_estimate"):
                assert getattr(e, f.name) == getattr(want, f.name), (e.epoch, f.name)
