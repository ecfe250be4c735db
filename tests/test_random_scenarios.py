"""Seeded random scenarios with the controller on.

Each scenario is drawn from a numpy generator: one to three nodes, all but
the first short of memory, two or three functions across one or two weighted
users, every non-trace workload mode, all three service distributions,
waiting and response SLOs, timeouts, container sizes off the 0.05 vCPU grid
and initial pools, some of them deflated. The eight draws cover every
combination of reclamation mode, dispatch mode and inflation on or off.

Every draw must keep the simulator's invariants (request conservation and
no overcommitted node, checked by `InvariantSimulation`), rerun bit for bit,
and keep the time-scale relation at k = 2 (see `test_metamorphic.py`). Its
epoch records must also keep the fair-share rules: overload means aggregate
demand above capacity; no target exceeds its demand; under overload the
targets fit the capacity and each is at least min(demand, guarantee).
"""

import functools
import itertools

import numpy as np
import pytest

from scenario_builders import InvariantSimulation, assert_time_scaled, build, time_scaled

CASES = list(itertools.product(("deflation", "termination"), ("wrr", "worst_case"),
                               (True, False)))
IDS = ["-".join(map(str, case)) for case in CASES]


def draw(index) -> dict:
    """Scenario document `index`, with the controller setting CASES[index]."""
    reclamation, dispatch, inflation = CASES[index]
    rng = np.random.default_rng([17, index])
    horizon = 60.0

    def pick(options):
        return options[int(rng.integers(len(options)))]

    def rate():
        return float(rng.integers(1, 40))

    users = [{"id": f"u{i}", "weight": float(rng.integers(1, 4))}
             for i in range(int(rng.integers(1, 3)))]
    # the first node holds every initial pool, so their placement cannot fail
    nodes = [{"vcpu": 3.0, "memory_mb": 4096.0}] + [
        {"vcpu": pick([1.0, 2.0]), "memory_mb": pick([512.0, 1024.0])}
        for _ in range(int(rng.integers(0, 3)))]
    room_vcpu, room_mb = nodes[0]["vcpu"], nodes[0]["memory_mb"]
    functions = []
    for i in range(int(rng.integers(2, 4))):
        mu = pick([4.0, 8.0, 10.0])
        service = {"distribution": pick(["exponential", "deterministic", "empirical"]),
                   "rate": mu}
        if service["distribution"] == "empirical":
            service["samples"] = (rng.integers(1, 9, size=4) / (4 * mu)).tolist()
        slo = {"deadline": pick([0.125, 0.25, 0.5]), "percentile": pick([0.9, 0.95])}
        if rng.random() < 0.3:
            slo["applies_to"] = "response"
        mode = pick(["static", "discrete", "continuous"])
        if mode == "static":
            workload = {"mode": mode, "rate": rate()}
        else:
            times = np.sort(rng.choice(np.arange(5.0, horizon, 5.0), size=3, replace=False))
            pairs = [[t, rate()] for t in [0.0, *times.tolist()]]
            workload = {"mode": mode, "schedule" if mode == "discrete" else "points": pairs}
        size = {"vcpu": pick([0.25, 0.33, 0.5, 0.6, 1.0]),
                "memory_mb": pick([128.0, 256.0, 512.0])}
        initial = pick([[], [1.0], [1.0, 1.0], [0.75, 1.0], [0.7, 0.7]])
        if (sum(initial) * size["vcpu"] <= room_vcpu
                and len(initial) * size["memory_mb"] <= room_mb):
            room_vcpu -= sum(initial) * size["vcpu"]
            room_mb -= len(initial) * size["memory_mb"]
        else:
            initial = []
        fn = {"id": f"f{i}", "user": pick(users)["id"], "weight": float(rng.integers(1, 4)),
              "size": size, "slo": slo, "service": service, "workload": workload,
              "cold_start_seconds": pick([0.25, 0.5, 1.0]),
              "initial_containers": initial or 0}
        if rng.random() < 0.3:
            fn["timeout_seconds"] = pick([0.5, 1.0])
        functions.append(fn)
    return {
        "horizon_seconds": horizon,
        "seed": int(rng.integers(1000)),
        "dispatch": dispatch,
        "cluster": {"nodes": nodes},
        "controller": {"epoch_seconds": pick([5.0, 10.0]), "reclamation": reclamation,
                       "inflation": inflation, "deflation_step": pick([0.05, 0.1])},
        "estimator": {"long_window": 40.0, "short_window": 10.0, "tick": 5.0},
        "users": users,
        "functions": functions,
    }


@pytest.fixture(scope="module")
def run():
    """index -> that draw's run, made on first use, so a draw that fails fails only its tests."""
    return functools.cache(lambda index: InvariantSimulation(build(draw(index))).run())


def test_the_draws_exercise_the_controller(run):
    # the checks below say little about runs in which nothing happens
    runs = [run(i) for i in range(len(CASES))]
    epochs = [e for m in runs for e in m.epochs]
    for counter in ("creates", "terminates", "marks", "unmarks", "deflates", "inflates",
                    "create_failures"):
        assert sum(getattr(e, counter) for e in epochs) > 0, counter
    assert any(e.overloaded for e in epochs) and any(e.infeasible for e in epochs)
    assert sum(m.reruns for m in runs) > 0
    assert all(m.cold_starts > 0 for m in runs)


@pytest.mark.parametrize("index", range(len(CASES)), ids=IDS)
def test_reruns_and_time_scale(run, index):
    doc = draw(index)
    # k = 1 is the identity: every column, counter and record equal, bit for bit
    assert_time_scaled(run(index), InvariantSimulation(build(doc)).run(), 1)
    assert_time_scaled(run(index), InvariantSimulation(build(time_scaled(doc, 2))).run(), 2)


@pytest.mark.parametrize("index", range(len(CASES)), ids=IDS)
def test_fair_share_holds_in_every_epoch(run, index):
    capacity = sum(node["vcpu"] for node in draw(index)["cluster"]["nodes"])
    by_epoch = {}
    for e in run(index).epochs:
        by_epoch.setdefault(e.epoch, []).append(e)
    for epoch, records in by_epoch.items():
        overloaded = sum(e.demand_vcpu for e in records) > capacity + 1e-9
        assert all(e.overloaded == overloaded for e in records), epoch
        for e in records:
            assert e.target_vcpu <= e.demand_vcpu + 1e-9, (epoch, e.function_id)
            if overloaded:
                assert e.target_vcpu >= min(e.demand_vcpu, e.guar_vcpu) - 1e-9, (
                    epoch, e.function_id)
        if overloaded:
            assert sum(e.target_vcpu for e in records) <= capacity + 1e-9, epoch
