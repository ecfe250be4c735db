"""Builders for small scenarios in tests."""

from pathlib import Path

import edgescale.scenario as scenario_mod

REPO_ROOT = Path(__file__).parent.parent


def make_scenario(functions, nodes=None, horizon=120.0, seed=7, controller=None,
                  estimator=None, dispatch="wrr"):
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
    return scenario_mod.from_dict(doc, base_dir=REPO_ROOT)


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
