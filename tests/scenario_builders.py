"""Builders for small scenarios in tests."""

from pathlib import Path

import edgescale.scenario as scenario_mod
from edgescale.simulator import Simulation

REPO_ROOT = Path(__file__).parent.parent


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
    """No node has negative free CPU or memory; every CPU fraction is in (0, 1]."""
    for idx in range(len(sim.cluster.nodes)):
        free_cpu, free_mem = scanned_free(sim.cluster, idx)
        assert free_cpu >= -1e-9 and free_mem >= -1e-9, (time, idx)
    for c in sim.cluster.containers.values():
        assert 0 < c.cpu_fraction <= 1, (time, c.id, c.cpu_fraction)


class InvariantSimulation(Simulation):
    """Checks the cluster invariants after every epoch and at the horizon.

    At the end of the run every function's generated requests must equal its
    arrivals and completed + inflight + dropped.
    """

    epochs_checked = 0

    def _on_epoch(self, time, epoch_idx):
        super()._on_epoch(time, epoch_idx)
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
