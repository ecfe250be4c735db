"""Cluster state: nodes, placed containers, capacity accounting."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Node:
    vcpu: float
    memory_mb: float


@dataclass
class ClusterState:
    """Nodes plus the containers currently placed on them.

    Placement reserves a container's standard vCPU times its current fraction
    and its full memory; deflating a container returns CPU headroom to its
    node. `capacity_vcpu` is the fair-share capacity C.

    `containers` (id -> container) is the record. It starts empty and fills
    only through `add`; `add` and `remove` keep two views of it, per node and
    per function, each an id -> container dict in `containers`' insertion
    order. `node_free` and `of_function` walk one view instead of every
    container. Walking a view visits a node's containers in the order a scan
    of `containers` would, so `node_free`'s float sums, and with them
    placement and inflation clamps, keep their last bits. Change
    `containers` only through `add` and `remove`, and never a placed
    container's `node_id` or `function_id`.
    """

    nodes: list
    containers: dict = field(init=False, default_factory=dict)  # id -> ContainerState
    # the views: node id -> {id: c} and function id -> {id: c}
    _by_node: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _by_function: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    @property
    def capacity_vcpu(self) -> float:
        return sum(n.vcpu for n in self.nodes)

    def node_free(self, node_id: int) -> tuple:
        node = self.nodes[node_id]
        used_cpu = 0.0
        used_mem = 0.0
        for c in self._by_node.get(node_id, {}).values():
            used_cpu += c.allocated_vcpu
            used_mem += c.memory_mb
        return node.vcpu - used_cpu, node.memory_mb - used_mem

    def of_function(self, function_id: str) -> list:
        return sorted(self._by_function.get(function_id, {}).values(), key=lambda c: c.id)

    def lazy_marked(self) -> list:
        return sorted(
            (c for c in self.containers.values() if c.lazy_marked), key=lambda c: c.id
        )

    def add(self, container):
        self.remove(container.id)
        self.containers[container.id] = container
        self._by_node.setdefault(container.node_id, {})[container.id] = container
        self._by_function.setdefault(container.function_id, {})[container.id] = container

    def remove(self, container_id: int):
        container = self.containers.pop(container_id, None)
        if container is not None:
            del self._by_node[container.node_id][container_id]
            del self._by_function[container.function_id][container_id]

