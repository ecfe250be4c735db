"""Cluster state: the per-node and per-function views behind `node_free` and `of_function`."""

import pytest

from edgescale.cluster import ClusterState, Node
from edgescale.reclamation import ContainerState
from scenario_builders import cluster_views, config_error, profile, scanned_free, scanned_views

PROF = profile(10.0)


def container(cid, fid="f", node=0, vcpu=1.0, memory_mb=256.0):
    return ContainerState(function_id=fid, node_id=node, standard_vcpu=vcpu,
                          memory_mb=memory_mb, profile=PROF, id=cid, cpu_fraction=1.0)


def nodes(n=2):
    return [Node(vcpu=1.0, memory_mb=1024.0) for _ in range(n)]


def ids(containers):
    return [c.id for c in containers]


# checked where `scenario` reads them: Node trusts its arguments
@pytest.mark.parametrize("key, value", [("vcpu", 0.0), ("vcpu", -1.0), ("memory_mb", 0.0),
                                        ("memory_mb", -5.0)])
def test_node_capacities_must_be_positive(key, value):
    assert config_error(f"cluster.nodes.0.{key}={value}") == (
        f"cluster.nodes[0].{key}: must be in (0, inf), got {value}")


class TestAddRemove:
    def test_empty_cluster(self):
        cl = ClusterState(nodes=nodes())
        assert cl.node_free(1) == (1.0, 1024.0)
        assert cl.of_function("f") == []

    def test_add_counts_on_its_node_and_function_only(self):
        cl = ClusterState(nodes=nodes())
        cl.add(container(1, "f", node=0, vcpu=0.25, memory_mb=100.0))
        cl.add(container(2, "g", node=1, vcpu=0.5, memory_mb=200.0))
        cl.add(container(3, "f", node=1, vcpu=0.125, memory_mb=300.0))
        assert cl.node_free(0) == (0.75, 924.0)
        assert cl.node_free(1) == (0.375, 524.0)
        assert ids(cl.of_function("f")) == [1, 3]
        assert ids(cl.of_function("g")) == [2]
        assert cluster_views(cl) == ({0: [1], 1: [2, 3]}, {"f": [1, 3], "g": [2]})

    def test_remove_leaves_every_view(self):
        cl = ClusterState(nodes=nodes())
        for c in (container(1, "f", node=0), container(2, "g", node=0), container(3, "f")):
            cl.add(c)
        cl.remove(1)
        assert list(cl.containers) == [2, 3]
        assert ids(cl.of_function("f")) == [3]
        assert cluster_views(cl) == ({0: [2, 3]}, {"f": [3], "g": [2]})

    def test_remove_of_an_unknown_id_changes_nothing(self):
        cl = ClusterState(nodes=nodes())
        cl.add(container(1, vcpu=0.5))
        cl.remove(7)
        cl.remove(7)
        assert list(cl.containers) == [1]
        assert cl.node_free(0) == (0.5, 768.0)
        assert cluster_views(cl) == ({0: [1]}, {"f": [1]})

    def test_re_adding_an_id_moves_it_in_every_view(self):
        cl = ClusterState(nodes=nodes())
        cl.add(container(1, "f", node=0))
        cl.add(container(2, "f", node=0))
        cl.add(container(1, "g", node=1))
        assert list(cl.containers) == [2, 1]
        assert cluster_views(cl) == ({0: [2], 1: [1]}, {"f": [2], "g": [1]})
        assert cl.node_free(0) == (0.0, 768.0)


class TestConstruction:
    # 0.1 + 0.2 + 0.3 in that order is 0.6000000000000001; in id order
    # (0.2 + 0.3 + 0.1) it is 0.6, so the sums below pin the order
    VCPUS = {3: 0.1, 1: 0.2, 2: 0.3}

    def given_out_of_id_order(self):
        cl = ClusterState(nodes=nodes())
        for cid, v in self.VCPUS.items():
            cl.add(container(cid, vcpu=v))
        return cl

    def test_starts_empty_and_fills_only_through_add(self):
        cl = ClusterState(nodes=nodes())
        assert cl.containers == {} and cluster_views(cl) == ({}, {})
        with pytest.raises(TypeError):
            ClusterState(nodes=nodes(), containers={})

    def test_views_keep_the_dict_order(self):
        cl = self.given_out_of_id_order()
        assert list(cl.containers) == [3, 1, 2]
        assert cluster_views(cl) == ({0: [3, 1, 2]}, {"f": [3, 1, 2]})

    def test_of_function_returns_id_order(self):
        assert ids(self.given_out_of_id_order().of_function("f")) == [1, 2, 3]

    def test_node_free_sums_in_insertion_order(self):
        cl = self.given_out_of_id_order()
        free_cpu, _ = cl.node_free(0)
        assert free_cpu == 1.0 - 0.6000000000000001 != 1.0 - 0.6
        assert cl.node_free(0) == scanned_free(cl, 0)

    def test_node_free_bit_equal_to_a_scan_after_churn(self):
        cl = self.given_out_of_id_order()
        vcpus = [0.1, 0.7, 0.2, 0.05, 0.3, 0.15]
        for i, v in enumerate(vcpus):
            cl.add(container(10 + i, fid="fg"[i % 2], node=i % 2, vcpu=v))
        for cid in (1, 12, 15):
            cl.remove(cid)
        cl.add(container(1, node=1, vcpu=0.1))
        assert cluster_views(cl) == scanned_views(cl)
        for node_id in range(2):
            assert cl.node_free(node_id) == scanned_free(cl, node_id)
        assert ids(cl.of_function("f")) == [1, 2, 3, 10, 14]
        assert ids(cl.of_function("g")) == [11, 13]
