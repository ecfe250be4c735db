"""Placement, reconciliation, and the epoch planning loop."""

from itertools import count

import pytest

from edgescale.allocator import (
    ControllerConfig,
    CreateContainer,
    FunctionSpec,
    MarkLazy,
    SloPolicy,
    UnmarkLazy,
    place,
    plan_epoch,
    reconcile,
    required_pool,
)
from edgescale.cluster import ClusterState, Node
from edgescale.errors import NoCapacity
from edgescale.reclamation import ContainerState, ServiceProfile, SetFraction, Terminate

PROF = ServiceProfile(base_rate=10.0)
CFG = ControllerConfig(epoch_s=10.0)


def spec_for(fid="f1", vcpu=1.0, weight=1.0, deadline=0.1, pct=0.95, **kw):
    return FunctionSpec(
        id=fid, weight=weight,
        slo=SloPolicy(deadline=deadline, percentile=pct),
        vcpu=vcpu, memory_mb=256.0, profile=PROF, **kw,
    )


def cluster_with(nodes, containers=()):
    cl = ClusterState(nodes=[Node(*n) for n in nodes])
    for c in containers:
        cl.add(c)
    return cl


_ids = count(1)


def container(fid="f1", node=0, vcpu=1.0, fraction=1.0, lazy=False):
    return ContainerState(
        function_id=fid, node_id=node, standard_vcpu=vcpu, memory_mb=256.0,
        profile=PROF, id=next(_ids), cpu_fraction=fraction, lazy_marked=lazy,
    )


class TestPlace:
    def test_empty_cluster_tie_breaks_low_index(self):
        cl = cluster_with([(4.0, 8192.0)] * 3)
        assert place(2.0, 256.0, cl) == 0

    def test_best_fit_by_remaining_vcpu(self):
        cl = cluster_with([(4.0, 8192.0)] * 3)
        for node, used in [(0, 3.5), (1, 2.8), (2, 1.0)]:
            cl.add(container(node=node, vcpu=used))
        # free: [0.5, 1.2, 3.0]; request 1.0 fits best on node 1
        assert place(1.0, 256.0, cl) == 1

    def test_memory_is_a_constraint(self):
        cl = cluster_with([(8.0, 300.0), (4.0, 8192.0)])
        assert place(1.0, 512.0, cl) == 1

    def test_no_capacity(self):
        cl = cluster_with([(1.0, 8192.0)])
        with pytest.raises(NoCapacity):
            place(2.0, 256.0, cl)


class TestReconcile:
    def test_target_equals_current_is_noop(self):
        spec = spec_for()
        pool = [container(), container()]
        shrink, grow = reconcile(spec, pool, 2.0, pressure=False, cfg=CFG)
        assert shrink == [] and grow == []

    def test_overprovision_without_pressure_marks_lazy(self):
        spec = spec_for()
        pool = [container(vcpu=1.0) for _ in range(5)]
        shrink, grow = reconcile(spec, pool, 3.0, pressure=False, cfg=CFG)
        assert len(shrink) == 2 and all(isinstance(a, MarkLazy) for a in shrink)
        assert grow == []

    def test_overprovision_under_pressure_terminates(self):
        cfg = ControllerConfig(reclamation_mode="termination")
        pool = [container() for _ in range(4)]
        shrink, _ = reconcile(spec_for(), pool, 2.0, pressure=True, cfg=cfg)
        assert sum(isinstance(a, Terminate) for a in shrink) == 2

    def test_overprovision_under_pressure_deflates(self):
        cfg = ControllerConfig(reclamation_mode="deflation")
        pool = [container() for _ in range(4)]
        shrink, _ = reconcile(spec_for(), pool, 3.0, pressure=True, cfg=cfg)
        assert all(isinstance(a, SetFraction) for a in shrink)

    def test_unmark_before_create(self):
        spec = spec_for()
        pool = [container(), container(), container(lazy=True)]
        shrink, grow = reconcile(spec, pool, 4.0, pressure=False, cfg=CFG)
        assert shrink == []
        assert grow[0] == UnmarkLazy(pool[2].id)
        assert grow[1:] == [CreateContainer("f1")]

    def test_inflate_before_unmark_and_create(self):
        spec = spec_for()
        pool = [container(fraction=0.8), container(fraction=0.8), container(lazy=True)]
        shrink, grow = reconcile(spec, pool, 4.0, pressure=False, cfg=CFG)
        kinds = [type(a) for a in grow]
        assert kinds == [SetFraction, SetFraction, UnmarkLazy, CreateContainer]
        assert all(a.fraction == 1.0 for a in grow[:2])

    def test_lazy_terminated_first_under_pressure(self):
        cfg = ControllerConfig(reclamation_mode="termination")
        lazy = container(lazy=True)
        pool = [container(), container(), lazy]
        shrink, _ = reconcile(spec_for(), pool, 1.0, pressure=True, cfg=cfg)
        assert shrink[0] == Terminate(lazy.id)


class TestPlanEpoch:
    def test_zero_load_respects_floor(self):
        cl = cluster_with([(4.0, 8192.0)] * 2)
        specs = {"f1": spec_for()}
        plan = plan_epoch(cl, {"f1": 0.0}, specs, CFG)
        e = plan["f1"]
        assert e.c_new == 0 and e.demand_vcpu == 0.0
        assert e.grow == []

    def test_zero_load_retains_lazy_marks(self):
        pool = [container(), container()]
        cl = cluster_with([(4.0, 8192.0)] * 2, pool)
        plan = plan_epoch(cl, {"f1": 0.0}, {"f1": spec_for()}, CFG)
        assert all(isinstance(a, MarkLazy) for a in plan["f1"].shrink)

    def test_min_containers_floor(self):
        cl = cluster_with([(4.0, 8192.0)] * 2)
        specs = {"f1": spec_for(min_containers=1)}
        plan = plan_epoch(cl, {"f1": 0.0}, specs, CFG)
        assert plan["f1"].c_new == 1
        assert plan["f1"].grow == [CreateContainer("f1")]
        # more active containers than the floor: demand is the floor alone,
        # and the surplus is marked lazy, smallest first
        pool = [container(vcpu=0.5) for _ in range(4)]
        cl = cluster_with([(4.0, 8192.0)] * 2, pool)
        plan = plan_epoch(cl, {"f1": 0.0}, {"f1": spec_for(vcpu=0.5, min_containers=2)}, CFG)
        assert plan["f1"].c_new == 2
        assert plan["f1"].demand_vcpu == 2 * 0.5
        assert plan["f1"].shrink == [MarkLazy(c.id) for c in pool[:2]]
        assert plan["f1"].grow == []

    def test_min_containers_floor_holds_with_inflation_off(self):
        # one container at 0.8 CPU needs one standard container added at
        # lam=1; the floor of 3 still applies, with or without inflation
        spec = spec_for(min_containers=3)
        pool = [container(fraction=0.8)]
        for inflation in (False, True):
            cfg = ControllerConfig(epoch_s=10.0, inflation_enabled=inflation)
            c_new, demand = required_pool(spec, pool, 1.0, cfg)
            assert c_new == 3
            assert demand == pytest.approx(2.8 if not inflation else 3.0)

    def test_rate_step_scales_up(self):
        pool = [container()]
        cl = cluster_with([(8.0, 16384.0)] * 3, pool)
        specs = {"f1": spec_for()}
        low = plan_epoch(cl, {"f1": 5.0}, specs, CFG)
        high = plan_epoch(cl, {"f1": 30.0}, specs, CFG)
        assert high["f1"].c_new > low["f1"].c_new
        assert any(isinstance(a, CreateContainer) for a in high["f1"].grow)

    def test_overload_caps_to_fair_share(self):
        # two equal-weight functions each wanting more than half of 8 vCPU
        cl = cluster_with([(4.0, 8192.0)] * 2)
        specs = {"a": spec_for("a"), "b": spec_for("b")}
        plan = plan_epoch(cl, {"a": 60.0, "b": 60.0}, specs, CFG)
        assert sorted(plan) == ["a", "b"]
        for e in plan.values():
            assert e.overloaded
            assert e.target_vcpu == pytest.approx(4.0)
            assert e.target_vcpu >= e.guar_vcpu - 1e-9

    def test_heterogeneous_pool_uses_worst_case_model(self):
        pool = [container(fraction=0.7), container(fraction=0.7)]
        cl = cluster_with([(8.0, 16384.0)] * 3, pool)
        plan = plan_epoch(cl, {"f1": 16.0}, {"f1": spec_for()}, CFG)
        e = plan["f1"]
        assert e.c_new > 2  # deflated pair cannot carry 16 req/s at the target
        assert any(isinstance(a, CreateContainer) for a in e.grow)

    def test_heterogeneous_pool_can_shrink(self):
        pool = [container(fraction=0.8) for _ in range(6)]
        cl = cluster_with([(8.0, 16384.0)] * 3, pool)
        plan = plan_epoch(cl, {"f1": 2.0}, {"f1": spec_for()}, CFG)
        e = plan["f1"]
        assert e.c_new < 6
        assert any(isinstance(a, MarkLazy) for a in e.shrink)

    def test_convergence_to_fixed_point(self):
        # static estimate, no pressure: after applying one plan, the next two
        # plans are empty
        cl = cluster_with([(8.0, 16384.0)] * 3)
        specs = {"f1": spec_for()}
        cfg = CFG
        for _ in range(2):
            plan = plan_epoch(cl, {"f1": 15.0}, specs, cfg)
            for action in plan["f1"].shrink + plan["f1"].grow:
                if isinstance(action, CreateContainer):
                    cl.add(container())
                elif isinstance(action, MarkLazy):
                    cl.containers[action.container_id].lazy_marked = True
        for _ in range(2):
            plan = plan_epoch(cl, {"f1": 15.0}, specs, cfg)
            e = plan["f1"]
            assert e.shrink == [] and e.grow == []

    def test_lazy_reuse_never_creates_while_lazy_exists(self):
        lazy = container(lazy=True)
        pool = [container(), lazy]
        cl = cluster_with([(8.0, 16384.0)] * 3, pool)
        plan = plan_epoch(cl, {"f1": 15.0}, {"f1": spec_for()}, CFG)  # needs 3 total
        grow = plan["f1"].grow
        unmarks = [a for a in grow if isinstance(a, UnmarkLazy)]
        creates = [a for a in grow if isinstance(a, CreateContainer)]
        assert unmarks == [UnmarkLazy(lazy.id)]
        assert len(creates) == 1
        assert grow.index(unmarks[0]) < grow.index(creates[0])

    def test_infeasible_deadline_falls_back_to_guarantee(self):
        # deterministic service of 0.2 s can never meet a 0.1 s response SLO
        prof = ServiceProfile(base_rate=5.0, distribution="deterministic")
        spec = FunctionSpec(
            id="f1", weight=1.0,
            slo=SloPolicy(deadline=0.1, percentile=0.99, applies_to="response"),
            vcpu=1.0, memory_mb=256.0, profile=prof,
        )
        cl = cluster_with([(4.0, 8192.0)] * 2)
        plan = plan_epoch(cl, {"f1": 5.0}, {"f1": spec}, CFG)
        e = plan["f1"]
        assert e.infeasible
        assert e.demand_vcpu == pytest.approx(e.guar_vcpu)
