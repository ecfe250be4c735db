"""The discrete-event simulator: lifecycle, dispatch, cold starts, determinism."""

import gc
import math

import numpy as np
import pytest

from edgescale import simulator
from edgescale.allocator import CreateContainer, MarkLazy, UnmarkLazy
from edgescale.reclamation import ContainerState, ServiceProfile, Terminate
from edgescale.simulator import EV_READY, Simulation, dispatch_wrr, pick_slowest_idle, run
from scenario_builders import (InvariantSimulation, assert_cluster_invariants, basic_function,
                               churn_scenario, cluster_views, make_scenario, request_counts,
                               scanned_free, scanned_views)

PROF = ServiceProfile(base_rate=10.0)


def containers(weights, rates=None):
    out = []
    for i, w in enumerate(weights):
        prof = ServiceProfile(base_rate=rates[i]) if rates else PROF
        out.append(
            ContainerState(
                function_id="f", node_id=0, standard_vcpu=w, memory_mb=128.0,
                profile=prof, id=i + 1,
            )
        )
    return out


class TestDispatchWrr:
    def test_equal_weights_alternate(self):
        pool = containers([1.0, 1.0])
        state = {}
        units = {c.id: simulator.wrr_weight_units(c) for c in pool}
        picks = [dispatch_wrr(pool, state, units) for _ in range(8)]
        assert picks == [pool[0].id, pool[1].id] * 4

    def test_two_to_one_ratio(self):
        pool = containers([1.0, 0.5])
        state = {}
        units = {c.id: simulator.wrr_weight_units(c) for c in pool}
        picks = [dispatch_wrr(pool, state, units) for _ in range(30)]
        for i in range(0, 30, 3):
            window = picks[i : i + 3]
            assert 1 <= window.count(pool[1].id) <= 2 or window.count(pool[0].id) >= 2
        assert picks.count(pool[0].id) == 20
        assert picks.count(pool[1].id) == 10

    def test_single_container_always_chosen(self):
        pool = containers([0.4])
        state = {}
        units = {c.id: simulator.wrr_weight_units(c) for c in pool}
        assert all(dispatch_wrr(pool, state, units) == pool[0].id for _ in range(5))

    def test_proportionality_window(self):
        pool = containers([1.0, 0.6, 0.4])
        state = {}
        units = {c.id: simulator.wrr_weight_units(c) for c in pool}
        total_units = sum(max(1, round(c.allocated_vcpu / 0.05)) for c in pool)
        picks = [dispatch_wrr(pool, state, units) for _ in range(total_units * 3)]
        for c in pool:
            share = max(1, round(c.allocated_vcpu / 0.05))
            got = picks[:total_units].count(c.id)
            assert abs(got - share) <= 1

    def test_slowest_idle_pick(self):
        pool = containers([1.0, 1.0], rates=[5.0, 10.0])
        assert pick_slowest_idle(pool) == pool[0].id


class TestLifecycle:
    def test_underloaded_deterministic_service_never_waits(self):
        # deterministic 0.1 s service, one arrival every 0.2 s, one container
        fn = basic_function(
            rate=5.0, mu=10.0, initial=1,
            service={"distribution": "deterministic", "rate": 10.0},
            workload={"mode": "trace", "per_minute": None},
        )
        fn["workload"] = {"mode": "discrete", "schedule": [[0.0, 5.0]]}
        scn = make_scenario([fn], horizon=60.0, controller={"epoch_seconds": 1e9})
        # replace the Poisson arrivals with a strict 0.2 s cadence
        sim = Simulation(scn)
        sim.functions["f1"].arrivals = np.arange(0.0, 59.0, 0.2)
        m = sim.run()
        waits = [r.dispatch - r.arrival for r in m.requests if r.status == "completed"]
        assert waits and all(w == pytest.approx(0.0, abs=1e-12) for w in waits)

    def test_conservation(self):
        scn = make_scenario([basic_function(rate=20.0, initial=2)], horizon=90.0)
        m = run(scn)
        counts = request_counts(m, "f1")
        assert counts["generated"] == counts["completed"] + counts["inflight"] + counts["dropped"]
        assert counts["generated"] > 0

    def test_fcfs_per_container(self):
        scn = make_scenario([basic_function(rate=25.0, initial=2)], horizon=60.0)
        m = run(scn)
        by_container = {}
        for r in m.requests:
            if r.status == "completed":
                by_container.setdefault(r.container_id, []).append((r.dispatch, r.completion))
        for entries in by_container.values():
            dispatch_order = [c for _, c in sorted(entries)]
            assert dispatch_order == sorted(dispatch_order)

    def test_determinism_bit_identical(self):
        fns = [basic_function("a", rate=18.0), basic_function("b", rate=7.0, vcpu=0.5)]
        m1 = run(make_scenario(fns, horizon=120.0, seed=13))
        m2 = run(make_scenario(fns, horizon=120.0, seed=13))
        r1 = [(r.function_id, r.arrival, r.dispatch, r.completion, r.status) for r in m1.requests]
        r2 = [(r.function_id, r.arrival, r.dispatch, r.completion, r.status) for r in m2.requests]
        assert len(r1) == len(r2) > 0
        for a, b in zip(r1, r2):
            assert a[0] == b[0] and a[1] == b[1] and a[4] == b[4]
            assert (a[2] == b[2]) or (math.isnan(a[2]) and math.isnan(b[2]))
            assert (a[3] == b[3]) or (math.isnan(a[3]) and math.isnan(b[3]))
        assert m1.busy_vcpu_time == m2.busy_vcpu_time

    def test_utilization_bounds(self):
        scn = make_scenario([basic_function(rate=30.0, initial=4)], horizon=60.0)
        m = run(scn)
        assert 0.0 <= m.utilization <= 1.0
        assert 0.0 <= m.allocated_utilization <= 1.0
        assert m.utilization <= m.allocated_utilization + 1e-9

    def test_zero_workload(self):
        scn = make_scenario([basic_function(rate=0.0, initial=0)], horizon=60.0)
        m = run(scn)
        assert request_counts(m)["generated"] == 0
        assert m.utilization == 0.0


SAMPLES = (0.05, 0.1, 0.3)


class TestServiceDraws:
    @pytest.mark.parametrize("service, scalar_draw", [
        ({"distribution": "exponential", "rate": 10.0}, lambda rng: rng.exponential(1 / 10.0)),
        ({"distribution": "deterministic", "rate": 10.0}, lambda rng: 1.0 / 10.0),
        ({"distribution": "empirical", "rate": 10.0, "samples": list(SAMPLES)},
         lambda rng: SAMPLES[rng.integers(len(SAMPLES))]),
    ], ids=["exponential", "deterministic", "empirical"])
    def test_service_times_equal_scalar_draws_across_blocks(self, service, scalar_draw):
        # one full-size container serves requests 2 s apart, so each is
        # dispatched on arrival and completes at arrival + its draw exactly
        n = 2 * 4096 + 1
        fn = basic_function(rate=1.0, initial=1, service=service)
        scn = make_scenario([fn], horizon=2.0 * n, controller={"epoch_seconds": 1e9})
        sim = Simulation(scn)
        sim.functions["f1"].arrivals = np.arange(n) * 2.0
        m = sim.run()
        rng = np.random.default_rng(np.random.SeedSequence(scn.seed).spawn(2)[1])
        want = [float(scalar_draw(rng)) for _ in range(n)]
        assert [r.status for r in m.requests] == ["completed"] * n
        assert all(r.dispatch == r.arrival for r in m.requests)
        assert [r.completion for r in m.requests] == [r.arrival + w
                                                      for r, w in zip(m.requests, want)]


class TestColdStart:
    def test_no_dispatch_before_ready(self):
        fn = basic_function(rate=10.0, initial=0, cold_start_seconds=0.5)
        scn = make_scenario([fn], horizon=40.0, controller={"epoch_seconds": 5.0})
        m = run(scn)
        created_ready = [e for e in m.epochs if e.creates > 0]
        assert created_ready, "controller should create containers"
        first_dispatch = min(
            (r.dispatch for r in m.requests if not math.isnan(r.dispatch)), default=None
        )
        # first epoch runs at 5 s; +0.5 s cold start gates the first dispatch
        assert first_dispatch is not None and first_dispatch >= 5.5 - 1e-9

    def test_zero_delay_is_immediate(self):
        fn = basic_function(rate=10.0, initial=0, cold_start_seconds=0.0)
        scn = make_scenario([fn], horizon=30.0, controller={"epoch_seconds": 5.0})
        m = run(scn)
        first_dispatch = min(r.dispatch for r in m.requests if not math.isnan(r.dispatch))
        assert first_dispatch == pytest.approx(5.0)

    def test_cold_start_counted(self):
        fn = basic_function(rate=10.0, initial=0, cold_start_seconds=0.5)
        scn = make_scenario([fn], horizon=30.0, controller={"epoch_seconds": 5.0})
        m = run(scn)
        assert m.cold_starts > 0


class TestWorstCaseDispatch:
    def test_slowest_idle_selected(self):
        fn = basic_function(rate=4.0, initial=0)
        fn["initial_containers"] = [0.7, 1.0]  # rates 9 and 10
        scn = make_scenario([fn], horizon=60.0, dispatch="worst_case",
                            controller={"epoch_seconds": 1e9})
        m = run(scn)
        slow_id = 0
        ids = sorted({r.container_id for r in m.requests if r.container_id >= 0})
        assert len(ids) >= 1
        # the slower container (created first, lower id) takes the lion's share
        from collections import Counter

        counter = Counter(r.container_id for r in m.requests if r.container_id >= 0)
        assert counter[ids[0]] > counter.get(ids[1], 0)

    def test_wrr_mode_spreads_instead(self):
        fn = basic_function(rate=4.0, initial=2)
        scn = make_scenario([fn], horizon=60.0, dispatch="wrr",
                            controller={"epoch_seconds": 1e9})
        m = run(scn)
        from collections import Counter

        counter = Counter(r.container_id for r in m.requests if r.container_id >= 0)
        ids = sorted(counter)
        assert len(ids) == 2
        # near-even split: busy-container exclusions keep it from exact +-1
        assert abs(counter[ids[0]] - counter[ids[1]]) <= 0.1 * sum(counter.values())


class TestRerunOnTermination:
    def test_busy_termination_reruns_request(self):
        # saturated single slow function under overload pressure from a rival
        # forces terminations of busy containers
        fns = [
            basic_function("hog", rate=30.0, mu=4.0, vcpu=2.0, initial=4),
            basic_function("rival", rate=0.1, vcpu=0.5, initial=0),
        ]
        fns[1]["workload"] = {"mode": "discrete", "schedule": [[0.0, 0.0], [30.0, 60.0]]}
        scn = make_scenario(
            fns, horizon=120.0, nodes=[{"vcpu": 4.0, "memory_mb": 8192.0}] * 2,
            controller={"epoch_seconds": 10.0, "reclamation": "termination"},
        )
        m = run(scn)
        assert m.reruns > 0
        rerun_reqs = [r for r in m.requests if r.reruns > 0]
        assert rerun_reqs
        # rerun requests either completed later or stayed in flight, never lost
        for r in rerun_reqs:
            assert r.status in ("completed", "inflight", "dropped")


class TestTimeout:
    def test_requests_dropped_after_timeout(self):
        fn = basic_function(rate=30.0, mu=5.0, initial=1, timeout_seconds=0.5)
        scn = make_scenario([fn], horizon=60.0, controller={"epoch_seconds": 1e9})
        m = run(scn)
        assert request_counts(m)["dropped"] > 0


class TestCapacityConservation:
    def test_nodes_never_overcommitted(self):
        fns = [
            basic_function("a", rate=25.0, vcpu=1.0, initial=1),
            basic_function("b", rate=25.0, vcpu=0.5, initial=1),
        ]
        scn = make_scenario(fns, horizon=120.0,
                            nodes=[{"vcpu": 4.0, "memory_mb": 2048.0}] * 2)
        sim = Simulation(scn)
        sim.run()
        for idx in range(len(sim.cluster.nodes)):
            free_cpu, free_mem = scanned_free(sim.cluster, idx)
            assert free_cpu >= -1e-9
            assert free_mem >= -1e-9


class TestInvariants:
    @pytest.mark.parametrize("controller", [{}, {"inflation": False},
                                            {"reclamation": "termination"}],
                             ids=["default", "inflation_off", "termination"])
    def test_churn_holds_after_every_epoch(self, controller):
        sim = InvariantSimulation(churn_scenario(**controller))
        m = sim.run()
        assert sim.epochs_checked == 18 and m.reruns > 0

    def test_actions_on_a_container_reclaimed_this_epoch_are_skipped(self, monkeypatch):
        # `b`'s only container fills the node. The first epoch marks it lazy,
        # `a`'s create then reclaims it to make room, and `b`'s later unmark
        # must find nothing rather than index a terminated container.
        fns = [basic_function("a", rate=2.0, initial=0), basic_function("b", rate=2.0, initial=1)]
        scn = make_scenario(fns, horizon=30.0, nodes=[{"vcpu": 1.0, "memory_mb": 4096.0}])
        real = simulator.plan_epoch
        calls = []

        def plan_then_rewrite_first(cluster, *args):
            records = real(cluster, *args)
            if not calls:
                (cid,) = [c.id for c in cluster.of_function("b")]
                records["a"].shrink, records["a"].grow = [], [CreateContainer("a")]
                records["b"].shrink, records["b"].grow = [MarkLazy(cid)], [UnmarkLazy(cid)]
            calls.append(1)
            return records

        monkeypatch.setattr(simulator, "plan_epoch", plan_then_rewrite_first)
        sim = InvariantSimulation(scn)
        m = sim.run()
        first = {e.function_id: e for e in m.epochs if e.epoch == 0}
        assert first["a"].creates == 1 and first["a"].c_active == 1
        assert first["b"].marks == 1 and first["b"].unmarks == 0
        assert first["b"].c_active + first["b"].c_lazy == 0
        assert sim.epochs_checked == 3

    def test_inflation_clamp_stays_within_the_request(self):
        # the node's headroom is a hair under one step pair, so the on-grid
        # clamp lands just above 1.0 unless it is capped at the request
        fn = basic_function(vcpu=0.25, rate=2.0, initial=[0.9000000000000001])
        scn = make_scenario([fn], horizon=12.0, controller={"epoch_seconds": 1e9},
                            nodes=[{"vcpu": 0.2499999999999999, "memory_mb": 1024.0}])

        class InflateAtFirstTick(InvariantSimulation):
            def _on_estimator(self, time):
                if time == 5.0:
                    (cid,) = self.cluster.containers
                    self._set_fraction(time, cid, 1.0)
                    assert self.cluster.containers[cid].cpu_fraction == 1.0
                    assert_cluster_invariants(self, time)
                super()._on_estimator(time)

        m = InflateAtFirstTick(scn).run()
        assert any(r.dispatch > 5.0 for r in m.requests)


DETERMINISTIC = {"distribution": "deterministic", "rate": 10.0}


def _records(m):
    return [(r.function_id, r.arrival, r.dispatch, r.completion, r.container_id, r.status,
             r.reruns) for r in m.requests]


class TestEventOrder:
    """Orderings that per-function event loops must reproduce exactly."""

    def test_cross_function_ties_go_in_function_id_order(self):
        # at t=2 and t=3, `a` goes first although `b`'s previous arrival
        # (0.5) came before `a`'s (1.0)
        fns = [basic_function("a", initial=1, service=DETERMINISTIC),
               basic_function("b", initial=1, service=DETERMINISTIC)]
        sim = Simulation(make_scenario(fns, horizon=10.0, controller={"epoch_seconds": 1e9}))
        sim.functions["a"].arrivals = np.array([1.0, 2.0, 3.0])
        sim.functions["b"].arrivals = np.array([0.5, 2.0, 3.0])
        m = sim.run()
        assert [(r.function_id, r.arrival) for r in m.requests] == [
            ("b", 0.5), ("a", 1.0), ("a", 2.0), ("b", 2.0), ("a", 3.0), ("b", 3.0)]

    @pytest.mark.parametrize("seed", range(5))
    def test_request_log_is_sorted_by_time_then_function(self, seed):
        # arrivals on a coarse grid tie within and across functions; the
        # reference is a stable sort by (time, function order)
        rng = np.random.default_rng(seed)
        arrivals = {f"f{i}": np.sort(rng.integers(0, 12, size=n)).astype(float) / 2
                    for i, n in enumerate((9, 14, 0, 11))}
        fns = [basic_function(fid, initial=1, service=DETERMINISTIC) for fid in arrivals]
        sim = Simulation(make_scenario(fns, horizon=10.0, controller={"epoch_seconds": 1e9}))
        for fid, arr in arrivals.items():
            sim.functions[fid].arrivals = arr
        m = sim.run()

        logged = [(fid, t) for fid, arr in sorted(arrivals.items()) for t in arr.tolist()]
        want = sorted(logged, key=lambda entry: (entry[1], entry[0]))
        assert [(r.function_id, r.arrival) for r in m.requests] == want

    def test_arrivals_at_zero_see_every_initial_container(self):
        # the first arrival is a WRR pick over both initial containers, which
        # leaves container 2 ahead for the pick at 0.3
        fn = basic_function(initial=2, service=DETERMINISTIC)
        sim = Simulation(make_scenario([fn], horizon=10.0, controller={"epoch_seconds": 1e9}))
        sim.functions["f1"].arrivals = np.array([0.0, 0.0, 0.0, 0.3])
        m = sim.run()
        assert [(r.dispatch, r.container_id) for r in m.requests] == [
            (0.0, 1), (0.0, 2), (0.1, 1), (0.3, 2)]

    @staticmethod
    def _terminate_first_busy(monkeypatch, arrivals, timeout):
        """Three 2 s containers; the epoch at t=1 terminates container 1 and does nothing else."""
        real = simulator.plan_epoch
        calls = []

        def plan(cluster, *args):
            records = real(cluster, *args)
            for rec in records.values():
                rec.shrink, rec.grow = [], []
            if not calls:
                records["f1"].shrink = [Terminate(1)]
            calls.append(1)
            return records

        monkeypatch.setattr(simulator, "plan_epoch", plan)
        fn = basic_function(initial=3, timeout_seconds=timeout,
                            service={"distribution": "deterministic", "rate": 0.5})
        sim = Simulation(make_scenario([fn], horizon=10.0, controller={"epoch_seconds": 1.0}))
        sim.functions["f1"].arrivals = np.array(arrivals)
        return sim.run()

    def test_rerun_lands_on_an_idle_sibling_and_late_requests_drop(self, monkeypatch):
        m = self._terminate_first_busy(monkeypatch, [0.2, 0.4, 2.5, 2.6, 2.7, 2.8], 1.0)
        nan = float("nan")
        assert m.reruns == 1 and m.epochs[0].terminates == 1
        got = _records(m)
        want = [("f1", 0.2, 1.0, 3.0, 3, "completed", 1),
                ("f1", 0.4, 0.4, 2.4, 2, "completed", 0),
                ("f1", 2.5, 2.5, 4.5, 2, "completed", 0),
                ("f1", 2.6, 3.0, 5.0, 3, "completed", 0),
                ("f1", 2.7, nan, nan, -1, "dropped", 0),
                ("f1", 2.8, nan, nan, -1, "dropped", 0)]
        assert [r[:2] + r[4:] for r in got] == [r[:2] + r[4:] for r in want]
        assert np.array_equal([r[2:4] for r in got], [r[2:4] for r in want], equal_nan=True)

    def test_an_expired_rerun_still_advances_the_wrr_counters(self, monkeypatch):
        # the rerun of the 0.2 request has waited 0.8 s > 0.5 s at t=1 and is
        # dropped, but the pick made for it leaves container 3 next in line
        m = self._terminate_first_busy(monkeypatch, [0.2, 1.5], 0.5)
        assert [(r.status, r.reruns, r.container_id) for r in m.requests] == [
            ("dropped", 1, -1), ("completed", 0, 3)]


class CheckedSimulation(Simulation):
    """Checks the simulator's tracked state against its definition after every event.

    A container is idle when it is placed, its cold start has ended (no
    ready event for it is still queued) and it serves no request. Every
    placed container has cached WRR units, an allocation record and may
    have a WRR counter of its function; each cached value equals what it
    caches, and no entry outlives its container. A busy container's entry
    holds a request dispatched to it. Every placed container's vCPU and
    multiplier follow from its current CPU fraction. The cluster's
    per-node and per-function views hold the containers a scan of
    `cluster.containers` finds, in the scan's order. "Placed" is read from
    that scan, not from the views. A function's events are run one event
    time at a time, with a check after each.
    """

    checks = 0

    def _check_tracked_state(self, time):
        warming = {payload for rt in self.functions.values()
                   for _, kind, _, payload in rt.events if kind == EV_READY}
        placed = self.cluster.containers
        _, by_function = views = scanned_views(self.cluster)
        assert cluster_views(self.cluster) == views, time
        for fid, rt in self.functions.items():
            ids = set(by_function.get(fid, ()))
            expected = {cid for cid in ids if cid not in warming and cid not in self._busy}
            assert set(rt.idle) == expected, (time, fid)
            assert all(rt.idle[cid] is placed[cid] for cid in expected)
            assert set(rt.wrr_state) <= ids, (time, fid)
        assert set(self._units) == set(placed), time
        assert set(self._alloc_since) == set(placed), time
        assert set(self._busy) <= set(placed), time
        for cid, c in placed.items():
            assert self._units[cid] == simulator.wrr_weight_units(c), (time, cid)
            assert c.multiplier == c.profile.multiplier(c.cpu_fraction), (time, cid)
            assert c.allocated_vcpu == c.standard_vcpu * c.cpu_fraction, (time, cid)
            if cid in self._busy:
                req, _ = self._busy[cid]
                assert (req.container_id, req.status) == (cid, "inflight"), (time, cid)
        self.checks += 1

    def _advance(self, rt, until):
        while True:
            step = min(rt.events[0][0], until) if rt.events else until
            super()._advance(rt, step)
            self._check_tracked_state(step)
            if step == until:
                return

    def _on_estimator(self, time):
        super()._on_estimator(time)
        self._check_tracked_state(time)

    def _on_epoch(self, time, epoch_idx):
        super()._on_epoch(time, epoch_idx)
        self._check_tracked_state(time)


class TestTrackedState:
    @pytest.mark.parametrize("dispatch", ["wrr", "worst_case"])
    def test_idle_index_matches_scan_after_every_event(self, dispatch):
        sim = CheckedSimulation(churn_scenario(dispatch))
        m = sim.run()
        assert m.cold_starts > 0 and m.reruns > 0
        assert sum(e.deflates for e in m.epochs) > 0
        assert sim.checks > len(m.requests)

    def test_deflated_container_serves_at_new_rate(self):
        # one deterministic container at 10 req/s, deflated to 0.7 at the
        # first estimator tick (5 s); service then takes 1 / (10 * m(0.7))
        fn = basic_function(rate=1.0, initial=1,
                            service={"distribution": "deterministic", "rate": 10.0})
        scn = make_scenario([fn], horizon=12.0, controller={"epoch_seconds": 1e9})

        class DeflateAtFirstTick(Simulation):
            def _on_estimator(self, time):
                if time == 5.0:
                    (cid,) = self.cluster.containers
                    self._set_fraction(time, cid, 0.7)
                super()._on_estimator(time)

        sim = DeflateAtFirstTick(scn)
        sim.functions["f1"].arrivals = np.arange(0.25, 11.0, 0.5)
        m = sim.run()
        profile = sim.functions["f1"].spec.profile
        before = [r.completion - r.dispatch for r in m.requests if r.dispatch < 5.0]
        after = [r.completion - r.dispatch for r in m.requests
                 if r.dispatch > 5.0 and r.status == "completed"]
        assert before and after
        assert all(d == pytest.approx(0.1, abs=1e-12) for d in before)
        deflated = 1.0 / (10.0 * profile.multiplier(0.7))
        assert deflated != pytest.approx(0.1)
        assert all(d == pytest.approx(deflated, abs=1e-12) for d in after)

    def test_deflation_mid_service_splits_busy_time_at_the_change(self):
        # a 2 vCPU container serves one 2 s request from t=4 and is deflated
        # to 0.7 at t=5: busy time is 1 s at 2.0 vCPU, then 1 s at 1.4 vCPU
        fn = basic_function(rate=1.0, vcpu=2.0, initial=1,
                            service={"distribution": "deterministic", "rate": 0.5})
        scn = make_scenario([fn], horizon=12.0, controller={"epoch_seconds": 1e9})

        class DeflateAtFirstTick(Simulation):
            def _on_estimator(self, time):
                if time == 5.0:
                    (cid,) = self.cluster.containers
                    self._set_fraction(time, cid, 0.7)
                super()._on_estimator(time)

        sim = DeflateAtFirstTick(scn)
        sim.functions["f1"].arrivals = np.array([4.0])
        m = sim.run()
        assert [(r.dispatch, r.completion) for r in m.requests] == [(4.0, 6.0)]
        assert m.busy_vcpu_time == 1.0 * 2.0 + 1.0 * 1.4


class TestCollectorPause:
    """`run` pauses the cyclic collector and restores the state it found."""

    @staticmethod
    def small_scenario():
        return make_scenario([basic_function(rate=20.0)], horizon=30.0)

    @pytest.fixture
    def collector_state(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_run_restores_the_state_it_found(self, enabled, collector_state):
        seen = []

        class Recording(Simulation):
            def _on_epoch(self, time, epoch_idx):
                seen.append(gc.isenabled())
                super()._on_epoch(time, epoch_idx)

        sim = Recording(self.small_scenario())
        if enabled:
            gc.enable()
        else:
            gc.disable()
        sim.run()
        assert gc.isenabled() is enabled
        assert seen and not any(seen)

    def test_a_run_that_raises_restores_the_collector(self, monkeypatch, collector_state):
        def failing_plan(*args):
            raise RuntimeError("planner failed")

        monkeypatch.setattr(simulator, "plan_epoch", failing_plan)
        sim = Simulation(self.small_scenario())
        gc.enable()
        with pytest.raises(RuntimeError, match="planner failed"):
            sim.run()
        assert gc.isenabled()
        assert sim.metrics.requests  # the requests of the first 10 s are merged

    def test_a_run_creates_no_reference_cycles(self, collector_state):
        # what makes the pause safe: a paused run leaves the collector nothing
        sim = Simulation(churn_scenario())
        gc.collect()
        gc.disable()
        m = sim.run()
        assert gc.collect() == 0
        assert m.reruns > 0 and m.cold_starts > 0
