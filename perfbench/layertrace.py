"""Per-layer timing for traced benchmark runs.

A `Tracer` wraps public edgescale functions from outside: it replaces each one
in every edgescale module (and class) that holds it, records calls, inclusive
time and self time (inclusive time minus the time of wrapped calls made
inside it), and puts every original back on `restore()`. Untraced runs never
import this module, so tracing costs nothing when it is off.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
import types
from collections import Counter


class LayerStat:
    __slots__ = ("calls", "total_s", "self_s", "durations", "extra")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations = [] if keep_durations else None
        self.extra = Counter()


class Tracer:
    def __init__(self):
        self.stats: dict = {}
        self._stack = [0.0]  # time spent in wrapped children, one slot per open call
        self._patches: list = []  # (owner, attribute, original)

    def wrap(self, owner, attr: str, name: str, observe=None, keep_durations=False):
        """Replace `owner.attr` (a module function or a class method) by a timed wrapper.

        `observe(extra, args, kwargs, result, exc)` may add counters to the
        layer's `extra` after each call.
        """
        original = getattr(owner, attr)
        stat = LayerStat(keep_durations)
        self.stats[name] = stat
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            result = exc = None
            t0 = perf()
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                dt = perf() - t0
                child = stack.pop()
                stack[-1] += dt
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child
                if stat.durations is not None:
                    stat.durations.append(dt)
                if observe is not None:
                    observe(stat.extra, args, kwargs, result, exc)

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
        else:
            # `from .x import f` copies the reference, so patch every holder
            for mod in _edgescale_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def count_events(self, simulator_module):
        """Count heap pops in the simulator's event loop as `sim.events`."""
        real = simulator_module.heapq
        stat = LayerStat(False)
        self.stats["sim.events"] = stat
        pop = real.heappop

        def heappop(heap):
            stat.calls += 1
            return pop(heap)

        proxy = types.SimpleNamespace(heappush=real.heappush, heappop=heappop)
        self._set(simulator_module, "heapq", proxy)

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _edgescale_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "edgescale" or name.startswith("edgescale."))]


def _arguments(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer the benchmark reports on."""
    from edgescale import (allocator, cli, cluster, errors, fairshare, oracle, queuing,
                           reclamation, scenario, simulator, workload)

    def count_len(key, of_result=True):
        def observe(extra, args, kwargs, result, exc):
            if exc is None:
                extra[key] += len(result if of_result else args[0])
        return observe

    find_c_signature = inspect.signature(queuing.find_c_homogeneous)

    def scan_steps(extra, args, kwargs, result, exc):
        if exc is None:
            a = _arguments(find_c_signature, args, kwargs)
            start = max(a["c_start"], queuing.min_stable_count(a["lam"], a["mu"]))
            extra["scan_steps"] += result - start + 1

    mc_wait_signature = inspect.signature(oracle.mc_wait)

    def oracle_requests(extra, args, kwargs, result, exc):
        extra["requests"] += _arguments(mc_wait_signature, args, kwargs)["num_requests"]

    def overloaded(extra, args, kwargs, result, exc):
        if exc is None:
            extra["overloaded"] += bool(result.overloaded)

    def no_capacity(extra, args, kwargs, result, exc):
        if isinstance(exc, errors.NoCapacity):
            extra["no_capacity"] += 1

    tracer.wrap(scenario, "load", "scenario.load")
    tracer.wrap(workload, "generate_arrivals", "workload.generate_arrivals")
    tracer.wrap(simulator.Simulation, "run", "simulator.run")
    tracer.wrap(simulator, "dispatch_wrr", "simulator.dispatch_wrr",
                observe=count_len("candidates", of_result=False))
    tracer.wrap(cluster.ClusterState, "of_function", "cluster.of_function",
                observe=count_len("containers"))
    tracer.wrap(cluster.ClusterState, "node_free", "cluster.node_free")
    tracer.wrap(reclamation.ServiceProfile, "multiplier", "reclamation.ServiceProfile.multiplier")
    tracer.wrap(allocator, "plan_epoch", "allocator.plan_epoch", keep_durations=True)
    tracer.wrap(allocator, "place", "allocator.place", observe=no_capacity)
    tracer.wrap(queuing, "find_c_homogeneous", "queuing.find_c_homogeneous", observe=scan_steps)
    tracer.wrap(queuing, "find_c_heterogeneous", "queuing.find_c_heterogeneous")
    tracer.wrap(queuing, "wait_cdf_homogeneous", "queuing.wait_cdf_homogeneous")
    tracer.wrap(queuing, "wait_cdf_heterogeneous", "queuing.wait_cdf_heterogeneous")
    tracer.wrap(fairshare, "adjust_allocations", "fairshare.adjust_allocations",
                observe=overloaded)
    for name in ("reclaim_by_deflation_grouped", "reclaim_by_termination", "plan_inflation"):
        tracer.wrap(reclamation, name, f"reclamation.{name}", observe=count_len("actions"))
    tracer.wrap(oracle, "mc_wait", "oracle.mc_wait", observe=oracle_requests)
    tracer.wrap(cli, "run_scenario_to_dir", "cli.run_scenario_to_dir")
    tracer.count_events(simulator)
    return tracer


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _mean(total, calls) -> float:
    return total / calls if calls else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The traced run's per-layer figures, by `<module>.<function>.<stat>` name."""
    s = tracer.stats
    out = {
        "scenario.load.ms": _ms(s["scenario.load"].total_s),
        "simulator.run.self_ms": _ms(s["simulator.run"].self_s),
        "sim.events": s["sim.events"].calls,
        "cli.output.ms": _ms(s["cli.run_scenario_to_dir"].self_s),
    }
    for name in ("workload.generate_arrivals", "simulator.dispatch_wrr", "cluster.of_function",
                 "cluster.node_free", "reclamation.ServiceProfile.multiplier", "allocator.place",
                 "queuing.find_c_homogeneous", "queuing.find_c_heterogeneous",
                 "fairshare.adjust_allocations", "reclamation.reclaim_by_deflation_grouped",
                 "reclamation.reclaim_by_termination", "reclamation.plan_inflation"):
        out[f"{name}.calls"] = s[name].calls
        out[f"{name}.ms"] = _ms(s[name].total_s)
    for name in ("queuing.wait_cdf_homogeneous", "queuing.wait_cdf_heterogeneous",
                 "oracle.mc_wait"):
        out[f"{name}.calls"] = s[name].calls
    plan = s["allocator.plan_epoch"]
    out["allocator.plan_epoch.calls"] = plan.calls
    out["allocator.plan_epoch.ms_total"] = _ms(plan.total_s)
    if len(plan.durations) >= 2:
        q = statistics.quantiles(plan.durations, n=20, method="inclusive")
        out["allocator.plan_epoch.ms_p50"] = _ms(statistics.median(plan.durations))
        out["allocator.plan_epoch.ms_p95"] = _ms(q[18])
    else:
        out["allocator.plan_epoch.ms_p50"] = out["allocator.plan_epoch.ms_p95"] = \
            _ms(sum(plan.durations))
    dispatch, scan = s["simulator.dispatch_wrr"], s["cluster.of_function"]
    out["simulator.dispatch_wrr.mean_candidates"] = _mean(dispatch.extra["candidates"],
                                                          dispatch.calls)
    out["cluster.of_function.mean_containers"] = _mean(scan.extra["containers"], scan.calls)
    homog = s["queuing.find_c_homogeneous"]
    out["queuing.find_c_homogeneous.mean_scan_steps"] = _mean(homog.extra["scan_steps"],
                                                              homog.calls)
    out["fairshare.adjust_allocations.overloaded"] = \
        s["fairshare.adjust_allocations"].extra["overloaded"]
    for name in ("reclaim_by_deflation_grouped", "reclaim_by_termination", "plan_inflation"):
        out[f"reclamation.{name}.actions"] = s[f"reclamation.{name}"].extra["actions"]
    out["allocator.place.no_capacity"] = s["allocator.place"].extra["no_capacity"]
    mc = s["oracle.mc_wait"]
    requests = mc.extra["requests"]
    out["oracle.mc_wait.ms_per_100k"] = _ms(mc.total_s) / (requests / 1e5) if requests else 0.0
    return out
