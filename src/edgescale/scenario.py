"""Scenario files: schema, validation, dotted-path overrides.

A scenario is one YAML document describing the cluster, the controller knobs,
and every function (size, SLO, service profile, workload). Trace and profile
files are resolved relative to the scenario file. `apply_override` edits the
raw document before parsing, so `--override key=value` and editing the file
are interchangeable.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .allocator import ControllerConfig, FunctionSpec, SloPolicy
from .cluster import Node
from .errors import ConfigError, InvalidSchedule
from .reclamation import DEFAULT_CURVE, ServiceProfile, load_profile_curve
from .workload import RateEstimator, WorkloadSpec, load_trace

DEFAULT_ESTIMATOR = {
    "long_window": 120.0,
    "short_window": 10.0,
    "tick": 5.0,
    "burst_factor": 2.0,
    "alpha": 0.7,
}


@dataclass
class Scenario:
    nodes: list
    functions: dict  # id -> FunctionSpec, weight = user weight x in-user share
    workloads: dict  # id -> WorkloadSpec
    controller: ControllerConfig
    estimator_params: dict
    horizon_s: float
    seed: int
    dispatch: str = "wrr"
    initial_fractions: dict = field(default_factory=dict)


def _expect(value, kind, where):
    if not isinstance(value, kind):
        noun = "mapping" if kind is dict else "list"
        raise ConfigError(f"{where}: expected a {noun}, got {value!r}")
    return value


def _need(mapping, key, where):
    if key not in _expect(mapping, dict, where):
        raise ConfigError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _as_float(value, where, minimum=None):
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{where}: must be finite, got {out}")
    if minimum is not None and out < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {out}")
    return out


def _as_int(value, where):
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(f"{where}: expected an integer >= 0, got {value!r}")
    return value


def _positive(value, where):
    out = _as_float(value, where)
    if out <= 0:
        raise ConfigError(f"{where}: must be > 0, got {out}")
    return out


def _pairs(doc, key, where):
    pairs = []
    for i, entry in enumerate(_expect(_need(doc, key, where), list, f"{where}.{key}")):
        at = f"{where}.{key}[{i}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise ConfigError(f"{at}: expected a [time, rate] pair, got {entry!r}")
        pairs.append((_as_float(entry[0], at), _as_float(entry[1], at, minimum=0.0)))
    return tuple(pairs)


def _workload_from(doc, where, base_dir):
    mode = _need(doc, "mode", where)
    if mode == "static":
        rate = _as_float(_need(doc, "rate", where), f"{where}.rate", minimum=0.0)
        return WorkloadSpec(mode="static", rate_schedule=((0.0, rate),))
    if mode == "discrete":
        return WorkloadSpec(mode="discrete", rate_schedule=_pairs(doc, "schedule", where))
    if mode == "continuous":
        return WorkloadSpec(mode="continuous", rate_points=_pairs(doc, "points", where))
    if mode == "trace":
        path = base_dir / _need(doc, "file", where)
        if not path.exists():
            raise ConfigError(f"{where}.file: trace file not found: {path}")
        wanted = doc.get("function")
        traces = {t.function_id: t for t in load_trace(path)}
        if wanted is None:
            raise ConfigError(f"{where}: trace mode needs a 'function' row id")
        if wanted not in traces:
            raise ConfigError(f"{where}: function {wanted!r} not in trace {path}")
        return traces[wanted].to_workload()
    raise ConfigError(f"{where}.mode: unknown workload mode {mode!r}")


def _profile_from(doc, where, base_dir):
    dist = _expect(doc, dict, where).get("distribution", "exponential")
    rate = _as_float(_need(doc, "rate", where), f"{where}.rate")
    curve = DEFAULT_CURVE
    if "profile_file" in doc:
        path = base_dir / doc["profile_file"]
        if not path.exists():
            raise ConfigError(f"{where}.profile_file: not found: {path}")
        curve = load_profile_curve(path)
    samples = tuple(doc.get("samples", ()))
    return ServiceProfile(
        base_rate=rate, distribution=dist, curve=curve, samples=samples
    )


def from_dict(doc: dict, base_dir=".") -> Scenario:
    """Build a validated Scenario from a parsed YAML document."""
    base_dir = Path(base_dir)
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a mapping")

    cluster_doc = _need(doc, "cluster", "scenario")
    nodes = []
    node_docs = _expect(_need(cluster_doc, "nodes", "cluster"), list, "cluster.nodes")
    for i, node in enumerate(node_docs):
        nodes.append(
            Node(
                vcpu=_as_float(_need(node, "vcpu", f"cluster.nodes[{i}]"),
                               f"cluster.nodes[{i}].vcpu"),
                memory_mb=_as_float(_need(node, "memory_mb", f"cluster.nodes[{i}]"),
                                    f"cluster.nodes[{i}].memory_mb"),
            )
        )
    if not nodes:
        raise ConfigError("cluster.nodes: at least one node required")

    ctrl_doc = _expect(doc.get("controller", {}), dict, "controller")
    mode = ctrl_doc.get("reclamation", "deflation")
    if mode not in ("deflation", "termination"):
        raise ConfigError(f"controller.reclamation: must be deflation|termination, got {mode!r}")
    inflation = ctrl_doc.get("inflation", True)
    if not isinstance(inflation, bool):
        raise ConfigError(f"controller.inflation: must be true or false, got {inflation!r}")
    controller = ControllerConfig(
        epoch_s=_as_float(ctrl_doc.get("epoch_seconds", 10.0), "controller.epoch_seconds"),
        reclamation_mode=mode,
        tau=_as_float(ctrl_doc.get("tau", 0.3), "controller.tau"),
        deflation_step=_as_float(ctrl_doc.get("deflation_step", 0.05),
                                 "controller.deflation_step"),
        inflation_enabled=inflation,
    )

    est = dict(DEFAULT_ESTIMATOR)
    for key, value in _expect(doc.get("estimator", {}), dict, "estimator").items():
        if key not in est:
            raise ConfigError(f"estimator.{key}: unknown key; known: {', '.join(est)}")
        est[key] = _as_float(value, f"estimator.{key}")
    _positive(est["tick"], "estimator.tick")
    try:
        RateEstimator(**est)
    except InvalidSchedule as exc:
        raise ConfigError(f"estimator.{exc}") from None

    fn_docs = _expect(_need(doc, "functions", "scenario"), list, "functions")
    if not fn_docs:
        raise ConfigError("functions: at least one function required")

    user_weights = {}
    for i, user_doc in enumerate(_expect(doc.get("users", []), list, "users")):
        uid = _need(user_doc, "id", f"users[{i}]")
        user_weights[uid] = _positive(user_doc.get("weight", 1.0), f"users.{uid}.weight")
    by_user: dict = {}
    for i, fn in enumerate(fn_docs):
        fid = _need(fn, "id", f"functions[{i}]")
        user = fn.get("user", "default")
        if user_weights and user not in user_weights:
            raise ConfigError(f"functions.{fid}.user: unknown user {user!r}")
        by_user.setdefault(user, []).append(
            (fid, _positive(fn.get("weight", 1.0), f"functions.{fid}.weight"))
        )
    effective = {}
    for user, fns in by_user.items():
        in_user_total = sum(w for _, w in fns)
        for fid, w in fns:
            effective[fid] = user_weights.get(user, 1.0) * w / in_user_total

    functions = {}
    workloads = {}
    initial_fractions = {}
    for fn in fn_docs:
        fid = fn["id"]
        where = f"functions.{fid}"
        if fid in functions:
            raise ConfigError(f"{where}: duplicate function id")
        size = _need(fn, "size", where)
        slo_doc = _expect(_need(fn, "slo", where), dict, f"{where}.slo")
        applies_to = slo_doc.get("applies_to", "waiting")
        if applies_to not in ("waiting", "response"):
            raise ConfigError(f"{where}.slo.applies_to: waiting|response, got {applies_to!r}")
        slo = SloPolicy(
            deadline=_as_float(_need(slo_doc, "deadline", f"{where}.slo"),
                               f"{where}.slo.deadline"),
            percentile=_as_float(slo_doc.get("percentile", 0.99), f"{where}.slo.percentile"),
            applies_to=applies_to,
        )
        profile = _profile_from(_need(fn, "service", where), f"{where}.service", base_dir)
        timeout = fn.get("timeout_seconds")
        functions[fid] = FunctionSpec(
            id=fid,
            weight=effective[fid],
            slo=slo,
            vcpu=_as_float(_need(size, "vcpu", f"{where}.size"), f"{where}.size.vcpu"),
            memory_mb=_as_float(_need(size, "memory_mb", f"{where}.size"),
                                f"{where}.size.memory_mb"),
            profile=profile,
            cold_start_s=_as_float(fn.get("cold_start_seconds", 0.5),
                                   f"{where}.cold_start_seconds", minimum=0.0),
            min_containers=_as_int(fn.get("min_containers", 0), f"{where}.min_containers"),
            timeout_s=None if timeout is None else _as_float(timeout, f"{where}.timeout_seconds"),
        )
        workloads[fid] = _workload_from(_need(fn, "workload", where), f"{where}.workload",
                                        base_dir)
        initial = fn.get("initial_containers", 0)
        if isinstance(initial, int):
            initial_fractions[fid] = [1.0] * initial
        else:
            initial_fractions[fid] = [float(x) for x in initial]

    dispatch = doc.get("dispatch", "wrr")
    if dispatch not in ("wrr", "worst_case"):
        raise ConfigError(f"dispatch: must be wrr|worst_case, got {dispatch!r}")

    return Scenario(
        nodes=nodes,
        functions=functions,
        workloads=workloads,
        controller=controller,
        estimator_params=est,
        horizon_s=_as_float(_need(doc, "horizon_seconds", "scenario"), "horizon_seconds",
                            minimum=1e-9),
        seed=_as_int(doc.get("seed", 0), "seed"),
        dispatch=dispatch,
        initial_fractions=initial_fractions,
    )


def load(path, overrides=()) -> Scenario:
    """Load a scenario file, applying `key=value` overrides before parsing."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    for item in overrides:
        doc = apply_override(doc, item)
    return from_dict(doc, base_dir=path.parent)


def apply_override(doc: dict, assignment: str) -> dict:
    """Apply one `dotted.path=value` override to a raw scenario document.

    List elements are addressed by their `id` field (e.g.
    `functions.f1.workload.rate=20`) or by integer index. The value is parsed
    as YAML, so numbers, booleans and lists all work.
    """
    if "=" not in assignment:
        raise ConfigError(f"override must look like key=value, got {assignment!r}")
    key, raw_value = assignment.split("=", 1)
    value = yaml.safe_load(raw_value)
    doc = copy.deepcopy(doc)
    node = doc
    parts = key.strip().split(".")
    for i, part in enumerate(parts):
        last = i == len(parts) - 1
        if isinstance(node, list):
            match = None
            for item in node:
                if isinstance(item, dict) and str(item.get("id")) == part:
                    match = item
                    break
            if match is None:
                try:
                    match = node[int(part)]
                except (ValueError, IndexError):
                    raise ConfigError(f"override {key!r}: no list item {part!r}") from None
            if last:
                raise ConfigError(f"override {key!r}: cannot replace a whole list item")
            node = match
        elif isinstance(node, dict):
            if last:
                node[part] = value
            else:
                node = node.setdefault(part, {})
        else:
            raise ConfigError(f"override {key!r}: {part!r} is not a mapping")
    return doc
