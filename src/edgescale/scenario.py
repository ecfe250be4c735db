"""Scenario files: schema, validation, dotted-path overrides, and every input file.

A scenario is one YAML document describing the cluster, the controller knobs,
and every function (size, SLO, service profile, workload). Trace and profile
files are resolved relative to the scenario file. This module reads every
file the program takes in, the scenario and its trace and profile CSVs, so
the model modules do no file I/O. `apply_override` edits the raw document
before parsing, so `--override key=value` and editing the file are
interchangeable.

This module checks every value it reads, against its range in `FIELDS` and
the rules that tie fields together, and a bad one is a ConfigError that
starts with the field's path. The model classes trust what it builds and
repeat none of these checks, so a direct call with values no scenario can
hold may misbehave: a zero estimator `tick` or deflation `step` loops for
good.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from .allocator import ControllerConfig, FunctionSpec, SloPolicy
from .cluster import Node
from .errors import ConfigError, ParseError
from .queuing import DEFAULT_CONTAINER_CAP
from .reclamation import DEFAULT_CURVE, DISTRIBUTIONS, ServiceProfile
from .workload import MODES, WorkloadSpec, expected_arrivals

# Arrivals are generated before the run starts. trace_headroom (167k
# requests) peaks at 51 MB in `edgescale run` and at 82 MB in the benchmark,
# which keeps its own per-request statistics. A run grows by about 67 bytes
# per arrival (peak RSS of `edgescale run`, one static function, 167k to
# 1.67M arrivals; Python 3.11, numpy 2.4), so 10M expected arrivals take
# roughly 0.7 GB.
MAX_ARRIVALS = 10_000_000
# A trace's counts hold an 8-byte slot for every minute up to its last one,
# built before MAX_ARRIVALS is checked. A one-row trace at minute 999,999
# (about 1.9 years) loads into a WorkloadSpec in about 0.3 s, peaking at
# 24 MB under tracemalloc (Python 3.11, shared 2-vCPU host).
MAX_TRACE_MINUTES = 1_000_000
# An estimator tick costs 6 us (one function) to 28 us (six), so 1M ticks take
# under half a minute; none after the last epoch runs, so none at all with the
# controller off. An epoch costs 20 us to 1.5 ms (trace_headroom's planner) and
# keeps a 0.5 KB record per function: 100k epochs take at most a few minutes
# and 50 MB per function.
MAX_TICKS = 1_000_000
MAX_EPOCHS = 100_000
# Placement scans every node per create, at about 0.6 us a node, so a create
# on 10k nodes costs 6 ms and a few thousand creates take tens of seconds.
MAX_NODES = 10_000

# libyaml parses tenant_churn.yaml in 5 ms where the pure-Python parser takes
# 38 ms; PyYAML built without libyaml has only the latter
LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

REQUIRED = object()
POSITIVE, NONNEGATIVE = "(0, inf)", "[0, inf)"

# section -> key -> (kind, default, range). A kind is float, int, bool, str,
# a tuple of allowed values, the name of a nested section, "[name]" for a
# list of such sections (each named by its id, else by its index), "pairs"
# for a list of [time, rate] with strictly increasing times, "floats" for a
# list of numbers, or "fractions" for a list of CPU fractions or a count of
# full-size containers. The range, in interval notation, bounds every number
# in the field. A required list must not be empty. A section with a "mode"
# also takes "<section>.<mode>".
FIELDS = {
    "scenario": {
        "horizon_seconds": (float, REQUIRED, POSITIVE),
        "seed": (int, 0, NONNEGATIVE),
        "dispatch": (("wrr", "worst_case"), "wrr"),
        "cluster": ("cluster", REQUIRED),
        "controller": ("controller", {}),
        "estimator": ("estimator", {}),
        "users": ("[user]", []),
        "functions": ("[function]", REQUIRED),
    },
    "cluster": {"nodes": ("[resources]", REQUIRED)},
    "resources": {"vcpu": (float, REQUIRED, POSITIVE), "memory_mb": (float, REQUIRED, POSITIVE)},
    "controller": {
        "epoch_seconds": (float, 10.0, POSITIVE),
        "reclamation": (("deflation", "termination"), "deflation"),
        "tau": (float, 0.3, "(0, 1)"),
        "deflation_step": (float, 0.05, "(0, 1]"),
        "inflation": (bool, True),
    },
    "estimator": {
        "long_window": (float, 120.0, POSITIVE),
        "short_window": (float, 10.0, POSITIVE),
        "tick": (float, 5.0, POSITIVE),
        "burst_factor": (float, 2.0, "(1, inf)"),
        "alpha": (float, 0.7, "(0, 1]"),
    },
    "user": {"id": (str, REQUIRED), "weight": (float, 1.0, POSITIVE)},
    "function": {
        "id": (str, REQUIRED),
        "user": (str, "default"),
        "weight": (float, 1.0, POSITIVE),
        "size": ("resources", REQUIRED),
        "slo": ("slo", REQUIRED),
        "service": ("service", REQUIRED),
        "workload": ("workload", REQUIRED),
        "cold_start_seconds": (float, 0.5, NONNEGATIVE),
        "min_containers": (int, 0, f"[0, {DEFAULT_CONTAINER_CAP}]"),
        "initial_containers": ("fractions", 0, "(0, 1]"),
        "timeout_seconds": (float, None, POSITIVE),
    },
    "slo": {
        "deadline": (float, REQUIRED, POSITIVE),
        "percentile": (float, 0.99, "(0, 1)"),
        "applies_to": (("waiting", "response"), "waiting"),
    },
    "service": {
        "distribution": (DISTRIBUTIONS, "exponential"),
        "rate": (float, REQUIRED, POSITIVE),
        "profile_file": (str, None),
        "samples": ("floats", [], POSITIVE),
    },
    "workload": {"mode": (MODES, REQUIRED)},
    "workload.static": {"rate": (float, REQUIRED, NONNEGATIVE)},
    "workload.discrete": {"schedule": ("pairs", REQUIRED, NONNEGATIVE)},
    "workload.continuous": {"points": ("pairs", REQUIRED, NONNEGATIVE)},
    "workload.trace": {"file": (str, REQUIRED), "function": (str, REQUIRED)},
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
    dispatch: str
    initial_fractions: dict  # id -> CPU fractions of the containers placed at t=0


def _read(doc, section, where):
    """Check `doc` against FIELDS[section]; return its values, defaults filled in."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where or 'scenario'}: expected a mapping, got {doc!r}")
    table = FIELDS[section]
    if "mode" in table and doc.get("mode") in table["mode"][0]:
        table = {**table, **FIELDS[f"{section}.{doc['mode']}"]}
    prefix, out = f"{where}." if where else "", {}
    for key, (kind, default, *interval) in table.items():
        if key not in doc and default is REQUIRED:
            raise ConfigError(f"{where or 'scenario'}: missing required field {key!r}")
        value = doc.get(key, default)
        out[key] = None if value is None and default is None else _value(
            value, kind, prefix + key, *interval)
        if default is REQUIRED and out[key] in ([], ()):
            raise ConfigError(f"{prefix}{key}: must not be empty")
    for key in doc:
        if key not in table:
            raise ConfigError(f"{prefix}{key}: unknown key; known: {', '.join(table)}")
    return out


def _value(value, kind, at, interval=None):
    if kind in (float, int):
        return _number(value, kind, interval, at)
    if kind in (bool, str):
        if not isinstance(value, kind):
            noun = "true or false" if kind is bool else "a string"
            raise ConfigError(f"{at}: expected {noun}, got {value!r}")
        return value
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{at}: must be one of {'|'.join(kind)}, got {value!r}")
        return value
    if kind in FIELDS:
        return _read(value, kind, at)
    if kind == "fractions" and isinstance(value, int) and not isinstance(value, bool):
        return [1.0] * _number(value, int, f"[0, {DEFAULT_CONTAINER_CAP}]", at)
    if not isinstance(value, list):
        noun = "a count or a list" if kind == "fractions" else "a list"
        raise ConfigError(f"{at}: expected {noun}, got {value!r}")
    if kind == "pairs":
        pairs = []
        for i, entry in enumerate(value):
            if not isinstance(entry, list) or len(entry) != 2:
                raise ConfigError(f"{at}[{i}]: expected a [time, rate] pair, got {entry!r}")
            t, rate = (_number(x, float, interval, f"{at}[{i}]") for x in entry)
            if pairs and t <= pairs[-1][0]:
                raise ConfigError(f"{at}[{i}]: time must be > {pairs[-1][0]}, the time "
                                  f"before it, got {t}")
            pairs.append((t, rate))
        return tuple(pairs)
    if kind in ("floats", "fractions"):
        return [_number(x, float, interval, f"{at}[{i}]") for i, x in enumerate(value)]
    out, names = [], set()
    for i, entry in enumerate(value):
        ident = entry.get("id") if isinstance(entry, dict) else None
        name = f"{at}.{ident}" if isinstance(ident, str) else f"{at}[{i}]"
        if name in names:
            raise ConfigError(f"{name}: duplicate {kind[1:-1]} id")
        names.add(name)
        out.append(_read(entry, kind[1:-1], name))
    return out


def _number(value, kind, interval, at):
    try:
        if isinstance(value, bool) or (kind is int and not isinstance(value, int)):
            raise TypeError
        x = kind(value)  # float() also reads strings: PyYAML loads 1e9 as one
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{at}: expected {noun}, got {value!r}") from None
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    if not ((lo < x if interval[0] == "(" else lo <= x)
            and (x < hi if interval[-1] == ")" else x <= hi)):
        raise ConfigError(f"{at}: must be in {interval}, got {x}")
    return x


def read_file(load, path, prefix=""):
    """Return `load(path)`, re-raising what stops it as a ConfigError that
    names `path` after `prefix`: a file that cannot be opened or is not UTF-8
    text, or a ParseError from `load`, whose message follows.
    """
    try:
        return load(path)
    except OSError as exc:
        reason = exc.strerror or exc
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text ({exc.reason})"
    except ParseError as exc:
        reason = exc
    raise ConfigError(f"{prefix}{path}: {reason}") from None


def _csv_rows(path, width, header):
    """(line, cells) of each data row of the CSV file `path`.

    Records are numbered from 1. Empty, whitespace-only and `#`-led rows are
    skipped, and so is line 1 when its first cell, in any case, is in
    `header`; any other row must have `width` cells.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        for line, row in enumerate(csv.reader(fh), start=1):
            first = row[0].strip() if row else ""
            if (not first and len(row) < 2) or first.startswith("#") or (
                    line == 1 and first.lower() in header):
                continue
            if len(row) != width:
                raise ParseError(f"expected {width} columns, got {len(row)}", line=line)
            yield line, row


def load_trace(path) -> dict:
    """Read a trace CSV (`function_id,minute_index,count`) into per-minute counts.

    Rows for a function may appear in any order but must not repeat a minute;
    minutes absent from the file count as zero, and every minute is below
    MAX_TRACE_MINUTES. Returns {function_id: counts}, counts[0] being the
    first minute, in first-appearance order.
    """
    per_fn: dict = {}
    for line, (fn, minute, count) in _csv_rows(path, 3, ("function_id",)):
        fn = fn.strip()
        if not fn:
            raise ParseError("empty function_id", line=line)
        try:
            minute, count = int(minute), int(count)
        except ValueError as exc:
            raise ParseError(f"bad integer field: {exc}", line=line) from None
        if minute < 0:
            raise ParseError(f"negative minute_index {minute}", line=line)
        if minute >= MAX_TRACE_MINUTES:
            raise ParseError(f"minute_index {minute} over the {MAX_TRACE_MINUTES:,} limit",
                             line=line)
        if count < 0:
            raise ParseError(f"negative count {count}", line=line)
        minutes = per_fn.setdefault(fn, {})
        if minute in minutes:
            raise ParseError(f"duplicate minute {minute} for function {fn!r}", line=line)
        minutes[minute] = count
    return {fn: tuple(minutes.get(m, 0) for m in range(max(minutes) + 1))
            for fn, minutes in per_fn.items()}


def load_profile_curve(path) -> tuple:
    """Read (cpu_fraction, mean service seconds) rows into a multiplier curve.

    The multiplier at fraction f is time(1.0)/time(f), so the file must
    include a fraction-1.0 row to normalise against. No fraction may repeat,
    no service time may rise with the fraction, and every row within 1e-9 of
    fraction 1.0 must give multiplier 1.0.
    """
    rows = {}
    for line, (frac, seconds) in _csv_rows(path, 2, ("cpu_fraction", "fraction")):
        try:
            frac, seconds = float(frac), float(seconds)
        except ValueError as exc:
            raise ParseError(f"bad number: {exc}", line=line) from None
        if not 0 < frac <= 1:
            raise ParseError(f"cpu_fraction {frac} outside (0, 1]", line=line)
        if not 0 < seconds < math.inf:
            raise ParseError(f"service time must be > 0 and finite, got {seconds}", line=line)
        if frac in rows:
            raise ParseError(f"repeated cpu_fraction {frac}", line=line)
        rows[frac] = seconds
    if not rows:
        raise ParseError("no data rows")
    rows = sorted(rows.items())
    full = [s for f, s in rows if abs(f - 1.0) < 1e-9]
    if not full:
        raise ParseError("missing the cpu_fraction=1.0 row to normalise against")
    curve = tuple((f, full[0] / s) for f, s in rows)
    for (f0, m0), (f1, m1) in zip(curve, curve[1:]):
        if m1 < m0:
            raise ParseError(f"service time rises from cpu_fraction {f0} to {f1}")
    if abs(curve[-1][1] - 1.0) > 1e-9:
        raise ParseError(f"multiplier {curve[-1][1]:.6g} at full size, not 1.0: the rows within "
                         "1e-9 of cpu_fraction 1.0 differ in service time")
    return curve


def _workload(doc, where, base_dir, traces):
    """The function's WorkloadSpec; `traces` caches each trace file by path."""
    if doc["mode"] == "trace":
        path = base_dir / doc["file"]
        if path not in traces:
            traces[path] = read_file(load_trace, path, f"{where}.file: ")
        if doc["function"] not in traces[path]:
            raise ConfigError(f"{where}.function: {doc['function']!r} not in trace {path}")
        return WorkloadSpec(mode="trace", per_minute_counts=traces[path][doc["function"]])
    schedule = ((0.0, doc["rate"]),) if doc["mode"] == "static" else doc.get("schedule", ())
    return WorkloadSpec(mode=doc["mode"], rate_schedule=schedule,
                        rate_points=doc.get("points", ()))


def from_dict(doc: dict, base_dir) -> Scenario:
    """Build a validated Scenario from a parsed YAML document."""
    base_dir = Path(base_dir)
    top = _read(doc, "scenario", "")
    if len(top["cluster"]["nodes"]) > MAX_NODES:
        raise ConfigError(f"cluster.nodes: {len(top['cluster']['nodes']):,} nodes, over the "
                          f"{MAX_NODES:,} limit")
    est = top["estimator"]
    if not est["short_window"] < est["long_window"]:
        raise ConfigError(f"estimator.short_window: must be < long_window "
                          f"{est['long_window']}, got {est['short_window']}")

    user_weights = {user["id"]: user["weight"] for user in top["users"]}
    in_user_total: dict = {}
    for fn in top["functions"]:
        if user_weights and fn["user"] not in user_weights:
            raise ConfigError(f"functions.{fn['id']}.user: unknown user {fn['user']!r}")
        in_user_total[fn["user"]] = in_user_total.get(fn["user"], 0) + fn["weight"]

    functions, workloads, initial_fractions, traces = {}, {}, {}, {}
    for fn in top["functions"]:
        fid, service = fn["id"], fn["service"]
        where = f"functions.{fid}"
        if service["distribution"] == "empirical" and not service["samples"]:
            raise ConfigError(f"{where}.service.samples: must not be empty for an empirical "
                              "distribution")
        curve = DEFAULT_CURVE
        if service["profile_file"] is not None:
            curve = read_file(load_profile_curve, base_dir / service["profile_file"],
                              f"{where}.service.profile_file: ")
        functions[fid] = FunctionSpec(
            id=fid,
            weight=user_weights.get(fn["user"], 1.0) * fn["weight"] / in_user_total[fn["user"]],
            slo=SloPolicy(**fn["slo"]),
            vcpu=fn["size"]["vcpu"], memory_mb=fn["size"]["memory_mb"],
            profile=ServiceProfile(base_rate=service["rate"], distribution=service["distribution"],
                                   curve=curve, samples=tuple(service["samples"])),
            cold_start_s=fn["cold_start_seconds"], min_containers=fn["min_containers"],
            timeout_s=fn["timeout_seconds"])
        workloads[fid] = _workload(fn["workload"], f"{where}.workload", base_dir, traces)
        initial_fractions[fid] = fn["initial_containers"]

    horizon = top["horizon_seconds"]
    expected = {fid: expected_arrivals(spec, horizon) for fid, spec in workloads.items()}
    if sum(expected.values()) > MAX_ARRIVALS:
        worst = max(expected, key=expected.get)
        raise ConfigError(f"functions.{worst}.workload: expects {expected[worst]:.3g} of "
                          f"{sum(expected.values()):.3g} arrivals, over the {MAX_ARRIVALS:,} limit")

    ctrl = top["controller"]
    for at, step, limit in (("estimator.tick", top["estimator"]["tick"], MAX_TICKS),
                            ("controller.epoch_seconds", ctrl["epoch_seconds"], MAX_EPOCHS)):
        if horizon / step > limit:
            raise ConfigError(f"{at}: horizon_seconds / {at} is {horizon / step:.3g} events, "
                              f"over the {limit:,} limit")
    return Scenario(
        nodes=[Node(**node) for node in top["cluster"]["nodes"]],
        functions=functions,
        workloads=workloads,
        controller=ControllerConfig(
            epoch_s=ctrl["epoch_seconds"], reclamation_mode=ctrl["reclamation"],
            tau=ctrl["tau"], deflation_step=ctrl["deflation_step"],
            inflation_enabled=ctrl["inflation"]),
        estimator_params=top["estimator"],
        horizon_s=horizon, seed=top["seed"], dispatch=top["dispatch"],
        initial_fractions=initial_fractions,
    )


def _parse_yaml(path):
    """The YAML document in `path`; a syntax error is a ParseError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return yaml.load(fh, Loader=LOADER)
        except yaml.YAMLError as exc:
            raise ParseError(f"invalid YAML: {exc}") from None


def load(path, overrides=()) -> Scenario:
    """Load a scenario file, applying `key=value` overrides before parsing."""
    path = Path(path)
    doc = read_file(_parse_yaml, path)
    for item in overrides:
        doc = apply_override(doc, item)
    return from_dict(doc, base_dir=path.parent)


def apply_override(doc: dict, assignment: str) -> dict:
    """Apply one `dotted.path=value` override to a raw scenario document.

    List elements are addressed by their `id` field (e.g.
    `functions.f1.workload.rate=20`) or by integer index. The value is parsed
    as YAML, so numbers, booleans and lists all work. Edits `doc` in place
    and returns it.
    """
    if "=" not in assignment:
        raise ConfigError(f"override must look like key=value, got {assignment!r}")
    key, raw_value = assignment.split("=", 1)
    try:
        value = yaml.load(raw_value, Loader=LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"override {key!r}: invalid YAML value {raw_value!r}: "
                          f"{getattr(exc, 'problem', None) or exc}") from None
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
            scalar = repr(parts[i - 1]) if i else "the scenario"
            raise ConfigError(f"override {key!r}: {scalar} is not a mapping")
    return doc
