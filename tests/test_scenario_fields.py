"""Every scenario field, mutated: a bad value is a ConfigError that starts
with the field's path, and a value that loads runs to the horizon with the
simulator's conservation and capacity invariants holding. An `EXTREME`
value may instead fail on a field it feeds, as `FEEDS` lists them: a rate
on its workload's arrival count, say.

The cases are generated from `scenario.FIELDS`, so a field added to the table
is mutated here without editing this file; `FULL` must set every field. Each
case runs under a `TIME_LIMIT`-second timer, so a value that hangs the
loader or the simulator fails its case instead of stalling the suite.
"""

import copy
import re

import pytest

from edgescale.errors import ConfigError
from edgescale.scenario import FIELDS, from_dict
from scenario_builders import REPO_ROOT, InvariantSimulation, time_limit


def _function(fid, user, workload, service, **extra):
    fn = {
        "id": fid,
        "user": user,
        "weight": 1.0,
        "size": {"vcpu": 1.0, "memory_mb": 256.0},
        "slo": {"deadline": 0.3, "percentile": 0.9, "applies_to": "waiting"},
        "service": {"distribution": "exponential", "rate": 10.0,
                    "profile_file": "profiles/sample_profile.csv", "samples": [0.1], **service},
        "workload": workload,
        "cold_start_seconds": 0.5,
        "min_containers": 1,
        "initial_containers": 1,
        "timeout_seconds": 5.0,
    }
    fn.update(extra)
    return fn


# one function per workload mode, every optional field set
FULL = {
    "horizon_seconds": 20.0,
    "seed": 1,
    "dispatch": "wrr",
    "cluster": {"nodes": [{"vcpu": 4.0, "memory_mb": 4096.0}, {"vcpu": 2.0, "memory_mb": 2048.0}]},
    "controller": {"epoch_seconds": 5.0, "reclamation": "deflation", "tau": 0.3,
                   "deflation_step": 0.05, "inflation": True},
    "estimator": {"long_window": 30.0, "short_window": 5.0, "tick": 2.5,
                  "burst_factor": 2.0, "alpha": 0.7},
    "users": [{"id": "u1", "weight": 1.0}, {"id": "u2", "weight": 2.0}],
    "functions": [
        _function("st", "u1", {"mode": "static", "rate": 2.0}, {}),
        _function("di", "u2", {"mode": "discrete", "schedule": [[0, 2], [10, 4]]},
                  {"distribution": "deterministic", "rate": 8.0},
                  initial_containers=[0.7, 1.0],
                  slo={"deadline": 0.5, "percentile": 0.9, "applies_to": "response"}),
        _function("co", "u2", {"mode": "continuous", "points": [[0, 1], [20, 3]]},
                  {"distribution": "empirical", "samples": [0.05, 0.1, 0.2]}),
        _function("tr", "u1", {"mode": "trace", "file": "traces/six_function_hour.csv",
                               "function": "squeezenet"}, {}),
    ],
}


def _fields(doc, section, where, keys=(), by_index=None):
    """(keys into the document, field path, section path, kind) for every field."""
    table = dict(FIELDS[section])
    if "mode" in table:
        table.update(FIELDS[f"{section}.{doc['mode']}"])
    for key, (kind, *_) in table.items():
        at, owner = (f"{where}.{key}" if where else key), where or "scenario"
        if key == "id":  # an entry whose id is bad or missing is named by its index
            at, owner = f"{by_index}.id", by_index
        yield keys + (key,), at, owner, kind
        if isinstance(kind, str) and kind in FIELDS:
            yield from _fields(doc[key], kind, at, keys + (key,))
        elif isinstance(kind, str) and kind.startswith("["):
            for i, entry in enumerate(doc[key]):
                name = f"{at}.{entry['id']}" if "id" in entry else f"{at}[{i}]"
                yield from _fields(entry, kind[1:-1], name, keys + (key, i), f"{at}[{i}]")


# (field path, path of a field it feeds) as regexes; the second is a
# `re.Match.expand` template, which may refer to the first's groups
FEEDS = [
    # horizon times rate is the arrival count, checked on each workload
    (r"horizon_seconds", r"functions\.[^.]+\.workload"),
    (r"(functions\.\w+)\.workload\.rate", r"\1\.workload"),
    # node and container sizes decide whether the initial containers fit
    (r"cluster\.nodes\[\d+\]\.(vcpu|memory_mb)", r"functions\.[^.]+\.initial_containers"),
    (r"(functions\.\w+)\.size\.(vcpu|memory_mb)", r"\1\.initial_containers"),
    # the windows' order is one rule, reported on the short window
    (r"estimator\.long_window", r"estimator\.short_window"),
]
MISSING = object()
TIME_LIMIT = 5.0  # seconds per case; a case takes about 10 ms
EXTREME = [("1e-300", 1e-300), ("1e300", 1e300), ("2**63", 2**63), ("10**30", 10**30),
           ("None", None), ("[]", []), ("{}", {})]


def _cases():
    for keys, at, section, kind in _fields(FULL, "scenario", ""):
        wrong = [1] if kind is str else "x"
        for label, value in [("wrong_type", wrong), ("nan", float("nan")),
                             ("inf", float("inf")), ("-inf", float("-inf")),
                             ("0", 0), ("-1", -1), ("missing", MISSING)]:
            yield pytest.param(keys, at, section, value, False, id=f"{at}={label}")
        for label, value in EXTREME:
            yield pytest.param(keys, at, section, value, True, id=f"{at}={label}")


@pytest.mark.parametrize("keys, at, section, value, extreme", list(_cases()))
def test_mutated_field_names_its_path_or_runs(keys, at, section, value, extreme):
    doc = copy.deepcopy(FULL)
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[keys[-1]]
        prefix = section  # a missing key is reported against its section
    else:
        parent[keys[-1]] = copy.deepcopy(value)
        prefix = at
    try:
        with time_limit(TIME_LIMIT):
            InvariantSimulation(from_dict(doc, base_dir=REPO_ROOT)).run()
    except ConfigError as exc:
        named = [re.escape(prefix)]
        if extreme:
            named += [m.expand(fed) for field, fed in FEEDS if (m := re.fullmatch(field, at))]
        assert re.match(rf"({'|'.join(named)})[:.\[]", str(exc)), str(exc)


def test_full_scenario_runs_every_mode():
    m = InvariantSimulation(from_dict(copy.deepcopy(FULL), base_dir=REPO_ROOT)).run()
    assert {r.function_id for r in m.requests} == {"st", "di", "co", "tr"}
