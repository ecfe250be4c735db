"""Golden output: a small run's output files are pinned byte for byte.

A speedup of the simulator or the writers must leave `requests.csv`,
`epochs.csv` and `summary.txt` byte-identical for the same scenario and seed.
`churn_scenario` cold-starts, deflates, inflates and terminates containers
and reruns requests within three simulated minutes. The digests were recorded
before the simulator's idle index and multiplier cache went in. The
controller variants pin the heterogeneous sizing branch (inflation off) and
termination-mode reclamation, which no benchmark workload runs; their digests
were recorded before the epoch plan and the epoch record became one type.
The trace replay draws more than one 4,096-element block of service times for
every function; its digests were recorded before service times were drawn in
blocks.

`requests.csv` is also checked against what `csv.writer`, which wrote it
before rows were formatted directly, makes of the same records, with function
ids that need quoting; the edge-case rows are appended to the request log's
columns, so they go through the same column store as a run's rows.

`edgescale validate` is pinned the same way, by its exact stdout on the
benchmark's validate cases. That text was recorded while the oracle still
scanned every server per request, before its idle and busy heaps went in.
"""

import csv
import hashlib
import importlib.util
import math

import numpy as np
import pytest
import yaml

from edgescale import cli, queuing, scenario
from edgescale.simulator import STATUSES, Request, RequestLog
from scenario_builders import REPO_ROOT, churn_scenario

GOLDEN = {
    "wrr": {
        "requests.csv": "101dd82251e2e15a084b06f78fe47152425c77933b5a57417389d1c8a7540e9b",
        "epochs.csv": "0494a79c1b40b7ed75b931ae18750c7d6c2af66ed1a63668950d4210f576ab3a",
        "summary.txt": "21ddf9caa5d6bc1f90c794b1570727566cc1baf5640cf185c8f06234b880542c",
    },
    "worst_case": {
        "requests.csv": "661672bd87ccd2466a6ce2c109cd3597c0eebe912607e87f8632f8b08be61543",
        "epochs.csv": "0494a79c1b40b7ed75b931ae18750c7d6c2af66ed1a63668950d4210f576ab3a",
        "summary.txt": "234bb0d44f085350de84e690d1cf100f97fab69507c49abc8868e7efccc53f0b",
    },
}

CONTROLLERS = {
    "inflation_off": {"inflation": False},
    "termination": {"reclamation": "termination"},
}

GOLDEN_CONTROLLERS = {
    ("inflation_off", "wrr"): {
        "requests.csv": "633b41a89b4e875275089609710991843a386b76b94c7d506c2ad7c889374bcd",
        "epochs.csv": "130b9ffd58c96ed2c92c8c29c1839d75c5834919937b4f5bad110af24dfc4632",
        "summary.txt": "877297e984873fd60c5c1c6bd84d99d143feb92483e54eba47dab14aa3a4d509",
    },
    ("inflation_off", "worst_case"): {
        "requests.csv": "ed8c87e5fba0b6bc1700e94342242ba38824ad28f150543c8ac8b67f7fa9dd00",
        "epochs.csv": "130b9ffd58c96ed2c92c8c29c1839d75c5834919937b4f5bad110af24dfc4632",
        "summary.txt": "72750b9a198c056cefbb12b31ca9a4996b8b0463fcdc989474239c4700dafec4",
    },
    ("termination", "wrr"): {
        "requests.csv": "42ec0bfb516ff9dd8c7d3519d434e00cf8c430982a3cc983d71b9ad08f58dc1d",
        "epochs.csv": "0d6973e982c3f8bb98988c24a83d2ca7e5da40101c548eb0ed42f35212468291",
        "summary.txt": "66c4094fd730936bc6a36613f0e5fb7e7fd9504ffa8fa0071603d0182be94224",
    },
    ("termination", "worst_case"): {
        "requests.csv": "a271222022e6698c70c7ed8583558671ee012159bb36aec57fe73ee8540332c5",
        "epochs.csv": "0d6973e982c3f8bb98988c24a83d2ca7e5da40101c548eb0ed42f35212468291",
        "summary.txt": "c05195ca237c1887e86832acd733040e23b269deb780049b2b78ae82f08a94b5",
    },
}

GOLDEN_TRACE = {
    "wrr": {
        "requests.csv": "c0454c00de1ac9a5bfca0dbc26ac4b88dd1a2a72c7eacf22e428afb625878547",
        "epochs.csv": "19c580620764339832afd5bafebaee36c7b9ae06a98359b54b63722e7c8340d8",
        "summary.txt": "75ba6d4a6070962c35e2c789dde31bcb661cbdbbffafc86d07290bc81e39c0ba",
    },
    "worst_case": {
        "requests.csv": "819400047b05d0410f7cc0b0ef1b5482b091f008ee1d200880a46650b81c2ef8",
        "epochs.csv": "19c580620764339832afd5bafebaee36c7b9ae06a98359b54b63722e7c8340d8",
        "summary.txt": "75ba6d4a6070962c35e2c789dde31bcb661cbdbbffafc86d07290bc81e39c0ba",
    },
}

HEADER = "pool                    model P(wait<=t)      oracle     +-3se  verdict\n"

GOLDEN_VALIDATE = {
    "homog_c55": HEADER + "homog c=55                       0.96234     0.95454   0.03066  PASS\n",
    "hetero_deflated30":
        HEADER + "hetero c=40 (+10 std)            0.95433     0.95846   0.03470  PASS\n",
    "o3_low_load": HEADER + "homog c=1                        0.84451     0.84114   0.00733  PASS\n",
}

BLOCK = 4096


def _validate_cases():
    path = REPO_ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.VALIDATE_CASES


def trace_replay_scenario(dispatch):
    """The trace_headroom benchmark scenario cut to its first 20 minutes.

    `mobilenet` is left out: its trace holds 3,770 arrivals in the whole hour,
    fewer than one block. `squeezenet` gets an empirical service distribution,
    so index draws cross blocks too.
    """
    path = REPO_ROOT / "perfbench" / "scenarios" / "trace_headroom.yaml"
    doc = yaml.safe_load(path.read_text())
    doc.update(horizon_seconds=1200.0, dispatch=dispatch)
    doc["functions"] = [fn for fn in doc["functions"] if fn["id"] != "mobilenet"]
    for fn in doc["functions"]:
        if fn["id"] == "squeezenet":
            fn["service"] = {"distribution": "empirical", "rate": 10.0,
                             "samples": [0.02, 0.05, 0.08, 0.1, 0.15, 0.3]}
    return scenario.from_dict(doc, base_dir=path.parent)


def _digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names}


@pytest.mark.parametrize("dispatch", sorted(GOLDEN))
def test_outputs_match_pinned_digests(dispatch, tmp_path):
    metrics = cli.run_scenario_to_dir(churn_scenario(dispatch), tmp_path)
    # the scenario must keep exercising every container transition
    assert metrics.cold_starts > 0 and metrics.reruns > 0
    assert sum(e.deflates for e in metrics.epochs) > 0
    assert sum(e.terminates for e in metrics.epochs) > 0
    assert _digests(tmp_path, GOLDEN[dispatch]) == GOLDEN[dispatch]


@pytest.mark.parametrize("variant, dispatch", sorted(GOLDEN_CONTROLLERS))
def test_controller_variants_match_pinned_digests(variant, dispatch, tmp_path, monkeypatch):
    hetero_calls = []
    real = queuing.find_c_heterogeneous

    def counted(*args, **kwargs):
        hetero_calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(queuing, "find_c_heterogeneous", counted)
    metrics = cli.run_scenario_to_dir(churn_scenario(dispatch, **CONTROLLERS[variant]),
                                      tmp_path)
    assert metrics.reruns > 0 and sum(e.terminates for e in metrics.epochs) > 0
    if variant == "inflation_off":
        assert hetero_calls and sum(e.deflates for e in metrics.epochs) > 0
    else:
        assert sum(e.deflates for e in metrics.epochs) == 0
    want = GOLDEN_CONTROLLERS[variant, dispatch]
    assert _digests(tmp_path, want) == want


@pytest.mark.parametrize("dispatch", sorted(GOLDEN_TRACE))
def test_trace_replay_across_draw_blocks_matches_pinned_digests(dispatch, tmp_path):
    metrics = cli.run_scenario_to_dir(trace_replay_scenario(dispatch), tmp_path)
    draws = {}
    for r in metrics.requests:
        if r.status == "completed":
            draws[r.function_id] = draws.get(r.function_id, 0) + 1
    assert len(draws) == 5 and min(draws.values()) > BLOCK
    assert _digests(tmp_path, GOLDEN_TRACE[dispatch]) == GOLDEN_TRACE[dispatch]


# the heterogeneous case again with its `--rates` list reversed: the pool's
# order is set in `queuing` and the oracle, so its text is unchanged
@pytest.mark.parametrize("case, reverse_rates", [
    *(pytest.param(case, False, id=case) for case in sorted(GOLDEN_VALIDATE)),
    pytest.param("hetero_deflated30", True, id="hetero_deflated30_reversed")])
def test_validate_stdout_matches_pinned_text(case, reverse_rates, capsys):
    args = list(_validate_cases()[case])
    if reverse_rates:
        at = args.index("--rates") + 1
        args[at] = ",".join(reversed(args[at].split(",")))
    argv = ["validate", *args, "--replications", "3", "--requests", "20000", "--seed", "0"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == GOLDEN_VALIDATE[case]


def _csv_writer_requests(path, metrics):
    """`requests.csv` as `csv.writer` writes it, one call per row."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["function_id", "arrival_s", "dispatch_s", "completion_s", "wait_s",
                    "service_s", "container_id", "status", "reruns"])
        for r in metrics.requests:
            dispatch = "" if math.isnan(r.dispatch) else f"{r.dispatch:.6f}"
            completion = "" if math.isnan(r.completion) else f"{r.completion:.6f}"
            wait = "" if math.isnan(r.dispatch) else f"{r.dispatch - r.arrival:.6f}"
            service = ("" if math.isnan(r.completion) or math.isnan(r.dispatch)
                       else f"{r.completion - r.dispatch:.6f}")
            w.writerow([r.function_id, f"{r.arrival:.6f}", dispatch, completion, wait, service,
                        r.container_id if r.container_id >= 0 else "", r.status, r.reruns])


def _appended(log, records):
    """`log` followed by `records`, as one column store."""
    ids = list(log.function_ids)
    for r in records:
        if r.function_id not in ids:
            ids.append(r.function_id)
    rows = {"function": [ids.index(r.function_id) for r in records],
            "status": [STATUSES.index(r.status) for r in records]}
    for name in ("arrival", "dispatch", "completion", "container_id", "reruns"):
        rows[name] = [getattr(r, name) for r in records]
    return RequestLog(ids, *(np.concatenate([getattr(log, name),
                                             np.array(rows[name], getattr(log, name).dtype)])
                             for name in RequestLog.FIELDS))


def test_requests_csv_is_what_csv_writer_writes(tmp_path):
    metrics = cli.run_scenario_to_dir(churn_scenario(), tmp_path / "run")
    log = metrics.requests
    log.function_ids = [f'{fid},"q"' for fid in log.function_ids]
    nan = float("nan")
    metrics.requests = _appended(log, [
        Request('a,"b"', 1 / 3, 0, 0.5000005, 2.0000015, 12, "completed"),
        Request("line\nbreak", 2.5, 2, nan, nan, -1, "dropped"),
        Request("plain", 3599.9999996, 1, 3599.9999999, nan, 7, "inflight"),
        Request('"', 4.0),
    ])
    statuses = {(r.status, r.reruns > 0, math.isnan(r.dispatch)) for r in metrics.requests}
    assert {("completed", True, False), ("inflight", False, False),
            ("inflight", False, True)} <= statuses
    cli._write_requests_csv(tmp_path / "fast.csv", metrics)
    _csv_writer_requests(tmp_path / "reference.csv", metrics)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
