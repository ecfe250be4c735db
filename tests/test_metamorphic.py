"""Whole-system metamorphic relations: known input changes give known output changes.

- Time scale. Dividing every time quantity by k and multiplying every rate
  by k, for k a power of two, divides every arrival, dispatch and completion
  time by k bit for bit, since each sum, product and quotient then scales
  exactly. Statuses, container ids, reruns and `utilization_allocated` stay
  equal, and each epoch record differs only in its time (divided by k) and
  its rate estimate (multiplied by k). A constant in absolute seconds
  anywhere in the estimator, the planner or the event loop breaks it.
- Weights. Multiplying every user and function weight by 4 leaves the
  output files byte-identical: fair share reads weights as proportions.
- Order. Reversing the functions, or the users, in the scenario file leaves
  the output files byte-identical.

Trace mode is not scaled: its per-minute counts fix a 60 s unit.
"""

import copy

import numpy as np
import pytest

from edgescale import cli, simulator
from scenario_builders import (CONTINUOUS_WORST_CASE_TERMINATION, DISCRETE_WRR_DEFLATION,
                               assert_time_scaled, build, time_scaled)

SCENARIOS = {"discrete_wrr_deflation": DISCRETE_WRR_DEFLATION,
             "continuous_worst_case_termination": CONTINUOUS_WORST_CASE_TERMINATION}
OUTPUTS = ("requests.csv", "epochs.csv", "summary.txt")


def write_outputs(doc, out_dir) -> dict:
    cli.run_scenario_to_dir(build(doc), out_dir)
    return {name: (out_dir / name).read_bytes() for name in OUTPUTS}


@pytest.fixture(scope="module")
def base_runs():
    return {name: simulator.run(build(doc)) for name, doc in SCENARIOS.items()}


def test_scenarios_exercise_the_controller(base_runs):
    # the relations below say little about a run in which nothing happens
    for m in base_runs.values():
        assert m.cold_starts > 0 and sum(e.creates for e in m.epochs) > 0
        assert any(e.rate_estimate > 0 for e in m.epochs)
        assert np.count_nonzero(m.requests.status == simulator.COMPLETED) > 1000
    wrr = base_runs["discrete_wrr_deflation"]
    assert sum(e.deflates for e in wrr.epochs) > 0 and sum(e.inflates for e in wrr.epochs) > 0
    assert any(e.overloaded for e in wrr.epochs)
    worst = base_runs["continuous_worst_case_termination"]
    assert sum(e.terminates for e in worst.epochs) > 0 and worst.reruns > 0
    assert np.count_nonzero(worst.requests.status == simulator.DROPPED) > 0


@pytest.mark.parametrize("k", [2.0, 0.5])
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_time_scale(base_runs, name, k):
    scaled = simulator.run(build(time_scaled(SCENARIOS[name], k)))
    assert_time_scaled(base_runs[name], scaled, k)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_weights_scale_out(tmp_path, name):
    doc = SCENARIOS[name]
    heavy = copy.deepcopy(doc)
    for entry in heavy["users"] + heavy["functions"]:
        entry["weight"] = entry.get("weight", 1.0) * 4
    assert write_outputs(heavy, tmp_path / "heavy") == write_outputs(doc, tmp_path / "base")


@pytest.mark.parametrize("section", ["functions", "users"])
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_file_order_does_not_matter(tmp_path, name, section):
    doc = SCENARIOS[name]
    reversed_doc = copy.deepcopy(doc)
    reversed_doc[section].reverse()
    assert (write_outputs(reversed_doc, tmp_path / "reversed")
            == write_outputs(doc, tmp_path / "base"))
