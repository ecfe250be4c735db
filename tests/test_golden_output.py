"""Golden output: a small run's output files are pinned byte for byte.

A speedup of the simulator or the writers must leave `requests.csv`,
`epochs.csv` and `summary.txt` byte-identical for the same scenario and seed.
`churn_scenario` cold-starts, deflates, inflates and terminates containers
and reruns requests within three simulated minutes. The digests were recorded
before the simulator's idle index and multiplier cache went in.
"""

import hashlib

import pytest

from edgescale import cli
from scenario_builders import churn_scenario

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


@pytest.mark.parametrize("dispatch", sorted(GOLDEN))
def test_outputs_match_pinned_digests(dispatch, tmp_path):
    metrics = cli.run_scenario_to_dir(churn_scenario(dispatch), tmp_path)
    # the scenario must keep exercising every container transition
    assert metrics.cold_starts > 0 and metrics.reruns > 0
    assert sum(e.deflates for e in metrics.epochs) > 0
    assert sum(e.terminates for e in metrics.epochs) > 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN[dispatch]}
    assert digests == GOLDEN[dispatch]
