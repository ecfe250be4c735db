"""The benchmark's workloads: which scenarios or validate cases one run executes.

Why each workload exists is written up in README.md next to this file.
"""

from __future__ import annotations

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCENARIOS = BENCH_DIR / "scenarios"

# tenant_churn crashes at a seed-dependent simulated time, so one scenario per
# run would make the run's figures depend mostly on where the crash falls.
# Each run therefore simulates a batch of consecutive scenario seeds.
CHURN_BATCH = 4

SIM_WORKLOADS = {
    "trace_headroom": SCENARIOS / "trace_headroom.yaml",
    "trace_overload": SCENARIOS / "trace_overload.yaml",
    "tenant_churn": SCENARIOS / "tenant_churn.yaml",
}

VALIDATE_REPLICATIONS = 3
VALIDATE_REQUESTS = 120_000

_DEFLATED_30 = ",".join(["6"] * 15 + ["9"] * 15)  # 30 containers at 50% and 70% CPU

# name -> `edgescale validate` arguments (without --seed, --replications, --requests)
VALIDATE_CASES = {
    "homog_c55": ["--arrival-rate", "45", "--service-rate", "1",
                  "--deadline", "0.1", "--percentile", "0.95"],
    "hetero_deflated30": ["--arrival-rate", "300", "--service-rate", "10",
                          "--rates", _DEFLATED_30,
                          "--deadline", "0.1", "--percentile", "0.95"],
    "o3_low_load": ["--arrival-rate", "3.1", "--service-rate", "10",
                    "--deadline", "0.1", "--percentile", "0.9"],
}

WORKLOADS = (*SIM_WORKLOADS, "oracle_validate")


def instance_seeds(workload: str, seed: int) -> list:
    """Scenario seeds one run of `workload` simulates for benchmark seed `seed`."""
    if workload == "tenant_churn":
        return [seed * CHURN_BATCH + i for i in range(CHURN_BATCH)]
    return [seed]


def validate_argv(case: str, seed: int) -> list:
    """Full `edgescale validate` argument list for one case at benchmark seed `seed`."""
    return ["validate", *VALIDATE_CASES[case],
            "--replications", str(VALIDATE_REPLICATIONS),
            "--requests", str(VALIDATE_REQUESTS),
            "--seed", str(seed * VALIDATE_REPLICATIONS)]
