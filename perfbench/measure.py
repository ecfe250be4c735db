"""One measured repeat of a benchmark workload, in a fresh interpreter.

    python3 perfbench/measure.py --workload NAME --seed N --trace 0|1 --out DIR \
        --spawned T

`run.py` starts this once per repeat, so import time, set-up time and peak
memory belong to the repeat alone. T is the parent's `time.monotonic()`
reading just before it started this process; set-up time is measured from it.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import workloads
import simstats


@contextlib.contextmanager
def _prepared_run(simulator, sim, timing: dict):
    """Make `cli.run_scenario_to_dir` run `sim`, already built during set-up.

    The host seconds spent in `sim.run()` are added to `timing["sim_s"]`.
    """
    original = simulator.run

    def run_prepared(scenario, seed=None):
        t0 = time.perf_counter()
        try:
            return sim.run()
        finally:
            timing["sim_s"] += time.perf_counter() - t0

    simulator.run = run_prepared
    try:
        yield
    finally:
        simulator.run = original


def run_simulations(workload: str, seed: int, out_dir: Path, spawned: float) -> dict:
    """Set up, run and check every scenario instance of a simulator workload.

    Instances run one after another and each is released before the next is
    built, so a batch costs what its instances would cost run separately.
    Set-up time is the span from `spawned` (process start) until the first
    instance is ready, plus the set-up of every later instance.
    """
    from edgescale import cli, scenario, simulator

    setup = wall = 0.0
    timing = {"sim_s": 0.0}
    instances, summaries, raised = [], [], 0
    for s in workloads.instance_seeds(workload, seed):
        t0 = time.perf_counter()
        scn = scenario.load(workloads.SIM_WORKLOADS[workload], overrides=[f"seed={s}"])
        sim = simulator.Simulation(scn)
        t1 = time.perf_counter()
        setup += (time.monotonic() - spawned) if not instances else t1 - t0
        out = out_dir / f"seed{s}"
        exc = None
        try:
            with _prepared_run(simulator, sim, timing):
                cli.run_scenario_to_dir(scn, out)
        except Exception as err:  # the benchmark records the crash and goes on
            traceback.print_exc(file=sys.stderr)
            exc = err
        wall += time.perf_counter() - t1
        summary = simstats.instance_summary(sim, completed_run=exc is None)
        summaries.append(summary)
        instances.append(_instance_record(s, summary, out, exc))
        raised += exc is not None
        shutil.rmtree(out, ignore_errors=True)
        del scn, sim

    counters: dict = {}
    for summary in summaries:
        for key, value in summary["counters"].items():
            counters[key] = counters.get(key, 0) + value
    counters["pending_peak"] = max(x["pending_peak"] for x in summaries)
    return {
        "setup_s": setup,
        "wall_s": wall,
        "sim_s": timing["sim_s"],
        "processed": sum(x["recorded"] for x in summaries),
        "operations": len(instances),
        "failed_operations": raised,
        "instances": instances,
        "stats": simstats.pool(summaries),
        "counters": counters,
        "output_bytes": sum(i.get("output_bytes", 0) for i in instances),
        "errors": [f"seed {i['scenario_seed']}: {e}" for i in instances for e in i["errors"]],
    }


def _instance_record(scenario_seed: int, summary: dict, out: Path, exc) -> dict:
    inst = {"scenario_seed": scenario_seed, "recorded": summary["recorded"],
            "generated": summary["generated"], "reached_s": summary["reached_s"]}
    if exc is None:
        inst["requests_sha256"] = simstats.file_sha256(out / "requests.csv")
        inst["epochs_sha256"] = simstats.file_sha256(out / "epochs.csv")
        inst["output_bytes"] = sum(p.stat().st_size for p in out.iterdir())
    else:
        inst["raised"] = type(exc).__name__
        inst["message"] = str(exc)
    inst["errors"] = summary["errors"]
    return inst


_ROW = re.compile(r"^(?P<label>.+?)\s+(?P<model>\S+)\s+(?P<mc>\S+)\s+(?P<se3>\S+)\s+"
                  r"(?P<verdict>PASS|FAIL)\s*$")


def _arg(argv: list, flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def check_case(argv: list, row: dict) -> list:
    """Sanity of one parsed `validate` row: probabilities, and a stable pool."""
    errors = []
    for key in ("p_model", "p_oracle"):
        if not 0.0 <= row[key] <= 1.0:
            errors.append(f"{key}={row[key]} outside [0, 1]")
    lam = float(_arg(argv, "--arrival-rate"))
    mu = float(_arg(argv, "--service-rate"))
    m = re.search(r"c=(\d+)(?: \(\+(\d+) std\))?", row["label"])
    if m is None:
        errors.append(f"no pool size in {row['label']!r}")
        return errors
    rates = _arg(argv, "--rates", "")
    if rates:
        drain = sum(float(x) for x in rates.split(",")) + int(m.group(2)) * mu
    else:
        drain = int(m.group(1)) * mu
    if not drain > lam:
        errors.append(f"pool drains {drain} <= arrival rate {lam}")
    return errors


def run_validate(seed: int, spawned: float) -> dict:
    """Run the fixed set of `edgescale validate` cases through `cli.main`."""
    from edgescale import cli

    setup = time.monotonic() - spawned
    t0 = time.perf_counter()
    raw = []
    for name in workloads.VALIDATE_CASES:
        argv = workloads.validate_argv(name, seed)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                cli.main(argv)
            raised = None
        except Exception as exc:  # the benchmark records the failure and goes on
            raised = f"{type(exc).__name__}: {exc}"
        raw.append((name, argv, out.getvalue(), err.getvalue(), raised))
    wall = time.perf_counter() - t0

    cases, errors = [], []
    per_case = workloads.VALIDATE_REPLICATIONS * workloads.VALIDATE_REQUESTS
    for name, argv, out, err, raised in raw:
        lines = out.strip().splitlines()
        m = _ROW.match(lines[-1]) if lines and raised is None else None
        if m is None:
            cases.append({"case": name, "raised": raised or err.strip() or "no result row"})
            continue
        row = {"case": name, "label": m["label"], "p_model": float(m["model"]),
               "p_oracle": float(m["mc"]), "three_se": float(m["se3"]),
               "verdict": m["verdict"], "target_p": float(_arg(argv, "--percentile"))}
        errors += [f"{name}: {e}" for e in check_case(argv, row)]
        cases.append(row)
    ran = [c for c in cases if "raised" not in c]
    failed = sum(1 for c in cases if "raised" in c or c["verdict"] == "FAIL")
    stats = {"failed_frac": failed / len(cases)}
    if ran:
        stats["model_err"] = max(abs(c["p_model"] - c["p_oracle"]) for c in ran)
        stats["slo_shortfall"] = max(c["target_p"] - c["p_oracle"] for c in ran)
        stats["slo_miss_frac"] = sum(1.0 - c["p_oracle"] for c in ran) / len(ran)
    return {
        "setup_s": setup,
        "wall_s": wall,
        "sim_s": wall,
        "processed": per_case * len(ran),
        "operations": len(cases),
        "failed_operations": failed,
        "cases": cases,
        "stats": stats,
        "errors": errors,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--spawned", type=float, required=True)
    args = p.parse_args(argv)

    if not (workloads.SRC / "edgescale").is_dir():
        print(f"error: no edgescale sources under {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    import numpy

    tracer = None
    if args.trace:
        import layertrace
        tracer = layertrace.install(layertrace.Tracer())
    try:
        if args.workload == "oracle_validate":
            result = run_validate(args.seed, args.spawned)
        else:
            result = run_simulations(args.workload, args.seed, args.out, args.spawned)
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        result["layers"] = layertrace.layer_metrics(tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
