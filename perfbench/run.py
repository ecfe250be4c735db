"""Benchmark driver for edgescale.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs measured repeats of one workload, each in a fresh interpreter
(`measure.py`), one at a time, for about S seconds. With --trace 0 it
reports the end-to-end metrics over the repeats; with --trace 1 it
alternates untraced and traced repeats and reports the per-layer metrics and
the tracing overhead. It checks every repeat's outputs, prints a readable
report, writes `perfbench/_out/BENCH_<workload>_seed<N>_trace<T>.json`, and
ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

`--record` instead runs one untraced repeat and stores its output digests in
`reference.json`, the reference later runs are compared against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = workloads.BENCH_DIR
OUT_DIR = BENCH_DIR / "_out"
REFERENCE = BENCH_DIR / "reference.json"
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0  # every run must end within 180 s

# end-to-end metrics that are printed and stored but not gated (see README.md)
REPORT_ONLY = (("wall_s", "s"), ("failed_frac", "frac"), ("slo_miss_frac", "frac"),
               ("wait_p99_s", "s"), ("alloc_vcpu_frac", "frac"), ("model_err", "prob"),
               ("slo_shortfall", "prob"))


def metric_units(section: str) -> dict:
    """name -> unit for one metric list of BENCHMARK.json, in its order."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=BENCH_DIR.parent,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    h = hashlib.sha256()
    for path in sorted((workloads.SRC / "edgescale").rglob("*.py")):
        h.update(path.relative_to(workloads.SRC).as_posix().encode())
        h.update(path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_child(workload: str, seed: int, traced: bool, index: int) -> dict:
    out = OUT_DIR / f"{workload}-seed{seed}-rep{index}"
    cmd = [sys.executable, str(BENCH_DIR / "measure.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--out", str(out)]
    spawned = time.monotonic()
    cmd += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    elapsed = time.monotonic() - spawned
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: repeat {index} of {workload} exited with {proc.returncode}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["elapsed_s"] = elapsed
    rep["traced"] = traced
    rep["sim_req_per_s"] = rep["processed"] / rep["sim_s"]
    return rep


def signature(rep: dict) -> str:
    """Everything a repeat simulated, which must not vary between repeats of one seed."""
    keep = {k: rep[k] for k in ("processed", "operations", "failed_operations", "stats",
                                "counters", "instances", "cases") if k in rep}
    return json.dumps(keep, sort_keys=True)


def compare_reference(workload: str, rep: dict) -> list:
    """(instance seed, verdict) for every simulated instance against reference.json."""
    if "instances" not in rep:
        return []
    ref = json.loads(REFERENCE.read_text()).get(workload, {}) if REFERENCE.exists() else {}
    rows = []
    for inst in rep["instances"]:
        want = ref.get(str(inst["scenario_seed"]))
        got = reference_entry(inst)
        if want is None:
            verdict = "no reference"
        elif want == got:
            verdict = "match"
        else:
            diff = [k for k in sorted(set(want) | set(got)) if want.get(k) != got.get(k)]
            verdict = "MISMATCH in " + ", ".join(diff)
        rows.append((inst["scenario_seed"], verdict))
    return rows


def reference_entry(inst: dict) -> dict:
    keys = ("requests_sha256", "epochs_sha256", "raised", "message", "reached_s", "recorded")
    return {k: inst[k] for k in keys if k in inst}


def record(workload: str, seed: int) -> int:
    rep = run_child(workload, seed, traced=False, index=0)
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    entries = ref.setdefault(workload, {})
    for inst in rep.get("instances", []):
        entries[str(inst["scenario_seed"])] = reference_entry(inst)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"recorded {workload} seed {seed}: {len(rep.get('instances', []))} instance(s)")
    return 0


def operation_counts(reps: list) -> tuple:
    """(attempted, failed) over the distinct operations of the seed.

    Every repeat of a seed runs the same scenarios or cases, and `signature`
    makes them agree, so each operation counts once. Summing over repeats
    would make both counts follow how many repeats fit in the run's time.
    """
    return reps[0]["operations"], reps[0]["failed_operations"]


def layer_values(rep: dict) -> dict:
    """A traced repeat's per-layer figures, with the model counters from its outputs."""
    out = dict(rep["layers"])
    counters = rep.get("counters", {})
    out.update({f"sim.{k}": v for k, v in counters.items()})
    attempts = counters.get("creates", 0) + counters.get("create_failures", 0)
    out["sim.create_fail_frac"] = counters.get("create_failures", 0) / attempts if attempts else 0
    out["cli.output.bytes"] = rep.get("output_bytes", 0)
    return out


def end_to_end(reps: list) -> dict:
    """Timings over repeats plus the (repeat-invariant) simulated statistics.

    `sim_req_per_s` is total requests over total event-loop seconds: the host
    alternates between fast and slow periods, and the ratio of totals moves
    smoothly with their mix where a median of a few repeats jumps between
    them. The other timings are medians.
    """
    out = {name: statistics.median(r[name] for r in reps)
           for name in ("setup_s", "peak_rss_mb", "wall_s")}
    out["sim_req_per_s"] = sum(r["processed"] for r in reps) / sum(r["sim_s"] for r in reps)
    out.update({k: v for k, v in reps[0]["stats"].items() if k != "generated"})
    return out


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="edgescale benchmark driver")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store this seed's output digests in reference.json and exit")
    args = p.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the repeat
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [path for path in (workloads.SRC / "edgescale", BENCH_DIR.parent / "traces")
               if not path.is_dir()]
    if missing:
        print("error: not an edgescale checkout, missing " + ", ".join(map(str, missing)),
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.record:
        return record(args.workload, args.seed)

    env = environment()
    start = time.monotonic()
    reps: list = []
    modes = (False, True) if args.trace else (False,)
    min_rounds = 1 if args.trace else MIN_REPEATS
    while True:
        for traced in modes:
            reps.append(run_child(args.workload, args.seed, traced, len(reps)))
        elapsed = time.monotonic() - start
        rounds = len(reps) // len(modes)
        mean_round = elapsed / rounds
        # stop where the run ends closest to S seconds
        if rounds >= min_rounds and elapsed + mean_round / 2 >= args.seconds:
            break
        if elapsed + 2 * mean_round > RUN_LIMIT_S:
            break

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    signatures = {signature(r) for r in reps}
    errors = sorted({e for r in reps for e in r["errors"]})
    if len(signatures) > 1:
        errors.append("repeats of one seed simulated different results")
    correct = not errors
    attempted, failed = operation_counts(reps)

    e2e = end_to_end(plain)
    print(f"workload={args.workload} seed={args.seed} repeats={len(plain)} "
          f"traced_repeats={len(traced)} scenario_seeds="
          f"{workloads.instance_seeds(args.workload, args.seed)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items())
          + f" numpy={reps[0]['numpy']}")
    for r in reps:
        print(f"  repeat traced={int(r['traced'])} setup_s={r['setup_s']:.4f} "
              f"wall_s={r['wall_s']:.4f} sim_s={r['sim_s']:.4f} "
              f"sim_req_per_s={r['sim_req_per_s']:.1f} peak_rss_mb={r['peak_rss_mb']:.1f}")
    gated = metric_units("end_to_end")
    print("end-to-end (untraced repeats):")
    for name, unit in [*gated.items(), *REPORT_ONLY]:
        note = "" if name in gated else " (report only)"
        print(f"  {name:<16}{fmt(e2e.get(name)):>14} {unit:<5}{note}")
    for inst in reps[0].get("instances", []):
        if "raised" in inst:
            print(f"  scenario seed {inst['scenario_seed']} raised {inst['raised']}"
                  f"({inst['message']}) at simulated t={inst['reached_s']:.1f}s after "
                  f"{inst['recorded']} of {inst['generated']} requests")
    for case in reps[0].get("cases", []):
        if "raised" in case:
            print(f"  case {case['case']} raised: {case['raised']}")
        else:
            print(f"  case {case['case']:<18} {case['label']:<24} model={case['p_model']:.5f} "
                  f"oracle={case['p_oracle']:.5f} +-3se={case['three_se']:.5f} "
                  f"target={case['target_p']} {case['verdict']}")
    for seed, verdict in compare_reference(args.workload, reps[0]):
        print(f"  outputs of scenario seed {seed}: {verdict}")
    if "counters" in reps[0]:
        print("  counters " + " ".join(f"{k}={v}" for k, v in reps[0]["counters"].items()))
    for e in errors:
        print(f"  CHECK FAILED: {e}")

    if args.trace:
        traced_values = [layer_values(r) for r in traced]
        units = metric_units("per_layer")
        layers = {}
        for name in units:
            if name == "trace.overhead_s":
                layers[name] = (statistics.median(r["wall_s"] for r in traced)
                                - statistics.median(r["wall_s"] for r in plain))
            else:
                layers[name] = statistics.median(v.get(name, 0) for v in traced_values)
        print("per-layer (median of traced repeats):")
        for name, value in layers.items():
            print(f"  {name:<52}{fmt(value):>14} {units[name]}")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in gated.items()}

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    bench = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "seconds": args.seconds, "repeats": len(plain), "traced_repeats": len(traced),
             "env": dict(env, numpy=reps[0]["numpy"]), "end_to_end": e2e, "result": result,
             "reference": compare_reference(args.workload, reps[0]), "errors": errors,
             "repeat_records": reps}
    (OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(bench, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
