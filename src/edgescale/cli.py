"""Command-line entry points: scenario runs, trace replays, sweeps, model validation.

Subcommands:
  run       simulate a scenario file, write requests.csv/epochs.csv/summary.txt
  validate  compare model predictions against the Monte-Carlo oracle
  replay    shortcut: build a scenario from a trace CSV and run it
  sweep     run a scenario across a grid of overrides

`validate` loads only `queuing` and `oracle`. The commands that simulate
import `scenario` and `simulator` (and with them PyYAML and the rest of the
package) inside the functions that use them.

Each `validate` and `replay` value is checked once, by its flag's type
(`_rate_list`, `_positive_float`, ...), where argparse reads it: a bad one is
a usage error that names the flag. `validate` adds only its limit on
requests x replications, and the model code it calls repeats none of these
checks. `replay` adds its node limit and hands a scenario document to
`scenario`, which reads it like a file.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import oracle, queuing
from .errors import ConfigError, EdgeScaleError, InvalidParameter
from .queuing import WaitTarget


def _csv_field(text: str) -> str:
    """`text` as `csv.writer` writes it inside a row, quoted where it must be."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-len(",\r\n")]


def _write_requests_csv(path, metrics):
    """Write one row per request, byte-identical to `csv.writer`'s output.

    Rows are formatted directly from the request log's columns, converted to
    Python values and written a block at a time: this file holds every
    request, and `csv.writer` costs a call per row. A missing time (NaN)
    leaves its field and those derived from it empty, and container id -1 an
    empty field.
    """
    from .simulator import STATUSES

    log = metrics.requests
    fields = [_csv_field(fid) for fid in log.function_ids]
    with open(path, "w", newline="") as fh:
        fh.write("function_id,arrival_s,dispatch_s,completion_s,wait_s,service_s,"
                 "container_id,status,reruns\r\n")
        for block in log.blocks():
            rows = []
            for f, a, d, c, cid, status, reruns in block:
                if d != d:
                    times = f"{a:.6f},,{c:.6f},," if c == c else f"{a:.6f},,,,"
                elif c != c:
                    times = f"{a:.6f},{d:.6f},,{d - a:.6f},"
                else:
                    times = f"{a:.6f},{d:.6f},{c:.6f},{d - a:.6f},{c - d:.6f}"
                if cid < 0:
                    cid = ""
                rows.append(f"{fields[f]},{times},{cid},{STATUSES[status]},{reruns}\r\n")
            fh.write("".join(rows))


def _write_epochs_csv(path, metrics):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["epoch", "time_s", "function_id", "rate_estimate", "c_active", "c_lazy",
             "c_new", "demand_vcpu", "target_vcpu", "guar_vcpu", "alloc_vcpu",
             "overloaded", "infeasible", "creates", "terminates", "marks", "unmarks",
             "deflates", "inflates", "create_failures"]
        )
        for e in metrics.epochs:
            w.writerow(
                [e.epoch, f"{e.time:.3f}", e.function_id, f"{e.rate_estimate:.4f}",
                 e.c_active, e.c_lazy, e.c_new, f"{e.demand_vcpu:.4f}",
                 f"{e.target_vcpu:.4f}", f"{e.guar_vcpu:.4f}", f"{e.alloc_vcpu:.4f}",
                 int(e.overloaded), int(e.infeasible), e.creates, e.terminates,
                 e.marks, e.unmarks, e.deflates, e.inflates, e.create_failures]
            )


def _write_summary(path, scn, metrics):
    """Write run totals and per-function request counts, waits and responses.

    Each function's rows are picked from the request log's columns by a
    mask, in log order; waits and responses are taken over its completed
    requests.
    """
    from .simulator import COMPLETED, DROPPED

    lines = []
    lines.append(f"horizon_s={metrics.horizon:.1f} capacity_vcpu={metrics.capacity_vcpu:.2f}")
    lines.append(f"utilization_busy={metrics.utilization:.4f}")
    lines.append(f"utilization_allocated={metrics.allocated_utilization:.4f}")
    lines.append(
        f"cold_starts={metrics.cold_starts} reruns={metrics.reruns} "
        f"create_failures={metrics.create_failures}"
    )
    lines.append("")
    header = (
        f"{'function':<14}{'requests':>9}{'completed':>10}{'dropped':>8}"
        f"{'p50_wait':>10}{'p95_wait':>10}{'p99_wait':>10}"
        f"{'p50_resp':>10}{'p95_resp':>10}{'p99_resp':>10}{'slo_viol':>9}"
    )
    lines.append(header)
    log = metrics.requests
    code = {fid: i for i, fid in enumerate(log.function_ids)}
    completed = log.status == COMPLETED
    dropped = log.status == DROPPED
    for fid in sorted(scn.functions):
        mine = log.function == code[fid]
        done = mine & completed
        n_done = np.count_nonzero(done)
        row = (f"{fid:<14}{np.count_nonzero(mine):>9}{n_done:>10}"
               f"{np.count_nonzero(mine & dropped):>8}")
        if n_done:
            spec = scn.functions[fid]
            arrival = log.arrival[done]
            waits = log.dispatch[done] - arrival
            resps = log.completion[done] - arrival
            basis = waits if spec.slo.applies_to == "waiting" else resps
            viol = float(np.mean(basis > spec.slo.deadline))
            row += (
                f"{np.percentile(waits, 50):>10.4f}{np.percentile(waits, 95):>10.4f}"
                f"{np.percentile(waits, 99):>10.4f}"
                f"{np.percentile(resps, 50):>10.4f}{np.percentile(resps, 95):>10.4f}"
                f"{np.percentile(resps, 99):>10.4f}{viol:>9.4f}"
            )
        else:
            row += " " * 60
        lines.append(row)
    Path(path).write_text("\n".join(lines) + "\n")


def run_scenario_to_dir(scn, out_dir):
    """Simulate `scn` and write its three output files; returns the run's `SimMetrics`."""
    from . import simulator

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics = simulator.run(scn)
    _write_requests_csv(out / "requests.csv", metrics)
    _write_epochs_csv(out / "epochs.csv", metrics)
    _write_summary(out / "summary.txt", scn, metrics)
    return metrics


def cmd_run(args) -> int:
    from . import scenario as scenario_mod

    scn = scenario_mod.load(args.scenario, overrides=args.override)
    if args.seed is not None:
        scn.seed = args.seed
    run_scenario_to_dir(scn, args.out)
    print(f"wrote {args.out}/requests.csv, epochs.csv, summary.txt")
    return 0


def _rate_list(text):
    try:
        rates = [float(x) for x in text.split(",")] if text else []
    except ValueError:
        rates = [math.nan]
    if not all(0 < r < math.inf for r in rates):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite numbers > 0, got {text!r}")
    return rates


def _finite_float(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_float(text):
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a number > 0, got {text!r}")
    return value


def _open_fraction(text):
    value = _finite_float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"expected a number in (0, 1), got {text!r}")
    return value


def _nonnegative_int(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _positive_int(text):
    value = _nonnegative_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def cmd_validate(args) -> int:
    if args.requests * args.replications > oracle.MAX_REQUESTS:
        raise InvalidParameter(
            f"--requests: {args.requests:,} requests x {args.replications:,} replications, "
            f"over the {oracle.MAX_REQUESTS:,}-request limit")
    target = WaitTarget(t=args.deadline, percentile=args.percentile)
    if args.rates:
        k = queuing.find_c_heterogeneous(args.arrival_rate, args.rates, args.service_rate,
                                         target)
        pool = args.rates + [args.service_rate] * k
        p_model = queuing.wait_cdf_heterogeneous(args.arrival_rate, pool, args.deadline)
        policy = "slowest-idle"
        label = f"hetero c={len(pool)} (+{k} std)"
    else:
        c = queuing.find_c_homogeneous(args.arrival_rate, args.service_rate, target)
        pool = [args.service_rate] * c
        p_model = queuing.wait_cdf_homogeneous(args.arrival_rate, args.service_rate, c,
                                               args.deadline)
        policy = "fastest-idle"
        label = f"homog c={c}"

    estimates = []
    for rep in range(args.replications):
        try:
            res = oracle.mc_wait(
                args.arrival_rate, pool, args.deadline,
                num_requests=args.requests, seed=args.seed + rep, policy=policy,
            )
        except InvalidParameter as exc:
            # the request count is all `mc_wait` checks
            raise InvalidParameter(f"--requests: {exc}") from None
        estimates.append(res)
    p_mc = math.fsum(r.p_wait_le_t for r in estimates) / len(estimates)
    se = max(r.stderr for r in estimates) / math.sqrt(len(estimates))
    if args.rates:
        ok = p_mc >= p_model - 3 * se  # worst-case bound: measured must not fall below
    else:
        ok = abs(p_mc - p_model) <= 3 * se
    verdict = "PASS" if ok else "FAIL"
    print(f"{'pool':<22}{'model P(wait<=t)':>18}{'oracle':>12}{'+-3se':>10}  verdict")
    print(f"{label:<22}{p_model:>18.5f}{p_mc:>12.5f}{3 * se:>10.5f}  {verdict}")
    return 0 if ok else 1


def cmd_replay(args) -> int:
    from . import scenario as scenario_mod

    if args.nodes > scenario_mod.MAX_NODES:
        print(f"error: --nodes: {args.nodes:,} nodes, over the {scenario_mod.MAX_NODES:,} limit",
              file=sys.stderr)
        return 2
    traces = scenario_mod.read_file(scenario_mod.load_trace, args.trace)
    if not traces:
        raise ConfigError(f"{args.trace}: trace file has no rows")
    horizon = args.horizon
    if horizon is None:
        horizon = max(len(counts) for counts in traces.values()) * 60.0
    doc = {
        "horizon_seconds": horizon,
        "cluster": {"nodes": [{"vcpu": args.node_vcpu, "memory_mb": args.node_memory_mb}
                              for _ in range(args.nodes)]},
        "functions": [
            {
                "id": fid,
                "size": {"vcpu": args.vcpu, "memory_mb": args.memory_mb},
                "slo": {"deadline": args.deadline, "percentile": args.percentile},
                "service": {"rate": args.service_rate},
                "workload": {"mode": "trace", "file": str(Path(args.trace).name),
                             "function": fid},
            }
            for fid in traces
        ],
    }
    # left out, --seed and --reclamation take scenario.FIELDS's defaults
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.reclamation is not None:
        doc["controller"] = {"reclamation": args.reclamation}
    scn = scenario_mod.from_dict(doc, base_dir=Path(args.trace).parent)
    run_scenario_to_dir(scn, args.out)
    print(f"replayed {len(traces)} functions for {horizon:.0f}s -> {args.out}")
    return 0


def cmd_sweep(args) -> int:
    from . import scenario as scenario_mod

    grids = []
    for spec in args.set:
        if "=" not in spec:
            print(f"error: --set must look like key=v1,v2 (got {spec!r})", file=sys.stderr)
            return 2
        key, values = spec.split("=", 1)
        grid = [(f"{key.split('.')[-1]}-{v}", f"{key}={v}") for v in values.split(",")]
        # a run directory's name joins these parts; each holds a "-", so a name
        # with no separator is one path component under --out, never "." or ".."
        for part, item in grid:
            if any(sep in part for sep in (os.sep, os.altsep) if sep):
                print(f"error: --set {item}: the run directory name {part!r} holds a path "
                      "separator", file=sys.stderr)
                return 2
        grids.append(grid)
    combos = [[]]
    for grid in grids:
        combos = [c + [item] for c in combos for item in grid]
    for combo in combos:
        name = "_".join(part for part, _ in combo) or "base"
        overrides = list(args.override) + [override for _, override in combo]
        scn = scenario_mod.load(args.scenario, overrides=overrides)
        out = Path(args.out) / name
        run_scenario_to_dir(scn, out)
        print(f"[{name}] done -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="edgescale")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a scenario file")
    run_p.add_argument("scenario")
    run_p.add_argument("--out", required=True)
    run_p.add_argument("--seed", type=_nonnegative_int, default=None)
    run_p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE")
    run_p.set_defaults(func=cmd_run)

    val_p = sub.add_parser("validate", help="model vs Monte-Carlo oracle")
    val_p.add_argument("--arrival-rate", type=_positive_float, required=True)
    val_p.add_argument("--service-rate", type=_positive_float, required=True)
    val_p.add_argument("--rates", type=_rate_list, default="",
                       help="existing heterogeneous pool rates, comma separated")
    val_p.add_argument("--deadline", type=_positive_float, default=0.1)
    val_p.add_argument("--percentile", type=_open_fraction, default=0.95)
    val_p.add_argument("--replications", type=_positive_int, default=3)
    val_p.add_argument("--requests", type=_positive_int, default=120_000,
                       help="requests per replication; requests x replications "
                            f"may be at most {oracle.MAX_REQUESTS:,}")
    val_p.add_argument("--seed", type=_nonnegative_int, default=0)
    val_p.set_defaults(func=cmd_validate)

    rep_p = sub.add_parser("replay", help="run a trace CSV with default settings")
    rep_p.add_argument("trace")
    rep_p.add_argument("--out", required=True)
    rep_p.add_argument("--horizon", type=_positive_float, default=None)
    rep_p.add_argument("--seed", type=_nonnegative_int, default=None)
    rep_p.add_argument("--nodes", type=_positive_int, default=3)
    rep_p.add_argument("--node-vcpu", type=_positive_float, default=4.0)
    rep_p.add_argument("--node-memory-mb", type=_positive_float, default=16384.0)
    rep_p.add_argument("--vcpu", type=_positive_float, default=1.0)
    rep_p.add_argument("--memory-mb", type=_positive_float, default=512.0)
    rep_p.add_argument("--service-rate", type=_positive_float, default=10.0)
    rep_p.add_argument("--deadline", type=_positive_float, default=0.1)
    rep_p.add_argument("--percentile", type=_open_fraction, default=0.95)
    rep_p.add_argument("--reclamation", default=None, choices=("deflation", "termination"))
    rep_p.set_defaults(func=cmd_replay)

    sweep_p = sub.add_parser("sweep", help="run a scenario across a grid of overrides")
    sweep_p.add_argument("scenario")
    sweep_p.add_argument("--out", required=True)
    sweep_p.add_argument("--set", action="append", default=[],
                         metavar="KEY=V1,V2", help="grid dimension (repeatable)")
    sweep_p.add_argument("--override", action="append", default=[],
                         metavar="KEY=VALUE")
    sweep_p.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EdgeScaleError, OSError) as exc:
        # input files fail as ConfigError (`scenario.read_file`), so an
        # OSError is an --out that cannot hold the output files
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
