"""defreg benchmark: three closed-loop workloads against the public API.

    python3 perfbench/run.py --workload prune-2k --seed 1 --seconds 35 --trace 0

One client in one process issues the next operation only when the previous
one has returned. Each invocation runs one workload in its own process, so
peak memory belongs to that workload; `--workload all` runs every workload,
each in a subprocess of its own, and prints one table. BLAS keeps its
default thread count.

With `--trace 0` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json. With `--trace 1` the
run alternates untraced and traced cycles on the same inputs, and its
metrics are the per-layer ones, including the tracing overhead. The line
before it is a JSON report with the workload's full metric table (value,
unit and sample count), the machine record, the output digest and the
self-time breakdown. `--smoke` runs toy sizes that finish in seconds.

The process exits with 0 when it printed a result, with 2 when the defreg
sources are not found beside the benchmark.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("prune-2k", "solve-225", "train-small")
SETUP_REPEATS = 5
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# BENCHMARK.json's end-to-end metrics, and the full per-workload table.
E2E_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TABLE_UNITS = {
    "prune_s": "s", "register_s": "s", "train_step_s": "s", "train_step_p95_s": "s",
    "train_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "precision": "fraction",
    "recall": "fraction", "epe_m": "m", "failed_ops_ratio": "fraction",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes that finish in seconds")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def machine_record(np) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def median(values):
    return statistics.median(values) if values else None


def percentile95(values):
    """Linear-interpolated 95th percentile (numpy's default method)."""
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_samples(cycles) -> dict:
    """Seconds of every operation that did not fail, by kind, in run order."""
    samples = {}
    for cycle in cycles:
        for op in cycle.ops:
            if not op.failed:
                samples.setdefault(op.kind, []).append(op.seconds)
    return samples


def workload_table(workload, cycles, setup_s) -> dict:
    """The workload's end-to-end metrics, each {value, unit, samples}."""
    ops = [op for cycle in cycles for op in cycle.ops]
    done = op_samples(cycles)
    steps = [s for cycle in cycles for s in cycle.step_seconds]
    quality = {}
    for cycle in cycles:
        for name, values in cycle.quality.items():
            quality.setdefault(name, []).extend(values)
    failed = sum(op.failed for op in ops)
    rows = {
        "prune_s": (median(done.get("prune", [])), len(done.get("prune", []))),
        "register_s": (median(done.get("register", [])), len(done.get("register", []))),
        "train_step_s": (median(steps), len(steps)),
        "train_step_p95_s": (percentile95(steps), len(steps)),
        "train_s": (median(done.get("train", [])), len(done.get("train", []))),
        "setup_s": (setup_s, SETUP_REPEATS),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "failed_ops_ratio": (failed / len(ops), len(ops)),
    }
    for name in ("precision", "recall", "epe_m"):
        values = quality.get(name, [])
        rows[name] = (statistics.fmean(values) if values else None, len(values))
    table = {name: {"value": value, "unit": TABLE_UNITS[name], "samples": samples}
             for name, (value, samples) in rows.items() if samples and value is not None}
    if workload.main_metric in table:
        table["op_s"] = dict(table[workload.main_metric])
    return table


def per_layer(tracer, cycles, quality) -> dict:
    """Per-layer metrics per traced cycle, each {value, unit, kind}.

    Every operation of a traced cycle is a root span. Times ending in `_s`
    are inclusive span times unless named `_self_s`. `scnet.load_params_s`
    and `synth.generate_scene_s` add the time per set-up to the time per
    cycle, because set-up is where those run. Kinds: time, count, computed
    (derived from array shapes or sizes, and repeats exactly), quality,
    harness.
    """
    op_roots = [i for i, kind in tracer.root_kinds.items() if kind != "setup"]
    setup_roots = [i for i, kind in tracer.root_kinds.items() if kind == "setup"]
    n = sum(c.traced for c in cycles)
    cyc = tracer.summary(op_roots)
    setup = tracer.summary(setup_roots)

    def total(name):
        return cyc["total"].get(name, 0.0) / n

    def self_time(name):
        return cyc["self"].get(name, 0.0) / n

    def calls(name):
        return cyc["calls"].get(name, 0) / n

    def with_setup(name):
        return total(name) + setup["total"].get(name, 0.0) / max(len(setup_roots), 1)

    def counted(name):
        return sum(tracer.counts[r][name] for r in op_roots) / n

    def peak(name):
        return max((tracer.peaks[r][name] for r in op_roots), default=0.0)

    graphs = [g for r in op_roots for g in tracer.graphs[r]]
    members = [size for _, _, sizes in graphs for size in sizes]
    gflop, unit_s = counted("scnet.unit_gflop"), total("scnet.unit_forward")
    untraced_s = median([sum(op.seconds for op in c.ops) for c in cycles if not c.traced])
    overhead = median([sum(op.seconds for op in c.ops) for c in cycles if c.traced]) - untraced_s
    other = sum(t for name, t in cyc["self"].items() if name.startswith("bench.")) / n
    values = {
        "scnet.run_forward_s": (total("scnet.run_forward"), "s", "time"),
        "scnet.run_forward_self_s": (self_time("scnet.run_forward"), "s", "time"),
        "scnet.unit_forward_s": (unit_s, "s", "time"),
        "scnet.unit_forward_calls": (calls("scnet.unit_forward"), "count", "count"),
        "scnet.unit_rows": (counted("scnet.unit_rows"), "count", "count"),
        "scnet.unit_gflop": (gflop, "GFLOP", "computed"),
        "scnet.unit_gflops_rate": (gflop / unit_s if unit_s else 0.0, "GFLOP/s", "time"),
        "scnet.aggregate_s": (total("scnet.aggregate"), "s", "time"),
        "scnet.tape_mb": (peak("scnet.tape_mb"), "MB", "computed"),
        "scnet.backward_through_s": (total("scnet.backward_through"), "s", "time"),
        "scnet.unit_backward_s": (total("scnet.unit_backward"), "s", "time"),
        "scnet.load_params_s": (with_setup("scnet.load_params"), "s", "time"),
        "training.prepare_scene_s": (total("training.prepare_scene"), "s", "time"),
        "training.backward_s": (total("training.backward"), "s", "time"),
        "training.loss_self_s": (self_time("training.backward"), "s", "time"),
        "training.adam_s": (total("training.adam"), "s", "time"),
        "consistency.local_consistency_s": (total("consistency.local_consistency"), "s", "time"),
        "consistency.block_entries": (counted("consistency.block_entries"), "count", "count"),
        "consistency.read_corr_csv_s": (total("consistency.read_corr_csv"), "s", "time"),
        "consistency.write_corr_csv_s": (total("consistency.write_corr_csv"), "s", "time"),
        "defgraph.build_graph_prune_s": (total("defgraph.build_graph_prune"), "s", "time"),
        "defgraph.build_graph_solver_s": (total("defgraph.build_graph_solver"), "s", "time"),
        "defgraph.assign_points_s": (total("defgraph.assign_points"), "s", "time"),
        "defgraph.assign_points_calls": (calls("defgraph.assign_points"), "count", "count"),
        "defgraph.nodes": (statistics.fmean([g[0] for g in graphs]) if graphs else 0.0, "count", "count"),
        "defgraph.edges": (statistics.fmean([g[1] for g in graphs]) if graphs else 0.0, "count", "count"),
        "defgraph.members_mean": (statistics.fmean(members) if members else 0.0, "count", "count"),
        "defgraph.members_max": (max(members, default=0), "count", "count"),
        "nicp.solve_s": (total("nicp.solve"), "s", "time"),
        "nicp.solve_self_s": (self_time("nicp.solve"), "s", "time"),
        "nicp.residuals_s": (total("nicp.residuals"), "s", "time"),
        "nicp.residuals_calls": (calls("nicp.residuals"), "count", "count"),
        "nicp.jacobian_s": (total("nicp.jacobian"), "s", "time"),
        "nicp.jacobian_calls": (calls("nicp.jacobian"), "count", "count"),
        "nicp.jacobian_mb": (peak("nicp.jacobian_mb"), "MB", "computed"),
        "nicp.warp_s": (total("nicp.warp"), "s", "time"),
        "nicp.warp_calls": (calls("nicp.warp"), "count", "count"),
        "nicp.accepted_steps": (counted("nicp.accepted_steps"), "count", "count"),
        "nicp.write_warp_field_s": (total("nicp.write_warp_field"), "s", "time"),
        "pointcloud_io.read_ply_s": (total("pointcloud_io.read_ply"), "s", "time"),
        "evalmetrics.registration_errors_s": (total("evalmetrics.registration_errors"), "s", "time"),
        "evalmetrics.precision": (quality.get("precision", 0.0), "fraction", "quality"),
        "evalmetrics.recall": (quality.get("recall", 0.0), "fraction", "quality"),
        "evalmetrics.epe_m": (quality.get("epe_m", 0.0), "m", "quality"),
        "synth.generate_scene_s": (with_setup("synth.generate_scene"), "s", "time"),
        "bench.op_wall_s": (cyc["wall"] / n, "s", "harness"),
        "bench.other_s": (other, "s", "harness"),
        "bench.spans": (sum(cyc["calls"].values()) / n, "count", "harness"),
        "bench.trace_overhead_s": (overhead, "s", "harness"),
        "bench.trace_overhead_ratio": (overhead / untraced_s, "ratio", "harness"),
    }
    return {name: {"value": float(v), "unit": unit, "kind": kind}
            for name, (v, unit, kind) in values.items()}


def repeat_setup(workload, tracer) -> list:
    """Set the workload up SETUP_REPEATS times; returns each repeat's seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with tracer.installed():
            workload.setup(tracer)
        times.append(time.perf_counter() - start)
    return times


def run_cycles(workload, tracers, seconds: float) -> list:
    """Closed loop: the next cycle starts when the previous one returned, and
    no cycle starts that would, at the median cycle time so far, end after
    `seconds`. Cycle i runs under tracers[i % len(tracers)]; a traced run
    passes (untraced, traced), so it holds at least one cycle of each kind
    on the same inputs."""
    cycles = []
    start = time.perf_counter()
    while True:
        active = tracers[len(cycles) % len(tracers)]
        with active.installed():
            began = time.perf_counter()
            cycle = workload.cycle(active)
            cycle.wall = time.perf_counter() - began
        cycle.traced = active is not tracers[0]
        cycles.append(cycle)
        elapsed = time.perf_counter() - start
        if len(cycles) >= len(tracers) and elapsed + median([c.wall for c in cycles]) > seconds:
            return cycles


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "defreg", "__init__.py")):
        print(f"error: defreg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    import defreg
    if os.path.dirname(os.path.dirname(os.path.abspath(defreg.__file__))) != SRC:
        print(f"error: imported defreg from {defreg.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import NO_TRACER, WORKLOADS
    import_s = time.perf_counter() - PROCESS_START

    work_dir = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    workload = WORKLOADS[args.workload](work_dir, args.seed, args.smoke)
    tracer = Tracer() if args.trace else NO_TRACER
    try:
        setup_times = repeat_setup(workload, tracer)
        setup_s = import_s + median(setup_times)
        cycles = run_cycles(workload, (NO_TRACER, tracer) if args.trace else (NO_TRACER,),
                            args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    digests = sorted({c.digest for c in cycles})
    deterministic = len(digests) == 1
    if not deterministic:
        print("error: cycles on the same inputs gave different output digests "
              f"(traced, digest): {[(c.traced, c.digest) for c in cycles]}", file=sys.stderr)
    untraced_cycles = [c for c in cycles if not c.traced]
    ops = [op for c in cycles for op in c.ops]
    failed = sum(op.failed for op in ops)
    for op in ops:
        if op.failed:
            print(f"failed {op.kind}: {op.reason}", file=sys.stderr)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "cycles": len(cycles),
        "traced_cycles": sum(c.traced for c in cycles), "digest": digests[0] if deterministic else digests,
        "machine": machine_record(np),
        "setup_repeats_s": setup_times, "import_s": import_s,
        "table": workload_table(workload, untraced_cycles, setup_s),
        "op_samples_s": op_samples(untraced_cycles),
    }
    correct = deterministic and failed == 0
    if args.trace:
        quality = {name: row["value"] for name, row in report["table"].items()
                   if name in ("precision", "recall", "epe_m")}
        metrics = per_layer(tracer, cycles, quality)
        summary = tracer.summary([i for i, kind in tracer.root_kinds.items() if kind != "setup"])
        gap = abs(sum(summary["self"].values()) - summary["wall"])
        n = report["traced_cycles"]
        report["per_layer"] = metrics
        report["self_time_per_cycle_s"] = {
            name: t / n for name, t in sorted(summary["self"].items())}
        report["self_time_gap_s"] = gap
        report["unwrapped"] = sorted(tracer.missing)
        if gap > 1e-9 * max(summary["wall"], 1.0):
            print(f"error: self times miss the operations' wall time by {gap} s", file=sys.stderr)
            correct = False
    else:
        metrics = {name: {"value": report["table"][name]["value"], "unit": unit}
                   for name, unit in E2E_UNITS.items() if name in report["table"]}
        missing = sorted(set(E2E_UNITS) - set(metrics))
        if missing:
            print(f"error: no samples for {missing}", file=sys.stderr)
            correct = False

    print_table(args.workload, report["table"])
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                                  for name, row in metrics.items()}}))
    return 0


def print_table(workload, table) -> None:
    for name, row in table.items():
        print(f"{workload:12s} {name:18s} {row['value']:>14.6g} {row['unit']:9s} "
              f"n={row['samples']}", file=sys.stderr)


def run_all(args) -> int:
    """Every workload in a subprocess of its own, one after the other."""
    here = os.path.abspath(__file__)
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, here, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = (json.loads(lines[-2])["report"], json.loads(lines[-1]))
    print(f"{'workload':12s} {'metric':18s} {'value':>14s} {'unit':9s} samples")
    for name, (report, _) in results.items():
        for metric, row in report["table"].items():
            print(f"{name:12s} {metric:18s} {row['value']:>14.6g} {row['unit']:9s} {row['samples']}")
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results.values()),
        "attempted": sum(r["attempted"] for _, r in results.values()),
        "failed": sum(r["failed"] for _, r in results.values()),
        "metrics": {f"{name}/{metric}": value for name, (_, r) in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
