#!/usr/bin/env python3
"""End-to-end benchmark of the Planck simulator (see README.md).

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Builds perfbench_runner from source (perfbench/CMakeLists.txt) into
.bench_build/perfbench, then runs the named workload in a fresh child
process per repetition for about --seconds seconds:

  --trace 0  untraced repetitions; prints every end-to-end metric of
             BENCHMARK.json (host times are medians over repetitions).
  --trace 1  alternating untraced and traced repetitions; prints every
             per-layer metric and writes the spans and the component
             registry under .bench_build/perfbench/out/<workload>-seed<N>/.

Each metric is printed as "<name> <value> <unit>", then the determinism
digest, and last one JSON line {"correct", "attempted", "failed",
"metrics"}. The output checks (README.md, "Checks") decide "correct"; the
exit code is 1 when a check fails and 2 when the benchmark itself could
not run (no result line then).
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD / "perfbench_runner"

# The seed used when none is given, and a held-out seed kept out of tuning
# so a claimed gain can be re-checked on inputs it was not written against.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

# workload -> whether it runs on the sharded ParallelEngine
SHARDED = {
    "te_bijection_k8": False,
    "setup_k10": False,
    "sharded_ring_k8": True,
}

# Repetitions run at least this many times even past --seconds, so every
# median has something to be a median of (a traced repetition is an
# untraced plus a traced run, so fewer of them fit).
MIN_REPS = 3
MIN_REPS_TRACED = 2
# Worker threads of the sharded workload's reference run (one per vCPU of
# the 4-vCPU machine the benchmark was tuned on). Its timed repetitions run
# the engine's 1-thread sequential path; see README.md, Noise.
PARALLEL_THREADS = 4
# A whole run must end well inside the 180 s the benchmark is allowed.
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not run (as opposed to an output check failing)."""


def load_contract():
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path) as f:
            contract = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")
    return contract


def build():
    """Configures (once) and builds the runner; output goes to stderr."""
    if not (ROOT / "src" / "workload" / "testbed.hpp").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_ = ["cmake", "--build", str(BUILD), "--target", "perfbench_runner",
                "-j", jobs]
    for attempt in range(2):
        ok = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                            cwd=ROOT).returncode == 0
        ok = ok and subprocess.run(compile_, stdout=sys.stderr,
                                   stderr=sys.stderr, cwd=ROOT).returncode == 0
        if ok:
            return
        if attempt == 0 and (BUILD / "CMakeCache.txt").exists():
            # A cache from another checkout location: start afresh once.
            shutil.rmtree(BUILD)
    raise BenchError("building perfbench_runner failed")


class Runner:
    """Starts one child per repetition, under one deadline for the run."""

    def __init__(self, deadline):
        self.deadline = deadline

    def __call__(self, *args):
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline passed")
        try:
            proc = subprocess.run([str(RUNNER), *args], cwd=ROOT,
                                  stdout=subprocess.PIPE, stderr=sys.stderr,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"runner {' '.join(args)} timed out")
        if proc.returncode != 0:
            raise BenchError(f"runner {' '.join(args)} exited "
                             f"{proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"runner {' '.join(args)} printed nothing")
        return json.loads(lines[-1])


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with >= p of the sample
    at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1]


def median(values):
    return statistics.median(values)


def repeat(end, min_reps, one_rep):
    """Calls one_rep() until the monotonic time `end` (never starting one
    that would end past it, judging by the mean so far), at least min_reps
    times."""
    start = time.monotonic()
    reps = 0
    while True:
        one_rep()
        reps += 1
        now = time.monotonic()
        if reps >= min_reps and now + (now - start) / reps > end:
            return


# Sim-time outcomes that must repeat exactly for one seed.
SIM_OUTCOMES = ("digest", "flows_started", "flows_completed", "fct_ms",
                "avg_flow_gbps", "reroute_ms", "detect_ms", "sim.events")


def end_to_end_metrics(plain):
    first = plain[0]
    return {
        "setup_s": median([r["setup_s"] for r in plain]),
        "loop_s": median([r["loop_s"] for r in plain]),
        "run_s": median([r["run_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "fct_ms.p50": percentile(first["fct_ms"], 0.50),
        "fct_ms.p90": percentile(first["fct_ms"], 0.90),
        "avg_flow_gbps": first["avg_flow_gbps"],
        "reroute_ms.p50": percentile(first["reroute_ms"], 0.50),
        "reroute_ms.p90": percentile(first["reroute_ms"], 0.90),
        "detect_ms": median(first["detect_ms"]),
    }


def ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(plain, traced, parallel, calibration):
    c = plain[0]  # counts are deterministic; any repetition gives them
    loop = median([r["loop_s"] for r in plain])
    traced_loop = median([r["loop_s"] for r in traced])
    m = {
        "net.graph_build_s": median([r["net.graph_build_s"] for r in traced]),
        "net.partition_map_s":
            median([r["net.partition_map_s"] for r in traced]),
        "controller.routing_build_s":
            median([r["controller.routing_build_s"] for r in traced]),
        "controller.routing_rss_mb":
            median([r["controller.routing_rss_mb"] for r in traced]),
        "controller.route_paths": c["controller.route_paths"],
        "workload.testbed_build_s":
            median([r["workload.testbed_build_s"] for r in traced]),
        "workload.testbed_rss_mb":
            median([r["workload.testbed_rss_mb"] for r in traced]),
        "workload.teardown_s": median([r["teardown_s"] for r in traced]),
        "te.build_s": median([r["te.build_s"] for r in traced]),
        "sim.events": c["sim.events"],
        "sim.ns_per_event": ratio(loop * 1e9, c["sim.events"]),
        "switch.mirror_sent": c["switch.mirror_sent"],
        "switch.mirror_drop_frac": ratio(
            c["switch.mirror_drops"],
            c["switch.mirror_sent"] + c["switch.mirror_drops"]),
        "switch.data_drops": c["switch.data_drops"],
        "switch.shared_hwm_bytes_max": c["switch.shared_hwm_bytes_max"],
        "tcp.packets_sent": c["tcp.packets_sent"],
        "tcp.retx_frac": ratio(c["tcp.retransmits"], c["tcp.packets_sent"]),
        "tcp.timeouts": c["tcp.timeouts"],
        "collector.samples": c["collector.samples"],
        "collector.events_fired": c["collector.events_fired"],
        "collector.evictions": c["collector.evictions"],
        "collector.inference_miss_frac": ratio(
            c["collector.inference_misses"], c["collector.samples"]),
        "te.events_processed": c["te.events_processed"],
        "te.reroutes": c["te.reroutes"],
        "te.reroute_frac": ratio(c["te.reroutes"], c["te.events_processed"]),
        "controller.epochs_opened": c["controller.epochs_opened"],
        "controller.epochs_committed": c["controller.epochs_committed"],
        "controller.epoch_fallbacks": c["controller.epoch_fallbacks"],
        "control_channel.rpc_calls": c["control_channel.rpc_calls"],
        "control_channel.rpc_retries": c["control_channel.rpc_retries"],
        "obs.tracing_overhead_frac": ratio(traced_loop - loop, loop),
        "host.calibration_s": calibration,
    }
    # Engine figures exist only under the ParallelEngine; 0 elsewhere.
    windows = c.get("engine.windows", 0)
    m.update({
        "engine.windows": windows,
        "engine.events_per_window": ratio(c["sim.events"], windows),
        "engine.stall_frac": ratio(
            c.get("engine.barrier_stalls", 0),
            windows * c.get("engine.data_partitions", 0)),
        "engine.balance_bound": ratio(
            c["sim.events"], c.get("engine.busiest_partition_events", 0)),
        "engine.control_events": c.get("engine.control_events", 0),
        "engine.t4_loop_s": parallel["loop_s"] if parallel else 0.0,
        "engine.speedup": ratio(loop, parallel["loop_s"]) if parallel else 0.0,
    })
    return m


def check_outputs(plain, traced, parallel):
    """Returns the list of failed output checks (empty when correct)."""
    failures = []
    runs = plain + traced + ([parallel] if parallel else [])
    for r in runs:
        if r["flows_completed"] != r["flows_started"]:
            failures.append(f"{r['mode']} run (threads={r['threads']}): "
                            f"{r['flows_started'] - r['flows_completed']} of "
                            f"{r['flows_started']} flows not complete at the "
                            f"horizon")
        if r["mode"] == "traced" and not r["files_ok"]:
            failures.append("traced run could not write spans/metrics")
    first = plain[0]
    if first["te.reroutes"] < 1:
        failures.append("PlanckTE never rerouted")
    if not first["detect_ms"]:
        failures.append("no congestion event named colliding flows")
    if not first["reroute_ms"]:
        failures.append("no sample carried a rerouted flow's new MAC")
    for r in plain[1:] + traced:
        for key in SIM_OUTCOMES:
            if r[key] != first[key]:
                failures.append(f"{r['mode']} repetition differs from the "
                                f"first in {key} (nondeterminism)")
    if parallel and parallel["digest"] != first["digest"]:
        failures.append(f"{parallel['threads']}-thread digest "
                        f"{parallel['digest']} != {first['threads']}-thread "
                        f"digest {first['digest']}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SHARDED))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; "
                    f"held-out seed {HELDOUT_SEED})")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="k=4 version of the workload, one repetition")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    deadline = time.monotonic() + RUN_DEADLINE_S
    contract = load_contract()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[section]}
    build()
    run = Runner(deadline)

    workload = args.workload
    common = ["--workload", workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    min_reps = 1 if args.smoke else MIN_REPS_TRACED if args.trace else MIN_REPS
    out_dir = BUILD / "out" / f"{workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)

    # --seconds covers everything measured below, the parallel reference
    # run included, so every run of a workload lasts about as long.
    end = time.monotonic() + args.seconds
    calibration = run("--mode", "calibrate")["calibration_s"]
    # The sharded workload's multi-thread digest is checked against the
    # 1-thread repetitions.
    parallel = None
    if SHARDED[workload]:
        parallel = run(*common, "--mode", "plain", "--threads",
                       str(PARALLEL_THREADS))

    plain, traced = [], []

    def one_rep():
        plain.append(run(*common, "--mode", "plain"))
        if args.trace:
            traced.append(run(*common, "--mode", "traced",
                              "--out", str(out_dir)))

    repeat(end, min_reps, one_rep)

    failures = check_outputs(plain, traced, parallel)
    if failures:
        metrics = {}
    elif args.trace:
        metrics = per_layer_metrics(plain, traced, parallel, calibration)
    else:
        metrics = end_to_end_metrics(plain)
    missing = [name for name in units if name not in metrics]
    if metrics and missing:
        raise BenchError(f"no value computed for {', '.join(missing)}")

    runs = plain + traced + ([parallel] if parallel else [])
    attempted = sum(r["flows_started"] for r in runs)
    failed = sum(r["flows_started"] - r["flows_completed"] for r in runs)
    first = plain[0]
    print(f"workload {workload} seed {args.seed} trace {args.trace} "
          f"repetitions {len(plain)} plain, {len(traced)} traced")
    print(f"samples flows={first['flows_started']} "
          f"reroutes_observed={len(first['reroute_ms'])}/"
          f"{first['te.reroutes']} detections={len(first['detect_ms'])}")
    for key in ("setup_s", "loop_s", "run_s"):
        values = " ".join(f"{r[key]:.4f}" for r in plain)
        print(f"repetitions {key}: {values}")
    print(f"flow_fail_frac {ratio(failed, attempted):.6g} ratio")
    if not args.trace:
        print(f"host.calibration_s {calibration:.10g} s")
    for name in units:
        if name in metrics:
            print(f"{name} {metrics[name]:.10g} {units[name]}")
    print(f"digest {first['digest']}"
          + (f" ({parallel['threads']}-thread {parallel['digest']})"
             if parallel else ""))
    for f in failures:
        print(f"CHECK FAILED: {f}")
    if args.trace:
        print(f"artifacts {out_dir.relative_to(ROOT)}/{{spans,metrics}}.json")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
