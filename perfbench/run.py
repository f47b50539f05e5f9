#!/usr/bin/env python3
"""Simulator benchmark: end-to-end and per-layer runs of three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test

Builds the benchmark (perfbench/CMakeLists.txt, a Release build of the
simulator library in .bench_build/perfbench) and runs one workload for
--seconds as a closed loop: one simulated run at a time, each in a process
of its own, until the time is up.

--trace 0  end-to-end runs through aodv::run_blackhole_experiment, cycling
           round-robin through the workload's worlds (WORKLOAD_WORLDS).
           Reports wall_s and setup_s as the mean over the worlds of each
           world's fastest run, and peak_rss_mb as the mean of each world's
           median.
--trace 1  pairs of an untraced entry-point run and a traced run of the
           same world (traced_world.hpp). Reports every per-layer metric;
           withholds them if the two runs' simulation signatures differ.
--test     builds and runs the benchmark's parity tests.

--workload all runs fig7_ic, storm4k and storm4k_exec in turn, each for
--seconds, and prefixes each metric name with its workload.

Workloads, metrics and their rationale are listed in BENCHMARK.json and
perfbench/README.md. Every run's outputs are checked (ledger consistency,
CBR send count, ...); a run that crashes or fails a check counts as failed.
The last line of stdout is the JSON result.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CPUS = len(os.sched_getaffinity(0))

# Executive worker threads per workload (0 = serial engine). Passed to the
# run as ICC_SIM_THREADS, the documented knob, not as a WorldConfig field,
# so storm4k_exec measures the serial loop if the executive is ever removed.
WORKLOAD_THREADS = {
    "fig7_ic": 0,
    "storm4k": 0,
    "storm4k_exec": min(4, CPUS),
}

# Worlds an end-to-end invocation cycles through: worlds 0..K-1 of --seed.
# The shared host slows runs by up to 2x in episodes lasting seconds, and
# a workload's worlds differ by 10-15% in cost. Taking each world's fastest
# of several runs discards the episodes; averaging over K worlds damps the
# world-to-world spread. K is as large as leaves every world two or more
# runs in one invocation of run_seconds (BENCHMARK.json).
WORKLOAD_WORLDS = {
    "fig7_ic": 8,
    "storm4k": 3,
    "storm4k_exec": 3,
}

# How an end-to-end metric is taken over one world's runs: host contention
# only ever adds time, so the fastest run is the world's own cost.
E2E_STATS = {
    "wall_s": min,
    "setup_s": min,
    "peak_rss_mb": statistics.median,
}

# No run starts after HARD_STOP_S and every process is killed at DEADLINE_S
# (both counted from the end of the build), so an invocation ends inside
# its 180 s limit whatever --seconds asks for.
HARD_STOP_S = 120.0
DEADLINE_S = 170.0

EXEC_STATS_RE = re.compile(
    r"icc: executive: (\d+) windows \((\d+) single-component\).*?(\d+) components")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_env(workload, sim_stats=False):
    """The caller's environment minus every knob that changes what a run
    measures, plus the workload's executive thread count."""
    env = {
        k: v for k, v in os.environ.items()
        if not (k.startswith("ICC_TRACE") or k.startswith("ICC_FLIGHT") or k in (
            "ICC_PROFILE", "ICC_NET_CODEC", "ICC_SIM_STATS", "ICC_SIM_THREADS"))
    }
    if WORKLOAD_THREADS[workload] > 0:
        env["ICC_SIM_THREADS"] = str(WORKLOAD_THREADS[workload])
    if sim_stats:
        env["ICC_SIM_STATS"] = "1"
    return env


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src; run from a repository checkout")
    jobs = str(min(4, CPUS))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", *targets])
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail("build failed: " + " ".join(cmd))


def spawn(binary, args, env, start):
    """Run one benchmark process; returns (parsed JSON or None, stderr)."""
    try:
        proc = subprocess.run([os.path.join(BUILD_DIR, binary), *args], capture_output=True,
                              text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, start + DEADLINE_S - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, f"{binary} timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"{binary} exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        return json.loads(lines[-1]), proc.stderr
    except json.JSONDecodeError:
        return None, f"{binary} printed no result: {lines[-1][:200]}"


def git_describe():
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True,
                              text=True, cwd=ROOT, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable (not a git checkout)"


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def print_context(args, runs, extra):
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "runs": runs,
        "exec_threads": WORKLOAD_THREADS[args.workload],
        "host_cpus": CPUS,
        "git": git_describe(),
        **extra,
    }
    print("context: " + json.dumps(context))


def end_to_end(args):
    build(["perfbench_e2e"])
    env = run_env(args.workload)
    worlds = WORKLOAD_WORLDS[args.workload]
    results = {}  # world -> its checked runs
    failed, attempted = 0, 0
    first = {}
    start = time.monotonic()
    while True:
        world = attempted % worlds
        out, err = spawn("perfbench_e2e", ["--workload", args.workload, "--seed", str(args.seed),
                                           "--run", str(world)], env, start)
        attempted += 1
        problem = None
        if out is None:
            problem = err
        elif out["check"] != "ok":
            problem = out["check"]
        elif world in results and results[world][0]["signature"] != out["signature"]:
            problem = "signature differs from an earlier run of the same world"
        if problem:
            failed += 1
            print(f"world {world}: FAILED: {problem}")
        else:
            results.setdefault(world, []).append(out)
            first = first or out
            print(f"world {world} seed={out['seed']} wall_s={out['wall_s']:.6f} "
                  f"setup_s={out['setup_s']:.6f} run_s={out['run_s']:.6f} "
                  f"peak_rss_mb={out['peak_rss_mb']:.3f} signature: {out['signature']}")
        elapsed = time.monotonic() - start
        if (attempted >= worlds and elapsed >= args.seconds) or elapsed >= HARD_STOP_S:
            break
    print_context(args, attempted, {"worlds": worlds,
                                    "runs_per_world": [len(results.get(w, [])) for w in range(worlds)],
                                    "sim_time_s": first.get("sim_time_s"),
                                    "build": first.get("build")})
    metrics = {}
    if len(results) == worlds:
        for name, unit in declared_metrics(False).items():
            value = statistics.fmean(E2E_STATS[name](r[name] for r in runs)
                                     for runs in results.values())
            metrics[name] = {"value": value, "unit": unit}
    return attempted, failed, metrics


def layers(args):
    build(["perfbench_e2e", "perfbench_layers"])
    per_layer = declared_metrics(True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--run", "0"]
    untraced_s, traced_s, samples = [], [], []
    signatures, failed, attempted, first = set(), 0, 0, {}
    start = time.monotonic()
    while True:
        # Alternate which run of the pair goes first, so host drift over the
        # invocation does not bias trace.overhead.
        pair = [("perfbench_e2e", run_env(args.workload)),
                ("perfbench_layers", run_env(args.workload, sim_stats=True))]
        if attempted % 2:
            pair.reverse()
        outs = {binary: spawn(binary, common, env, start) for binary, env in pair}
        attempted += 1
        ref, ref_err = outs["perfbench_e2e"]
        traced, traced_err = outs["perfbench_layers"]
        problem = None
        if ref is None or traced is None:
            problem = ref_err if ref is None else traced_err
        elif ref["check"] != "ok" or traced["check"] != "ok":
            problem = f"output check: untraced {ref['check']}, traced {traced['check']}"
        elif ref["signature"] != traced["signature"]:
            problem = (f"signature mismatch\n  untraced: {ref['signature']}\n"
                       f"  traced:   {traced['signature']}")
        if problem:
            failed += 1
            print(f"pair {attempted - 1}: FAILED: {problem}")
        else:
            signatures.add(ref["signature"])
            first = first or ref
            untraced_s.append(ref["run_s"])
            traced_s.append(traced["run_s"])
            sample = dict(traced["metrics"])
            stats = EXEC_STATS_RE.search(traced_err)
            sample["exec.windows"] = int(stats.group(1)) if stats else 0
            sample["exec.single_component_windows"] = int(stats.group(2)) if stats else 0
            sample["exec.components"] = int(stats.group(3)) if stats else 0
            samples.append(sample)
            print(f"pair {attempted - 1}: untraced run_s={ref['run_s']:.6f} "
                  f"traced run_s={traced['run_s']:.6f} signature: {ref['signature']}")
        elapsed = time.monotonic() - start
        if elapsed >= args.seconds or elapsed >= HARD_STOP_S:
            break
    if len(signatures) > 1:
        print("FAILED: repeated runs of one world simulated different signatures")
        failed, samples = attempted, []
    print_context(args, attempted, {"traced_world_seed": first.get("seed"),
                                    "sim_time_s": first.get("sim_time_s"),
                                    "build": first.get("build")})
    if not samples:
        return attempted, failed, {}
    values = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    untraced = statistics.median(untraced_s)
    values["sched.events_per_s"] = values["sched.events"] / untraced
    values["trace.overhead"] = statistics.median(traced_s) / untraced - 1.0
    missing = set(per_layer) - set(values)
    if missing:
        print(f"FAILED: the traced run did not report {sorted(missing)}")
        return attempted, attempted, {}
    return attempted, failed, {n: {"value": values[n], "unit": u} for n, u in per_layer.items()}


def self_test():
    build(["perfbench_tests"])
    sys.exit(subprocess.run([os.path.join(BUILD_DIR, "perfbench_tests")], cwd=ROOT).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*sorted(WORKLOAD_THREADS), "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true", help="build and run the parity tests")
    args = parser.parse_args()
    if args.test:
        self_test()
    if args.workload is None:
        parser.error("--workload is required")
    workloads = sorted(WORKLOAD_THREADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        args.workload = workload
        attempted, failed, metrics = layers(args) if args.trace else end_to_end(args)
        result["correct"] = result["correct"] and failed == 0 and bool(metrics)
        result["attempted"] += attempted
        result["failed"] += failed
        prefix = f"{workload}." if len(workloads) > 1 else ""
        result["metrics"].update({prefix + name: m for name, m in metrics.items()})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
