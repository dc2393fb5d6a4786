#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

Run it from the repository root. It builds the harness program from
source into .bench_build/perfbench (the first run takes a minute or
two), runs the workload with the constants from
perfbench/workloads.json, checks the outputs, and prints a readable
report followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics, and the
report adds the per-layer span table and the tracing overhead. The exit
status is 0 only when the build, the run and every output check pass.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and returns its exit status.
    On timeout the whole group (make's compilers too) is killed and
    waited for, and the run fails."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{os.path.basename(cmd[0])} exceeded {timeout} s")


def build():
    """Configures (once) and builds the harness; returns its path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                status = run_group(cmd, BUILD_TIMEOUT_S, stdout=log,
                                   stderr=subprocess.STDOUT)
            except OSError as exc:
                fail(f"build step {' '.join(cmd[:2])} failed: {exc}")
            if status != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build step {' '.join(cmd[:2])} exited {status}; "
                     f"see {log_path}")
    return os.path.join(BUILD_DIR, "perfbench_harness")


def run_harness(binary, workload, params, args):
    out_dir = os.path.join(BUILD_DIR, "runs")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(
        out_dir, f"{workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_path]
    for key, value in params.items():
        cmd += ["--param", f"{key}={value}"]
    # The library reads CTA_* variables (threads, backend, tracing,
    # budgets, fault injection); the workload sets the pool size and
    # nothing else may leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CTA_")}
    env["CTA_THREADS"] = str(params["pool"])
    if os.path.exists(out_path):
        os.remove(out_path)
    # Exit status 1 means a failed output check; the result is still
    # written and reported as incorrect.
    status = run_group(cmd, RUN_TIMEOUT_S, env=env, stdout=sys.stderr)
    if status not in (0, 1) or not os.path.exists(out_path):
        fail(f"harness exited {status}")
    with open(out_path) as f:
        return json.load(f)


def print_report(result, args):
    host = result["host"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"seconds {result['seconds']:g}  trace {args.trace}")
    print(f"host: nproc {host['nproc']}, pool {host['pool']}, spin-loop "
          f"parallelism of the pool {host['spin_parallelism_start']:.2f} at "
          f"start / {host['spin_parallelism_end']:.2f} at end (x one "
          f"thread), simd {host['simd']}, FMA peak "
          f"{host['fma_peak_gflops']:.1f} GFLOP/s (one thread), backend "
          f"{host['backend']}, compiler {host['compiler']}, build "
          f"{host['build_type']}")
    for check in result["checks"]:
        status = "ok  " if check["ok"] else "FAIL"
        detail = f" ({check['detail']})" if check["detail"] else ""
        print(f"check {status} {check['name']}{detail}")
    setup = result["setup_seconds"]
    print(f"setup_s = {metrics.median(setup):.4g} s (median of "
          f"{len(setup)} set-ups)")
    print(f"peak_rss_mb = {result['values']['peak_rss_mb']:.4g} MiB")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_frac = {failed / max(1, attempted):.4g} "
          f"({failed} failed of {attempted} attempted)")
    series, values = result["series"], result["values"]
    slots = metrics.SLOTS[result["workload"]]
    print(f"end-to-end slots: op = {slots['op']}, ref = {slots['ref']}, "
          f"rate = {slots['rate']}")
    for name, unit, kind, key in metrics.NAMED[result["workload"]]:
        if kind == "series":
            print(metrics.format_timing(name, unit, series[key]))
        else:
            print(f"{name} = {values[key]:.6g} {unit}")


def print_trace(result):
    spans = result["spans"]
    wall = metrics.traced_wall_ms(spans)
    print(f"per-layer table: {len(spans)} spans over {wall:.1f} ms of "
          "traced wall time")
    for line in metrics.format_span_table(metrics.span_table(spans), wall):
        print("  " + line)
    op = metrics.SLOTS[result["workload"]]["op"]
    untraced = metrics.median(result["series"].get(op, []))
    traced = metrics.median(result["series"].get("traced:" + op, []))
    share = (traced - untraced) / untraced if untraced else 0.0
    print(f"tracing overhead on {op}: traced p50 {traced:.4g} ms - "
          f"untraced p50 {untraced:.4g} ms = {traced - untraced:.4g} ms "
          f"({100 * share:.1f}% of the untraced {untraced:.4g} ms)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    if args.workload not in config["workloads"]:
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{sorted(config['workloads'])}")
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except OSError as exc:
        fail(f"run from the repository root ({exc})")
    wanted = {m["name"]: m["unit"]
              for m in bench["per_layer" if args.trace else "end_to_end"]}

    binary = build()
    result = run_harness(binary, args.workload,
                        config["workloads"][args.workload], args)
    print_report(result, args)
    if args.trace:
        print_trace(result)
        values = metrics.per_layer(result)
    else:
        values = metrics.end_to_end(result)

    correct = all(c["ok"] for c in result["checks"])
    line = {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": values}
    problems = metrics.validate_result_line(line, wanted)
    if problems:
        fail("result does not match BENCHMARK.json: " + "; ".join(problems))
    for name, m in values.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
