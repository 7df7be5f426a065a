#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Builds perfbench/ (which compiles the library from src/) into the build
directory, runs one workload in its own process between two host drift
probes, checks the runner's outputs, and prints every metric named in
BENCHMARK.json. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-narrow --seed 1 \\
        --seconds 30 --trace 0

`--workload all` runs every workload in turn, each in its own process,
and exits non-zero if any of them failed.

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced replay
and reports the per-layer metrics. The build directory is $CARGO_TARGET_DIR
when set, else .bench_build. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Library sources and the shared bench helpers the runner includes.
REQUIRED_SOURCES = ["src/core/enumerator.h", "bench/harness.h",
                    "bench/load_harness.h"]
RUNNER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20
# The end-to-end metrics each workload exists to measure. Every run still
# reports every end-to-end metric (the result must hold them all); the
# table printed before the result marks the ones a workload does not own.
OWN_METRICS = {
    "paper-narrow": {"setup_s", "peak_rss_mb", "ops_per_s", "opt_geomean_ms",
                     "opt_worst_ms", "cost_ratio"},
    "frontier-wide": {"setup_s", "peak_rss_mb", "ops_per_s",
                      "opt_geomean_ms", "opt_worst_ms", "cost_ratio"},
    "serve-mix": {"setup_s", "peak_rss_mb", "ops_per_s", "latency_p50_ms",
                  "latency_p99_ms", "cost_ratio"},
}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "perfbench")
    steps = [["cmake", "--build", cmake_dir, "-j", "3"]]
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.insert(0, configure)
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "perfbench_runner")


def parse_records(text):
    """Splits runner output into its tab-separated records (see main.cc)
    and the other lines, which are passed through."""
    records = {"run": {}, "probe": {}, "end_to_end": {}, "per_layer": {}}
    other = []
    for line in text.splitlines():
        fields = line.split("\t")
        if fields[0] in ("run", "probe") and len(fields) == 3:
            records[fields[0]][fields[1]] = fields[2]
        elif fields[0] == "metric" and len(fields) == 7:
            records[fields[1]][fields[2]] = {
                "value": float(fields[3]), "unit": fields[4],
                "samples": int(fields[5]), "note": fields[6]}
        else:
            other.append(line)
    return records, other


def probe(runner):
    proc = subprocess.run([runner, "--probe"], cwd=ROOT, capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        fail("host probe failed: " + proc.stderr.strip())
    probes = parse_records(proc.stdout)[0]["probe"]
    return {name: float(value) for name, value in probes.items()}


def run_all(spec, args):
    status = 0
    for workload in spec["workloads"]:
        print(f"== {workload['name']}", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload["name"], "--seed", str(args.seed), "--seconds",
             repr(args.seconds), "--trace", str(args.trace)], cwd=ROOT)
        status = status or proc.returncode
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}", 2)
    if args.workload == "all":
        return run_all(spec, args)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}", 2)
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)
    missing = [p for p in REQUIRED_SOURCES
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail("repository sources missing: " + ", ".join(missing), 2)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    runner = build(build_dir)
    trace_dir = os.path.join(build_dir, "spans")
    os.makedirs(trace_dir, exist_ok=True)

    before = probe(runner)
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded {RUNNER_TIMEOUT_S} s")
    after = probe(runner)
    sys.stderr.write(proc.stderr)
    records, other = parse_records(proc.stdout)
    run = records["run"]
    if "check_failures" not in run:
        fail(f"runner exited {proc.returncode} without a result")
    for line in other:
        print(line)

    section = "per_layer" if args.trace else "end_to_end"
    measured = records[section]
    host = {
        "host.mem_probe_ms": (before["mem_probe_ms"] + after["mem_probe_ms"]) / 2,
        "host.alu_probe_ms": (before["alu_probe_ms"] + after["alu_probe_ms"]) / 2,
    }
    print("conditions: workload=%s seed=%d seconds=%g trace=%d nproc=%s "
          "busy_threads=%s build=%s compiler=%s" %
          (args.workload, args.seed, args.seconds, args.trace, run["nproc"],
           run["busy_threads"], run["build_type"], run["compiler"]))
    print("host probes: mem %.1f -> %.1f ms, alu %.1f -> %.1f ms" %
          (before["mem_probe_ms"], after["mem_probe_ms"],
           before["alu_probe_ms"], after["alu_probe_ms"]))

    metrics = {}
    correct = int(run["check_failures"]) == 0 and proc.returncode == 0
    own = OWN_METRICS.get(args.workload, set())
    for m in spec[section]:
        name, unit = m["name"], m["unit"]
        if name in host:
            value, samples, note = host[name], 2, "mean of start and end"
        elif name in measured:
            got = measured[name]
            if got["unit"] != unit:
                fail(f"{name}: runner unit {got['unit']!r} != {unit!r}")
            value, samples, note = got["value"], got["samples"], got["note"]
            if not args.trace and name not in own:
                note += " (not this workload's own metric)"
        elif args.trace:
            value, samples, note = 0.0, 0, "not exercised by this workload"
        else:
            fail(f"runner did not report {name}")
        if not math.isfinite(value):
            correct = False
            value = 0.0
            note = "not finite"
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:34s} {value:16.6g} {unit:6s} n={samples:<9d} {note}")

    attempted, failed = int(run["attempted"]), int(run["failed"])
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
