#!/usr/bin/env python3
"""End-to-end benchmark of the avglocal sweep, fabric and daemon paths.

Run from the repository root:

    python3 perfbench/run.py --workload views --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

The first run builds the library and both benchmark binaries with CMake into
.bench_build/perfbench (Release). Each workload runs in its own process, so
peak_rss_mb is that workload's own high-water mark.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 runs
the workload untraced, then traced (spans around every layer call), then
the serial legs alone in perfbench_allocs (linked with the allocation
hook), and prints the per-layer metrics, including trace.overhead_pct: how
much slower the traced end-to-end time was than the untraced one. Metrics
of a layer the workload never calls read 0.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A wrong output makes the command exit 1
after printing it; a build or run failure exits 1 without it.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(BUILD_DIR, "run")
WORKLOADS = ("views", "fabric-msg", "serve-mix")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def declared_metrics():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        fail("cannot read BENCHMARK.json: %s" % error)
    return spec["end_to_end"], spec["per_layer"]


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no avglocal source tree next to perfbench/ (CMakeLists.txt missing)")
    log_path = os.path.join(ROOT, BUILD_DIR, "build.log")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configure every time (a no-op when nothing changed), so a build tree
    # left by an older checkout never builds stale target lists.
    steps = [["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench",
              "perfbench_allocs"]]
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as error:
                fail("build step %s failed: %s" % (" ".join(step), error))
            if code != 0:
                with open(log_path) as handle:
                    sys.stderr.write(handle.read()[-4000:])
                fail("build step failed: " + " ".join(step))


def run_binary(name, mode, workload, seed, seconds, toy=False):
    os.makedirs(os.path.join(ROOT, WORK_DIR), exist_ok=True)
    command = [os.path.join(BUILD_DIR, name), "--mode", mode, "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--workdir", WORK_DIR]
    if toy:
        command.append("--toy")
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail("%s %s: %s" % (name, workload, error))
    lines = done.stdout.strip().splitlines()
    # Exit code 3: the run finished but some output was wrong; the record
    # still says which.
    if done.returncode not in (0, 3) or not lines:
        sys.stderr.write(done.stderr[-4000:])
        fail("%s %s exited with %d" % (name, workload, done.returncode))
    return json.loads(lines[-1])


def pick(record, declared):
    metrics = {}
    for metric in declared:
        found = record["metrics"].get(metric["name"])
        if found is None:
            fail("%s did not report %s" % (record["workload"], metric["name"]))
        metrics[metric["name"]] = {"value": found["value"], "unit": metric["unit"]}
    return metrics


def measure(workload, seed, seconds, trace, toy=False):
    """Returns (records, metrics) for one workload run."""
    end_to_end, per_layer = declared_metrics()
    plain = run_binary("perfbench", "e2e", workload, seed, seconds, toy)
    if not trace:
        return [plain], pick(plain, end_to_end)
    traced = run_binary("perfbench", "trace", workload, seed, seconds, toy)
    allocs = run_binary("perfbench_allocs", "allocs", workload, seed, seconds, toy)
    untraced_s = plain["metrics"]["e2e_s"]["value"]
    traced_s = traced["metrics"]["e2e_s"]["value"]
    traced["metrics"].update(allocs["metrics"])
    traced["metrics"]["trace.overhead_pct"] = {
        "value": 100.0 * (traced_s / untraced_s - 1.0), "unit": "%"}
    return [plain, traced, allocs], pick(traced, per_layer)


def summary(workload, records, metrics):
    env = records[-1]["env"]
    print("perfbench %s: nproc=%d sweep_threads=%d simd=%s build=%s" % (
        workload, env["nproc"], env["sweep_threads"], env["simd_isa"], env["build_type"]))
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print("  error_rate %.6g (%d failed of %d attempted)" % (
        failed / attempted if attempted else 0.0, failed, attempted))
    for record in records:
        for error in record["errors"]:
            print("  error: " + error)
    for name, metric in metrics.items():
        print("  %-36s %16.6g %s" % (name, metric["value"], metric["unit"]))
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def self_check():
    """Every workload at toy sizes, untraced and traced, in seconds."""
    build()
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            records, metrics = measure(workload, 7, 1, trace, toy=True)
            result = summary(workload, records, metrics)
            ok = ok and result["correct"]
    print("perfbench self-check: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at toy sizes, traced and untraced")
    args = parser.parse_args()
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    build()
    records, metrics = measure(args.workload, args.seed, args.seconds, args.trace == 1)
    result = summary(args.workload, records, metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
