#!/usr/bin/env python3
"""The mvqoe benchmark: build, run one workload, check, report.

    python3 mvbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an mvqoe checkout. The first run configures and
builds the harness (mvbench/harness.cpp) and the mvqoe_fleet CLI from the
checkout's own sources into .bench_build/; later runs only re-check the
build. The harness drives the workload; this script adds the host info,
cross-checks the fleet digest against the mvqoe_fleet CLI, prints every
metric with its unit and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see mvbench/README.md). Exit status: 0 when every output check passed,
1 when a check or unit failed, 2 when the benchmark could not run.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("pressure_sweep", "fleet_study", "net_contention", "fuzz_campaign")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
HARNESS_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("mvbench: " + msg)
    sys.exit(2)


def build():
    """Configure once, then bring the harness and mvqoe_fleet up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no mvqoe sources next to the benchmark (expected src/CMakeLists.txt "
             "at %s); run from an mvqoe checkout" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "mvbench",
                  "mvqoe_fleet_tool"])
    with open(build_log, "a") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(build_log) as f:
                    log("".join(f.readlines()[-30:]))
                fail("build failed (%s); log in %s" % (" ".join(cmd[:2]), build_log))


def run_harness(args):
    cmd = [os.path.join(BUILD_DIR, "mvbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", os.path.join(BUILD_DIR, "run")]
    if args.tiny:
        cmd.append("--tiny")
    # Own process group, so a timeout also stops the campaign workers and
    # warm-fork children the harness started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("harness exceeded %d s" % HARNESS_TIMEOUT_S)
    lines = stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("harness exited with status %d and no report" % proc.returncode)
    return json.loads(lines[-1])


def fleet_cli_check(result):
    """The fleet digest must equal what `mvqoe_fleet run` prints for the
    same config; one check either way."""
    cli_args = result.get("fleet_cli_args") or []
    if not cli_args:
        return
    ours = result["digests"]["fleet_study.run_fleet"]
    cmd = [os.path.join(BUILD_DIR, "tools", "mvqoe_fleet")] + cli_args
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                             timeout=20).stdout
    except subprocess.TimeoutExpired:
        out = ""
    theirs = ""
    for token in out.split():
        if token.startswith("digest="):
            theirs = token[len("digest="):]
    result["digests"]["fleet_study.mvqoe_fleet_cli"] = theirs or "none"
    result["checks"].append({"name": "fleet_study digest == mvqoe_fleet " + " ".join(cli_args),
                             "ok": theirs == ours, "detail": "%s vs %s" % (ours, theirs)})
    result["attempted"] += 1
    if theirs != ours:
        result["failed"] += 1


def measure(args):
    """Build if needed, run the harness, add the CLI cross-check; returns
    the harness report (metrics with unit, n and note; checks; digests)."""
    build()
    result = run_harness(args)
    fleet_cli_check(result)
    result["host"] = host_info(result)
    return result


def host_info(result):
    return {
        "nproc": os.cpu_count(),
        "build_type": result.get("build_type"),
        "compiler": result.get("compiler"),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "python": platform.python_version(),
    }


def print_report(args, result):
    print("mvbench %s  seed=%d  seconds=%g  trace=%d" % (args.workload, args.seed, args.seconds,
                                                       args.trace))
    print("host: " + "  ".join("%s=%s" % kv for kv in result["host"].items()))
    print("metrics (name value unit n note):")
    for name, m in result["metrics"].items():
        print("  %-34s %14.6g %-6s n=%-6d %s" % (name, m["value"], m["unit"], m["n"], m["note"]))
    print("digests:")
    for name, value in result["digests"].items():
        print("  %-34s %s" % (name, value))
    bad = [c for c in result["checks"] if not c["ok"]]
    print("output checks: %d run, %d failed" % (len(result["checks"]), len(bad)))
    for c in bad:
        print("  FAILED %s: %s" % (c["name"], c["detail"]))
    for e in result.get("errors", []):
        print("  FAILED unit: %s" % e)
    if result["model"]:
        print("modelled results (checked against the paper only qualitatively; "
              "no error figure is given):")
        for label, text in result["model"]:
            print("  %-44s %s" % (label, text))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every pass (self-test mode; figures not comparable)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    result = measure(args)
    print_report(args, result)
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
