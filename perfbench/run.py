#!/usr/bin/env python3
"""Serve-path benchmark of rvhpc-serve: build, run one workload, print JSON.

    python3 perfbench/run.py --workload hot-http --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root.  The first run builds the program under test
(Release, no sanitizers) from src/ into .bench_build/perfbench; later runs
only check that build.  --trace 0 runs the timed workload against a real
rvhpc-serve process and prints the end-to-end metrics; --trace 1 runs the
traced in-process replay and prints the per-layer metrics.  The last line
of standard output is the JSON result.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("hot-http", "interval-miss-tcp", "inline-stdio")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark and the program."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the root of an rvhpc checkout: no src/CMakeLists.txt here")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        # Few jobs: the build shares the host with other work.
        steps.append(["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
                      "perfbench", "perfbench_trace", "rvhpc-serve"])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (full log: %s)" % log_path)


def run_once(workload, seed, seconds, trace):
    where = ["--server", os.path.join(BUILD_DIR, "rvhpc", "serve", "rvhpc-serve"),
             "--work-dir", BUILD_DIR]
    # The prepared cache is made (once per build) by a process of its own,
    # so the measuring process is small when it spawns the server.
    if subprocess.call([os.path.join(BUILD_DIR, "perfbench"), "--prepare"] + where) != 0:
        fail("preparing the persistent cache failed")
    binary = os.path.join(BUILD_DIR, "perfbench_trace" if trace else "perfbench")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)] + where
    # Its own process group, so a run that overstays is stopped together
    # with the server it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run overstayed 170 s; stopped")
    return subprocess.CompletedProcess(cmd, proc.returncode, out)


def self_check():
    """Runs every workload briefly, traced and untraced, with every
    correctness check, and confirms each metric of BENCHMARK.json is
    printed with its unit."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            proc = run_once(workload, 7, 1, trace)
            label = "%s --trace %d" % (workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append("%s: exit %d" % (label, proc.returncode))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%s failed=%s" % (
                    label, result["correct"], result["attempted"], result["failed"]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append("%s: metrics %s, BENCHMARK.json names %s" % (
                    label, sorted(got.items()), sorted(want.items())))
            print("self-check %-28s ok=%s attempted=%d" % (
                label, not problems, result["attempted"]))
    for p in problems:
        print("self-check FAILED: " + p)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload briefly and check every metric is printed")
    args = parser.parse_args()
    if not args.self_check and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")

    build()
    if args.self_check:
        return self_check()
    proc = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
