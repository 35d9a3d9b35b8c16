#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload edge_ingest --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build), is incremental,
and its output goes to stderr. The benchmark's self-tests run before every
measurement. The last stdout line is the result JSON printed by the
perfbench binary (see perfbench/README.md); a run that leaves one of its
shared-memory segments behind is reported as failed.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("edge_ingest", "fleet_poll", "standing_epochs")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", "4"]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def leaked_segments(pid):
    return glob.glob(f"/dev/shm/pathdump.perfbench.{pid}.*")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no pathdump sources beside {HERE}; nothing to benchmark")
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        log("build failed")
        return 1
    if subprocess.call([os.path.join(build_dir, "perfbench_selftest")],
                       stdout=sys.stderr, stderr=sys.stderr) != 0:
        log("benchmark self-tests failed")
        return 1

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.csv")]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        leaked = leaked_segments(child.pid)
        for path in leaked:
            os.unlink(path)

    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if child.returncode != 0:
        print(lines[-1])
        log(f"perfbench exited with code {child.returncode}")
        return child.returncode
    result = json.loads(lines[-1])
    if leaked:
        print(f"FAILED CHECK: {len(leaked)} shared-memory segment(s) left behind")
        result["correct"] = False
        result["failed"] = result["attempted"]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
