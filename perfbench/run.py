#!/usr/bin/env python3
"""Builds the engine and the benchmark binary from this checkout, then runs
one benchmark workload.

    python3 perfbench/run.py --workload xmark_serve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of an xjoin checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); spans of a
traced run go to .bench_trace/. The last line of standard output is the
run's JSON result; progress and summaries go to standard error.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("xmark_serve", "graph_join", "update_mix")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    """Configures (which also repairs a tree whose first configure was cut
    short), then builds incrementally. Returns the binary path."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    steps = [["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out_dir, "-j4", "--target", "perfbench_xjoin"]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(cmd))
                return None
    return os.path.join(out_dir, "perfbench_xjoin")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check the benchmark's own rules and exit")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no engine sources at %s/src; run from an "
                         "xjoin checkout\n" % ROOT)
        return 2
    binary = build(build_dir())
    if binary is None:
        return 2

    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", os.path.join(ROOT, ".bench_trace")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %ds\n" % RUN_TIMEOUT_S)
        return 1
    out = proc.stdout.decode()
    if args.selftest:
        return proc.returncode
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write("perfbench: no result line (exit %d)\n" % proc.returncode)
        return proc.returncode or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
