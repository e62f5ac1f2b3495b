#!/usr/bin/env python3
"""Build and run cliffhangerd's loopback benchmark.

    python3 perfbench/run.py --workload etc|multiget|cliff --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root. Every call configures and builds
perfbench/ (and the cliffhanger library from src/) as a Release build in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; only the
first compiles everything. The benchmark's last stdout line is its JSON
result. Traced runs also write their spans to
<build dir>/spans-<workload>.csv.

--self-check proves the reply verifier turns a run red: a short run must
pass, and the same run with one corrupted GET payload must fail.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures and builds; returns the binary path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs]]
    for step in steps:
        try:
            proc = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            sys.stderr.write("perfbench: build failed: %s\n" % err)
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build failed\n")
            return None
    return os.path.join(out, "perfbench")


def run(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 1, ""
    return proc.returncode, proc.stdout


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def self_check(binary):
    base = ["--workload", "etc", "--seed", "7", "--seconds", "2",
            "--trace", "0"]
    code, out = run(binary, base)
    clean = last_json(out)
    if code != 0 or not clean or clean["correct"] is not True:
        sys.stderr.write("self-check: clean run did not pass\n")
        return 1
    code, out = run(binary, base + ["--corrupt-reply", "1000"])
    corrupted = last_json(out)
    if code == 0 or not corrupted or corrupted["correct"] is not False \
            or corrupted["failed"] < 1:
        sys.stderr.write("self-check: a corrupted reply did not fail the "
                         "run\n")
        return 1
    print("self-check: clean run passed; one corrupted reply failed %d "
          "request(s) and exited %d" % (corrupted["failed"], code))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["etc", "multiget", "cliff"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    if args.self_check:
        return self_check(binary)

    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        bench_args += ["--spans", os.path.join(
            build_dir(), "spans-%s.csv" % args.workload)]
    code, out = run(binary, bench_args)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
