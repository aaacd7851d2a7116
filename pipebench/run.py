#!/usr/bin/env python3
"""Pipeline benchmark runner: builds the harness from source, runs one
workload and passes its output through.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 pipebench/run.py --test      # build and run the harness's tests

Run it from the repository root. Everything it builds or writes stays under
.bench_build/ in that root; the work directory of a run is deleted when the
run ends. The last line of standard output is the harness's JSON result;
build output goes to standard error. See pipebench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path(".bench_build") / "pipebench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"pipebench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}; run from a "
             "full checkout of the repository")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(step)}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return BUILD / target


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the harness's own tests")
    args = parser.parse_args()

    if args.test:
        binary = build("pipebench_test")
        sys.exit(subprocess.run([str(binary)]).returncode)
    if not args.workload:
        fail("--workload is required")

    binary = build("pipebench")
    workdir = Path(".bench_build") / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir)]
    if args.trace:
        command += ["--spans-out", str(Path(".bench_build") /
                                       f"spans-{args.workload}.json")]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
        code = done.returncode
    except subprocess.TimeoutExpired:
        print(f"pipebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
