#!/usr/bin/env python3
"""Run one benchmark workload of the time-independent trace replayer.

Usage, from the repository root:

    python3 perfbench/run.py --workload lu-replay --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds the benchmark program (`tirbench`) and the `tird`
daemon from the repository's sources into .bench_build/cmake; later calls
only let the build tool confirm it is up to date.  Each run works in a
directory of its own under .bench_build/runs, removed when the run ends; a
traced run (--trace 1) keeps its spans in .bench_build/spans.  The last line
of standard output is the result object (see perfbench/README.md).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("lu-replay", "contended-mc", "service")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"  # relative to ROOT: keeps the daemon's socket path short
CMAKE_DIR = os.path.join(BUILD, "cmake")
# tirbench must print its result within this many seconds of our start.
DEADLINE_S = 170.0


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then build; returns (tirbench, tird) paths."""
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    if not os.path.exists(os.path.join(ROOT, CMAKE_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run([cmake, "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release",
                        *generator], cwd=ROOT, stdout=sys.stderr, check=True)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run([cmake, "--build", CMAKE_DIR, "-j", jobs], cwd=ROOT, stdout=sys.stderr,
                   check=True)
    return os.path.join(CMAKE_DIR, "tirbench"), os.path.join(CMAKE_DIR, "tird")


def run_child(argv, timeout):
    """Run argv in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{' '.join(argv[1:3])} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stdout.write(out)
        raise RuntimeError(f"{' '.join(argv[1:3])} exited with code {proc.returncode}")
    return out


def parse_result(out):
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("tirbench printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("malformed result line: " + lines[-1])
    return lines[:-1], result


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="feed every correctness check a wrong value")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    tirbench, tird = build()
    if args.self_test:
        sys.stdout.write(run_child([tirbench, "selftest"], 60))
        return 0

    build_s = time.monotonic() - start
    run_dir = os.path.join(BUILD, "runs",
                           f"{args.workload}-s{args.seed}-{os.getpid()}-{time.time_ns()}")
    os.makedirs(os.path.join(ROOT, run_dir))
    common = ["--dir", run_dir, "--seed", str(args.seed)]
    try:
        if args.workload == "lu-replay" and not args.trace:
            run_child([tirbench, "setup", args.workload, *common], 120)
        out = run_child([tirbench, "run", args.workload, *common,
                         "--seconds", str(args.seconds), "--trace", str(args.trace),
                         "--tird", tird],
                        DEADLINE_S + build_s - (time.monotonic() - start))
        notes, result = parse_result(out)
        if args.trace:
            spans_dir = os.path.join(ROOT, BUILD, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            kept = os.path.join(spans_dir, os.path.basename(run_dir) + ".jsonl")
            shutil.copy(os.path.join(ROOT, run_dir, "spans.jsonl"), kept)
            notes.append(f"# spans kept in {os.path.relpath(kept, ROOT)}")
    finally:
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    for line in notes:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, subprocess.CalledProcessError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
