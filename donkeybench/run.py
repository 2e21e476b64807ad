#!/usr/bin/env python3
"""Build donkeybench from this checkout and run it.

One workload:
    python3 donkeybench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
                               [--scale full|smoke] [--out FILE]
runs `donkeybench` once and passes its output through; the last stdout line
is the run's summary JSON and the exit code is the benchmark's.

Without --workload, every workload runs timed and then traced at the given
seed, and --out (if given) receives the list of full records.

The build lives in .bench_build/ and work files in .bench_work/, both at
the root of the checkout.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "donkeybench"
WORK = ROOT / ".bench_work"
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def build():
    """Configure once, then build incrementally; log to stderr."""
    jobs = str(os.cpu_count() or 1)
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return False
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def git_sha():
    """HEAD, with "+dirty" when the tree differs from it."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True)
    except OSError:
        return "unknown"
    if head.returncode != 0:
        return "unknown"
    return head.stdout.strip() + ("+dirty" if status.stdout.strip() else "")


def bench(workload, args, trace, out=None):
    cmd = [str(BUILD / "donkeybench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--scale", args.scale,
           "--workdir", str(WORK), "--git-sha", git_sha()]
    if out:
        cmd += ["--out", out]
    return subprocess.run(cmd)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["full", "smoke"], default="full")
    p.add_argument("--out")
    args = p.parse_args()

    if not build():
        print("donkeybench: build failed", file=sys.stderr)
        return 1
    if args.workload:
        return bench(args.workload, args, args.trace, args.out).returncode

    records, rc = [], 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = WORK / f"record-{workload}-{trace}.json"
            rc = bench(workload, args, trace, str(record)).returncode or rc
            if record.exists():
                records.append(json.loads(record.read_text()))
                record.unlink()
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
