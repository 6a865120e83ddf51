#!/usr/bin/env python3
"""Builds the procon benchmark from source and runs one workload.

    python3 perfbench/run.py --workload design|admission|serve \\
        --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout. The first run configures and builds
perfbench/ (the procon library from src/ plus the benchmark program) into
the directory named by CARGO_TARGET_DIR, or .bench_build when it is unset;
later runs only check that the build is current. Build output goes to
stderr.

Standard output carries the benchmark's full record (one JSON line: metrics,
the workload's own named metrics, settings, machine description), and as
its last line the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--out FILE also writes the full record to FILE, the input of compare.py.
The exit code is 0 when a result was printed, non-zero otherwise.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per build directory.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs, "--target", "procon_perfbench"])
        for cmd in steps:
            subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "procon_perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["design", "admission", "serve"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--design-threads", type=int, default=None,
                   help="Workbench pool size of the design workload (default 2)")
    p.add_argument("--out", help="also write the full record to this file")
    args = p.parse_args()

    try:
        binary = build()
    except (subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.design_threads is not None:
        cmd += ["--design-threads", str(args.design_threads)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {args.workload} exited with {proc.returncode}", file=sys.stderr)
        return 1
    record = json.loads(lines[-1])
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
