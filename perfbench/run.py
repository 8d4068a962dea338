#!/usr/bin/env python3
"""Builds and runs the layered benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload sar-512x64|paper-grid|daemon-mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The first run configures and
builds the dasched libraries, the daemon and dasched_perfbench from source
into the build directory ($CARGO_TARGET_DIR if set, else .bench_build);
later runs only check that the build is current.  Build output goes to
stderr; stdout carries dasched_perfbench's report, whose last line is one
JSON object.  The exit status is dasched_perfbench's: 0 when every
correctness check passed, non-zero otherwise or when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sar-512x64", "paper-grid", "daemon-mixed")
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no dasched sources next to perfbench/ (src/ missing)")
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configurations, for the benchmark's tests")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="run one path with another seed; must fail")
    args = parser.parse_args()

    try:
        out = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    cmd = [os.path.join(out, "dasched_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--root", ROOT, "--serve-binary", os.path.join(out, "dasched_serve")]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
