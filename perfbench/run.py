#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the benchmark (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench under the checkout on first use, then runs the
benchmark binary for one workload with the program's DH_* switches removed from the
environment. Its report goes to standard output; its last line
is the result as one JSON object. See perfbench/README.md for the
workloads and metrics.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fig12_policy_sweep", "fig11_mesh_aging", "paper_figures")


def build():
    """Configures and builds (a no-op when up to date); output to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr)


def clean_env():
    """The caller's environment without the program's DH_* switches."""
    return {k: v for k, v in os.environ.items() if not k.startswith("DH_")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    out_dir = os.path.join(BUILD, "run")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--root", ROOT, "--bin", os.path.join(BUILD, "paper"),
              "--out", out_dir]
    return subprocess.run(cmd, env=clean_env(), cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
