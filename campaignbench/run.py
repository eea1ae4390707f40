#!/usr/bin/env python3
"""Builds the campaignbench program from source and runs one workload.

Usage, from the root of a checkout:

    python3 campaignbench/run.py --workload spta_sweep --seed 1 \
        --seconds 30 --trace 0

The program (main.cpp) and the pwcet library sources it links are compiled
in Release mode into $CARGO_TARGET_DIR/campaignbench (default
.bench_build/campaignbench, relative to the working directory); later runs
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is the program's JSON result. The exit code is the program's, or 1
when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            # Leave no half-configured tree behind for the next run.
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    command = ["cmake", "--build", build_dir, "--parallel", jobs]
    return subprocess.run(command, stdout=sys.stderr, env=env).returncode == 0


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "campaignbench")
    if not build(build_dir):
        print("campaignbench: build failed", file=sys.stderr)
        return 1
    program = os.path.join(build_dir, "campaignbench")
    sys.stdout.flush()
    return subprocess.run([program] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
