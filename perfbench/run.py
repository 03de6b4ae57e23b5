#!/usr/bin/env python3
"""Build and run the end-to-end solve-and-serve benchmark.

    python3 perfbench/run.py --workload <name> --seed <n>
        --seconds <s> --trace <0|1>

Run from the root of a capsp checkout.  The benchmark is compiled from the
checkout's sources with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to stderr.  The benchmark's
stdout is passed through unchanged: one "name = value unit" line per
metric, a provenance line, and, as the last line, the JSON result.  The
exit code is the benchmark's, or non-zero when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no capsp sources next to %s; "
                 "run from a checkout" % HERE)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target_dir, "perfbench"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--workdir", build_dir]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
