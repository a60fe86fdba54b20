#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload figures|serve_cold|serve_warm \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The driver and the project's
libraries are compiled with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs only relink what changed.
Build output goes to standard error, so the last line of standard
output is the driver's JSON result.  The exit code is the driver's, or
1 when the build fails or the result does not carry exactly the
metrics BENCHMARK.json lists for the mode.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_driver", "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench_driver")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["figures", "serve_cold", "serve_warm"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    try:
        exe = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    scratch = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    try:
        proc = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scratch", scratch],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s did not finish in %d s"
              % (args.workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = sorted(m["name"] for m in
                  spec["per_layer" if args.trace else "end_to_end"])
    got = sorted(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
    if got != want:
        print("perfbench: %s reported %s, BENCHMARK.json lists %s"
              % (args.workload, got, want), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
