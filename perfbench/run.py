#!/usr/bin/env python3
"""Builds and runs the perfbench ledger from the root of a checkout.

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke        # all four workloads, a few seconds each
    python3 perfbench/run.py --selftest     # the benchmark's own logic tests

The program is compiled from this checkout's sources (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset; the first run builds, later runs reuse the build. Scratch data,
full JSON records and span traces go under the same directory. The last
line of standard output is the run's JSON result (see README.md).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ["adhoc", "repeat", "array_scan", "tiled"]
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_id(root):
    """The git commit when the checkout is a repository, else a digest of src/."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(root, build_dir, target):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", build_dir, "--target", target, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def run_one(binary, build_dir, commit, workload, seed, seconds, trace, smoke):
    tmp = os.path.join(build_dir, "tmp", "%s-%d" % (workload, os.getpid()))
    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" % (workload, seed, trace))
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--tmp", tmp, "--commit", commit, "--out", stem + ".json"]
    if trace:
        cmd += ["--spans", stem + ".spans.json"]
    if smoke:
        cmd += ["--smoke"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s run exceeded %d s" % (workload, RUN_TIMEOUT_S), 1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads, a few seconds each, oracle and guards on")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own logic tests")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no AQL sources under %s/src: run from the root of a checkout" % root)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")

    if args.selftest:
        build(root, build_dir, "perfbench_test")
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_test")]).returncode)

    build(root, build_dir, "aqlbench")
    binary = os.path.join(build_dir, "aqlbench")
    commit = source_id(root)
    if args.smoke:
        bad = [w for w in WORKLOADS
               if run_one(binary, build_dir, commit, w, args.seed, 2, 1, True) != 0]
        print("perfbench smoke: %s" % ("FAILED: " + ", ".join(bad) if bad else "ok"))
        sys.exit(1 if bad else 0)
    if args.workload is None:
        fail("--workload is required (or --smoke / --selftest)")
    sys.exit(run_one(binary, build_dir, commit, args.workload, args.seed, args.seconds,
                     args.trace, False))


if __name__ == "__main__":
    main()
