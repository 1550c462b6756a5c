#!/usr/bin/env python3
"""Builds and runs the TupleBus end-to-end benchmark.

    python3 perfbench/run.py --workload fig7_bus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/ with optimisation;
later calls only rebuild what changed. Build output goes to stderr, the
benchmark's report to stdout, whose last line is one JSON object
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "tbbench")
WORKLOADS = ("fig7_bus", "threaded_space", "fed_mix")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/ next to perfbench/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "tbbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def commit_id():
    """The git commit when there is one, else a digest of the sources built."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit_id()]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = run.stdout.rstrip("\n").split("\n")
    # Everything but the result line is the human-readable report.
    report, last = lines[:-1], lines[-1] if lines else ""
    if report:
        print("\n".join(report))
    if run.returncode != 0:
        print(last)  # failed checks print the verdict without numbers
        sys.exit(run.returncode)
    try:
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
    except (ValueError, AssertionError):
        fail("malformed result line: " + last, 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
