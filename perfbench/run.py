#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload engine_paper|train_sum \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench; later runs only re-check the build. Build output
goes to stderr.

Before any workload process starts, a separate process writes the
checkpoint engine_paper loads, so each workload process pays for its own
model build and plan compilation inside its timed set-up.

An untraced run is split over CHILD_RUNS processes of seconds / CHILD_RUNS
each: on shared virtual machines a process can land in a fast or a slow
mode about 1.5x apart for its whole life, so one process per run would
report that draw. Each combined metric is the median of the children's
values; setup_s is the median of the children's single set-ups. A traced
run is one process. Stdout carries each process's context line, then the
result line, which is always the last line. Any build failure or failed
correctness check exits nonzero without a result line.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("engine_paper", "train_sum")
CHILD_RUNS = 5
# Allowance on top of a process's measuring time for set-up, correctness
# checks and teardown.
CHILD_MARGIN_S = 25


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("repository sources not found (missing %s)" % needed)
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD, "perfbench")


def git_sha():
    # The ceiling keeps git from reading repositories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_sha256():
    """Hash of the built sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    binary = build()
    work_dir = os.path.join(BUILD, "work")
    os.makedirs(work_dir, exist_ok=True)
    checkpoint = os.path.join(work_dir, "serve.ckpt")
    if subprocess.run([binary, "--write_checkpoint", checkpoint],
                      timeout=CHILD_MARGIN_S).returncode:
        fail("cannot write the checkpoint")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(args.trace), "--work_dir", work_dir,
               "--checkpoint", checkpoint,
               "--git_sha", git_sha() + "+src." + source_sha256()]
    if args.trace:
        context, result = run_child(command, args.seconds,
                                    args.seconds + CHILD_MARGIN_S)
        print(context)
        print(json.dumps(result))
        return
    children = []
    for _ in range(CHILD_RUNS):
        seconds = args.seconds / CHILD_RUNS
        context, result = run_child(command, seconds,
                                    seconds + CHILD_MARGIN_S)
        print(context)
        children.append(result)
    print(json.dumps(combine(children)))


def run_child(command, seconds, timeout):
    """Runs the binary once; returns its context line and parsed result."""
    try:
        proc = subprocess.run(command + ["--seconds", repr(seconds)],
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("run exceeded %.0f s" % timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("exited with %d" % proc.returncode)
    if len(lines) < 2:
        fail("no result")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or \
            result["correct"] is not True:
        fail("malformed result line: " + lines[-1])
    return lines[-2], result


def combine(children):
    """One result from the children's: per-metric medians, summed counts."""
    metrics = {
        name: {"value": statistics.median(c["metrics"][name]["value"]
                                          for c in children),
               "unit": first["unit"]}
        for name, first in children[0]["metrics"].items()}
    return {"correct": True,
            "attempted": sum(c["attempted"] for c in children),
            "failed": sum(c["failed"] for c in children),
            "metrics": metrics}


if __name__ == "__main__":
    main()
