#!/usr/bin/env python3
"""Seconds-scale smoke run of the benchmark.

Runs every workload in BENCHMARK.json for five seconds untraced (one second
per child process) and one second traced, and asserts that each run passes
its correctness checks and prints every declared metric with its declared
unit (end-to-end metrics untraced, per-layer metrics traced), and that no
end-to-end metric reads 0.

    python3 perfbench/smoke.py
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", "1", "--seconds", "1" if trace else "5",
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=900)
            label = "%s trace=%d" % (workload, trace)
            if proc.returncode != 0:
                problems.append("%s: exit %d\n%s" % (label, proc.returncode,
                                                     proc.stderr[-2000:]))
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expected = {m["name"]: m["unit"] for m in declared}
            if printed != expected:
                problems.append("%s: printed %s, declared %s" %
                                (label, sorted(printed.items()),
                                 sorted(expected.items())))
            if trace == 0:
                for name, metric in result["metrics"].items():
                    value = metric["value"]
                    if not isinstance(value, (int, float)) or \
                            not math.isfinite(value) or value <= 0:
                        problems.append("%s: %s = %r" % (label, name, value))
            print("%s: ok, %d metrics" % (label, len(printed)))
    if problems:
        print("\n".join(problems), file=sys.stderr)
        sys.exit(1)
    print("smoke ok")


if __name__ == "__main__":
    main()
