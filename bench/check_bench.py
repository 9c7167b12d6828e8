#!/usr/bin/env python3
"""Benchmark regression gate.

Compares freshly produced benchmark JSON against a checked-in baseline
and exits nonzero when any throughput metric drops by more than the
allowed fraction. Built for BENCH_serve.json (a list of objects keyed by
"bench") but accepts any file in that shape, including a single top-level
object (BENCH_net.json) and "driver"-keyed files (BENCH_parallel.json).

Single-file usage:
  bench/check_bench.py --baseline BENCH_serve.json --current /tmp/new.json
  bench/check_bench.py ... --max-drop 0.15 --metric events_per_second
  bench/check_bench.py --baseline BENCH_net.json --current /tmp/net.json \
      --require-zero parity_mismatches

Trajectory usage — one invocation gates every BENCH_*.json the repo
tracks, with per-file metric lists read from a config:
  bench/check_bench.py --trajectory bench/trajectory.json \
      --baseline-dir . --current-dir build
  bench/check_bench.py --trajectory bench/trajectory.json \
      --baseline-dir . --current-dir build --only BENCH_serve.json

Higher-is-better metrics are gated with --metric (default:
events_per_second and scores_per_second); lower-is-better metrics (e.g.
ns_per_edge) with --lower-metric, where an *increase* past --max-drop
fails. --require-zero names a metric that must be exactly 0 in every
current entry carrying it, regardless of the baseline (zero parity
mismatches, zero protocol errors, zero soak invariant violations), and
that at least one current entry must carry at top level: a contract no
entry reports is a contract nothing checks. Entries present in only one
of the two files are reported but do not fail the gate — benchmarks
come and go; losing a baseline row is a review concern, not a perf
regression. Improvements are never failures.

In trajectory mode a file listed in the config but missing from
--current-dir is noted and skipped (CI jobs each produce a subset);
pass --only to make the named files mandatory. A --max-drop given on
the command line overrides every per-file value in the config — CI
runners are noisy and pass a looser value than the local defaults.
"""

import argparse
import json
import os
import sys


def load_entries(path):
    """Returns {key: entry} for a bench JSON file.

    The file is either a list of objects or a single object. Each object
    is keyed by its "bench" field (falling back to "driver" for the
    parallel-runtime report) plus the "variant" field when present
    (BENCH_alloc.json carries several variants per bench name) or the
    "threads" field (BENCH_parallel.json sweeps thread counts under one
    driver name). Objects with neither key are skipped.
    """
    with open(path) as f:
        doc = json.load(f)
    if isinstance(doc, dict):
        doc = [doc]
    entries = {}
    for obj in doc:
        if not isinstance(obj, dict):
            continue
        key = obj.get("bench", obj.get("driver"))
        if key is None:
            continue
        if "variant" in obj:
            key = f"{key}/{obj['variant']}"
        elif "threads" in obj:
            key = f"{key}/threads={obj['threads']}"
        entries[key] = obj
    return entries


def gate_file(baseline_path, current_path, metrics, lower_metrics,
              require_zero, max_drop):
    """Gates one current file against one baseline file.

    Returns (exit_code, compared) where exit_code is 0 on pass, 1 on a
    regression, 2 when nothing was comparable.
    """
    gated = [(m, True) for m in metrics]
    gated += [(m, False) for m in lower_metrics]

    baseline = load_entries(baseline_path)
    current = load_entries(current_path)

    failures = []
    compared = 0
    for key in sorted(baseline):
        if key not in current:
            print(f"note: {key} in baseline but not in current run")
            continue
        for metric, higher_is_better in gated:
            base = baseline[key].get(metric)
            cur = current[key].get(metric)
            if base is None or cur is None or base <= 0:
                continue
            compared += 1
            # `drop` is the regression fraction: how far the current value
            # moved in the bad direction relative to the baseline.
            if higher_is_better:
                drop = 1.0 - cur / base
            else:
                drop = cur / base - 1.0
            marker = ""
            if drop > max_drop:
                failures.append((key, metric, base, cur, drop))
                marker = "  << REGRESSION"
            print(f"{key:34s} {metric:20s} {base:12.1f} -> {cur:12.1f} "
                  f"({-drop:+7.1%}){marker}")
    zero_failures = []
    for metric in require_zero:
        if not any(metric in entry for entry in current.values()):
            zero_failures.append(("(every entry)", metric, "missing"))
            print(f"{'(every entry)':34s} {metric:20s} {'missing':>12s}"
                  f"  << REGRESSION")
    for key in sorted(current):
        for metric in require_zero:
            cur = current[key].get(metric)
            if cur is None:
                continue
            compared += 1
            if cur != 0:
                zero_failures.append((key, metric, cur))
                print(f"{key:34s} {metric:20s} {cur:12.4f} != 0"
                      f"  << REGRESSION")
    for key in sorted(set(current) - set(baseline)):
        print(f"note: {key} in current run but not in baseline "
              f"(new benchmark? refresh the baseline)")

    if compared == 0:
        print("error: no comparable metrics between baseline and current",
              file=sys.stderr)
        return 2, compared
    if failures or zero_failures:
        if failures:
            print(f"\n{len(failures)} metric(s) regressed more than "
                  f"{max_drop:.0%}:", file=sys.stderr)
            for key, metric, base, cur, drop in failures:
                print(f"  {key} {metric}: {base:.1f} -> {cur:.1f} "
                      f"(-{drop:.1%})", file=sys.stderr)
        if zero_failures:
            print(f"\n{len(zero_failures)} metric(s) violated the "
                  f"must-be-zero contract:", file=sys.stderr)
            for key, metric, cur in zero_failures:
                print(f"  {key} {metric}: {cur}", file=sys.stderr)
        return 1, compared
    print(f"\nOK: {compared} metric comparisons within {max_drop:.0%}")
    return 0, compared


def run_trajectory(args):
    """Gates every file named in the trajectory config that exists in
    --current-dir (all of them when --only is given)."""
    with open(args.trajectory) as f:
        config = json.load(f)
    files = config["files"]
    only = None
    if args.only:
        only = {name.strip() for name in args.only.split(",") if name.strip()}
        unknown = only - {spec["file"] for spec in files}
        if unknown:
            print(f"error: --only names files absent from the trajectory "
                  f"config: {sorted(unknown)}", file=sys.stderr)
            return 2

    worst = 0
    gated_any = False
    for spec in files:
        name = spec["file"]
        if only is not None and name not in only:
            continue
        baseline_path = os.path.join(args.baseline_dir, name)
        current_path = os.path.join(args.current_dir, name)
        if not os.path.exists(current_path):
            if only is not None:
                print(f"error: --only requested {name} but "
                      f"{current_path} does not exist", file=sys.stderr)
                return 2
            print(f"note: {name} not produced by this run; skipped")
            continue
        if not os.path.exists(baseline_path):
            print(f"error: baseline {baseline_path} missing for {name}",
                  file=sys.stderr)
            return 2
        max_drop = (args.max_drop if args.max_drop is not None
                    else spec.get("max_drop", 0.15))
        print(f"\n=== {name} (max drop {max_drop:.0%}) ===")
        code, _ = gate_file(baseline_path, current_path,
                            spec.get("metrics", []),
                            spec.get("lower_metrics", []),
                            spec.get("require_zero", []),
                            max_drop)
        gated_any = True
        worst = max(worst, code)
    if not gated_any:
        print("error: trajectory gated no files", file=sys.stderr)
        return 2
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="checked-in baseline JSON")
    parser.add_argument("--current", help="freshly produced JSON to gate")
    parser.add_argument("--trajectory",
                        help="trajectory config (bench/trajectory.json); "
                             "gates every listed BENCH_*.json file")
    parser.add_argument("--baseline-dir", default=".",
                        help="directory holding the checked-in baselines "
                             "(trajectory mode)")
    parser.add_argument("--current-dir", default=".",
                        help="directory holding the fresh results "
                             "(trajectory mode)")
    parser.add_argument("--only",
                        help="comma-separated file names from the config to "
                             "gate; each becomes mandatory (trajectory mode)")
    parser.add_argument("--max-drop", type=float, default=None,
                        help="allowed fractional drop per metric (default "
                             "0.15 = 15%%; in trajectory mode overrides "
                             "every per-file value)")
    parser.add_argument("--metric", action="append", default=None,
                        help="higher-is-better metric to gate (repeatable; "
                             "default: events_per_second, scores_per_second)")
    parser.add_argument("--lower-metric", action="append", default=[],
                        help="lower-is-better metric to gate (repeatable); "
                             "fails when the current value grows past "
                             "--max-drop relative to the baseline")
    parser.add_argument("--require-zero", action="append", default=[],
                        help="metric that must be exactly 0 in every current "
                             "entry that carries it (repeatable)")
    args = parser.parse_args()

    if args.trajectory:
        if args.baseline or args.current:
            parser.error("--trajectory is exclusive with "
                         "--baseline/--current")
        return run_trajectory(args)

    if not args.baseline or not args.current:
        parser.error("--baseline and --current are required "
                     "(or use --trajectory)")
    metrics = args.metric or ["events_per_second", "scores_per_second"]
    max_drop = args.max_drop if args.max_drop is not None else 0.15
    code, _ = gate_file(args.baseline, args.current, metrics,
                        args.lower_metric, args.require_zero, max_drop)
    return code


if __name__ == "__main__":
    sys.exit(main())
