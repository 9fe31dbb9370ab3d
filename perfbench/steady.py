"""Steadiness check: two sets of runs, alternated, against the bounds.

    python3 perfbench/steady.py --runs 5 [--workloads serve-hot,campaign]

For every workload, runs set A and set B alternately (A, B, A, B, ...),
each run in its own process with its own seed, and prints per
end-to-end metric: each set's median, its spread (the distance between
the first and third quartile over the median, as
``statistics.quantiles(values, n=4)`` gives them), how far B's median
is worse than A's, and the bound from BENCHMARK.json; "all" is the
spread over both sets' runs together.  A metric is steady when both
spreads stay below a third of its bound and the shift stays within the
bound; the failed share of operations must be identical in both sets.
Run from the repository root.  Exits 1 when anything is not steady.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{completed.returncode}: {completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} incorrect: "
                           f"{completed.stderr}")
    return result


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set (two sets per workload)")
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--seed", type=int, default=1,
                        help="first seed; every run gets the next one")
    args = parser.parse_args(argv)

    steady = True
    report = {}
    seed = args.seed
    for workload in args.workloads.split(","):
        sets = ([], [])
        for _ in range(args.runs):
            for runs in sets:
                runs.append(run_once(bench["command"], workload, seed,
                                     args.seconds))
                seed += 1
        print(f"{workload}: seeds {seed - 2 * args.runs}..{seed - 1}")
        shares = {round(r["failed"] / r["attempted"], 12)
                  for runs in sets for r in runs}
        if len(shares) != 1:
            steady = False
            print(f"  failed share differs between runs: {sorted(shares)}")
        report[workload] = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs]
                      for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            pooled = spread(values[0] + values[1])
            shift = worsening(medians[0], medians[1], metric["better"])
            ok = shift <= bound and max(spreads) < bound / 3
            steady = steady and ok
            report[workload][name] = {"values": values, "medians": medians,
                                      "spreads": spreads, "pooled": pooled,
                                      "shift": shift,
                                      "bound": bound, "steady": ok}
            print(f"  {name:<15} median {medians[0]:>12.6g} "
                  f"{medians[1]:>12.6g}  spread {spreads[0]:6.1%} "
                  f"{spreads[1]:6.1%} (all {pooled:6.1%})  "
                  f"worse by {shift:6.1%}  "
                  f"bound {bound:.0%}  {'ok' if ok else 'NOT STEADY'}")
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "steady.json"), "w",
              encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
