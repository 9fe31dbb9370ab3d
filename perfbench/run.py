"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload serve-churn --seed 1 --seconds 35 \\
        --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics from spans recorded around each
layer's public entry points (see README.md).  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; problems
found by the correctness oracles go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

WORKLOADS = ("serve-hot", "serve-churn", "campaign", "ingest")
TRACE_DIR = ".perfbench_out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import tracing

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    if args.workload.startswith("serve-"):
        import serve as workload
    elif args.workload == "campaign":
        import campaign as workload
    else:
        import ingest as workload
    result = workload.run(args.workload, args.seed, args.seconds, tracer)

    for problem in result.pop("problems"):
        print(f"{args.workload}: {problem}", file=sys.stderr)
    if tracer is not None:
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write(os.path.join(
            TRACE_DIR, f"trace-{args.workload}-{args.seed}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
