"""Where serve-churn's deopting and table-lane requests fall in latency.

    python3 perfbench/tails.py [--seeds 1,2,3] [--rounds 10]

Serves the serve-churn workload (see serve.py) untimed past its settle
phase, then times each request of ``--rounds`` rounds and reads the
fused image's counters around it.  For the requests that deopted, and
for those that went to the table lane without deopting, it prints their
share of all requests, their median rank in the latency order (0 the
fastest, 1 the slowest) and the share of them at or above the p90.
This is the evidence for which latency percentile each wrapper lane
moves (README.md, per-layer table).  Run from the repository root.
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from measure import clock_ns  # noqa: E402
import serve  # noqa: E402


def placement(seed: int, rounds: int) -> str:
    served = serve.Served(serve.SPECS["serve-churn"], seed, None)
    for _ in range(serve.SETTLE // serve.ROUND):
        served.serve_untimed(served.stream)
    image = served.session.image
    lines = [request.line for request in served.stream]
    latencies, deopted, tabled = [], [], []
    for _ in range(rounds):
        for request in served.stream:
            deopts, table_calls = image.deopts, image.table_calls
            start = clock_ns()
            served.session.serve_one(request)
            latencies.append(clock_ns() - start)
            deopted.append(image.deopts > deopts)
            tabled.append(image.table_calls > table_calls)
        served.check(lines)
    if served.problems:
        raise RuntimeError("; ".join(served.problems))
    count = len(latencies)
    rank = [0.0] * count
    for position, index in enumerate(
            sorted(range(count), key=latencies.__getitem__)):
        rank[index] = position / count
    groups = {
        "deopting": [rank[i] for i in range(count) if deopted[i]],
        "table lane only": [rank[i] for i in range(count)
                            if tabled[i] and not deopted[i]],
    }
    parts = []
    for name, ranks in groups.items():
        if not ranks:
            parts.append(f"{name}: none")
            continue
        beyond = sum(1 for r in ranks if r >= 0.9) / len(ranks)
        parts.append(f"{name} {len(ranks) / count:.1%} of requests, median "
                     f"rank {statistics.median(ranks):.2f}, {beyond:.1%} "
                     f"at or above p90")
    return f"seed {seed}, {count} requests: " + "; ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    for seed in args.seeds.split(","):
        print(placement(int(seed), args.rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
