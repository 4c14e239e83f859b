"""Benchmark of the antipow CLI.

    python3 bench/run.py --workload {synth,scan,tables} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. README.md in
this directory describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from random import Random

import workloads

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.FIXED), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time budget for the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "antipow" / "cli.py").is_file():
        print(f"error: no antipow source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness  # imports antipow, so only once its source is known to be there

    rng = Random(args.seed)
    queries = workloads.queries(args.workload, rng)
    env = harness.environment()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result, details = harness.trace(queries, args.seconds, rng, harness.OUT / f"spans-{name}.jsonl")
    else:
        result, details = harness.measure(queries, workloads.probe(), args.seconds, rng)
    harness.write_report(harness.OUT / f"result-{name}.json", env, result, details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
