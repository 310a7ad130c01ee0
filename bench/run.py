"""parafree benchmark: run one seeded workload and print its metrics.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Workloads: classify-batch, deep-search, census, certify.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics (the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1).  The line before it is
the full report: every metric under its workload-specific name and unit,
input shares, exact counts, failures, the known-defect cases, the host
speed scale and the environment.  Both are also
written to bench/results/.  Exits 2 when the library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC_DIR / "parafree" / "__init__.py").is_file():
        print(f"error: parafree sources not found under {SRC_DIR}", file=sys.stderr)
        return 2
    for path in (str(BENCH_DIR), str(SRC_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from parafree_bench.harness import run
    from parafree_bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace),
                         out_dir=BENCH_DIR / "results")
    for case in report["known_defects"]:
        if case["fails"]:
            print(f"known defect still fails: {case['case']}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
