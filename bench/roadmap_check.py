"""Time the informal workloads of the ROADMAP's baseline table, for a
cross-check against the benchmark's own figures (see bench/README.md).

    python3 bench/roadmap_check.py

Prints one JSON object: the median wall seconds of each workload.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
REPEATS = 3  # in-process timings; the subprocess timings take 5


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    sys.path.insert(0, str(SRC_DIR))
    from parafree.freeness import SearchEffort, classify_tau
    from parafree.search import SearchQuery, search_half_relations, search_len4_positive

    grid = sorted({Fraction(p, q) for q in range(1, 9) for p in range(-4 * q + 1, 4 * q)})
    query = SearchQuery(Fraction(9, 4), 5, 14)
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    cli = [sys.executable, "-m", "parafree.cli", "verify", "--tau", "9/4", "--seq", "1,-1,1,14,2"]
    importer = [sys.executable, "-c", "import parafree"]
    out = {
        "search_9_4_l5_b14_workers1_s": _median_time(
            lambda: search_half_relations(query, workers=1), REPEATS),
        "search_9_4_l5_b14_workers2_s": _median_time(
            lambda: search_half_relations(query, workers=2), REPEATS),
        "census_2_3000_s": _median_time(
            lambda: search_len4_positive(2, 3000, 10 ** 4), REPEATS),
        "classify_grid_175_s": _median_time(
            lambda: [classify_tau(t, SearchEffort(4, 8)) for t in grid], REPEATS),
        "cli_verify_s": _median_time(
            lambda: subprocess.run(cli, env=env, capture_output=True, check=True), 5),
        "python_import_parafree_s": _median_time(
            lambda: subprocess.run(importer, env=env, check=True), 5),
        "python_bare_s": _median_time(
            lambda: subprocess.run([sys.executable, "-c", "pass"], check=True), 5),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
