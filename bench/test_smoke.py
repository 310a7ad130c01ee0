"""Smoke test of the benchmark at a tiny size: every workload prints every
metric of BENCHMARK.json with its unit, exact counts repeat for the same
seed, and a corrupted search hit is counted as a failed operation."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
for _path in (str(BENCH_DIR), str(BENCH_DIR.parent / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from parafree_bench.harness import run, run_loop  # after the path set-up above
from parafree_bench.workloads import WORKLOADS

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    """The result and report lines, as run.py prints them."""
    result, report = run(workload, seed=3, seconds=0.3, trace=bool(trace), tiny=True,
                         probes=3)
    return json.loads(json.dumps(result)), json.loads(json.dumps(report))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result, report = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    cls = WORKLOADS[workload]
    assert report["why"] == cls.why
    for listed in SPEC["workloads"]:
        assert listed["why"] == WORKLOADS[listed["name"]].why
    if not trace:
        rate_name, rate_unit = cls.rate
        assert report["metrics"][rate_name]["unit"] == rate_unit
        assert report["metrics"]["failed_ratio"]["unit"] == "ratio"


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_exact_counts_repeat_for_the_same_seed(workload):
    counts = []
    for _ in range(2):
        recs = run_loop(WORKLOADS[workload](5, True), 0.2).plain
        counts.append([r.counts for r in recs])
    common = min(map(len, counts))
    assert common >= 1 and counts[0][:common] == counts[1][:common]


def test_corrupted_hit_counts_as_failed(monkeypatch):
    import parafree.search as search

    original = search.search_half_relations

    def corrupt(query, workers=1):
        report = original(query, workers)
        if not report.hits:
            return report
        # (1,) is never a half-relation: its defect is tau != 0.
        return dataclasses.replace(report, hits=((1,),) + report.hits[1:])

    monkeypatch.setattr(search, "search_half_relations", corrupt)
    result, report = run("deep-search", seed=1, seconds=0.3, trace=False, tiny=True, probes=1)
    assert result["failed"] >= 1 and not result["correct"]
    assert report["metrics"]["failed_ratio"]["value"] == result["failed"] / result["attempted"]
    assert any("nonzero defect" in failure for failure in report["failures"])


def test_certify_reports_the_known_defect_cases():
    result, report = _run("certify", 0)
    assert result["failed"] == 0
    cases = report["known_defects"]
    assert len(cases) == 4 and all(isinstance(c["fails"], bool) for c in cases)
