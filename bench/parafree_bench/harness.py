"""One benchmark run: set-up probes, the timed loop, the checks, and the
metrics.

End-to-end metrics come from an untraced run.  A traced run runs each op
twice, untraced and then traced: the per-layer metrics come from the
traced runs, and the ratio of the two work rates is the tracing overhead.
Times are reported at the reference host speed of `speed.py`.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median
from typing import NamedTuple, Optional

from .speed import INTERVAL_S, REFERENCES, reference_s, scale
from .tracing import Tracer
from .workloads import SRC_DIR, WORKLOADS, Record, child_env

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = SRC_DIR.parent

# Set-up as a fresh interpreter sees it: `import parafree`, then the
# workload's first small operation (any lazy set-up the library does).
# The CLI import is timed on its own, before the benchmark's modules load.
# The reference workload runs after the timed part, once to warm up and
# then five times for the probe's speed scale.
_PROBE = """
import sys, time
t0 = time.perf_counter()
import parafree
t1 = time.perf_counter()
import parafree.cli
t2 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from parafree_bench.workloads import WORKLOADS
t3 = time.perf_counter()
WORKLOADS[sys.argv[1]].warmup()
t4 = time.perf_counter()
from parafree_bench.speed import reference_s
kind = WORKLOADS[sys.argv[1]].reference
reference_s(kind)
print(t1 - t0 + t4 - t3, t2 - t0, *(reference_s(kind) for _ in range(5)))
"""


def probe_setup(workload: str, probes: int) -> list[tuple[float, float, float]]:
    """(set-up wall seconds, CLI import wall seconds, speed scale), one per
    fresh interpreter."""
    out = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, "-c", _PROBE, workload, str(BENCH_DIR)],
                              capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=120, check=True)
        setup_s, cli_import_s, *samples = map(float, proc.stdout.split())
        out.append((setup_s, cli_import_s, scale(WORKLOADS[workload].reference, samples)))
    return out


def run_op(workload, op) -> Record:
    t0 = time.perf_counter()
    try:
        return workload.run(op)
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        return Record(op, time.perf_counter() - t0, 0,
                      error=f"raised {type(exc).__name__}: {exc}")


def check_op(workload, rec: Record) -> Record:
    """Check an op's output (outside its timed region, with no tracing
    installed) and drop it, so that memory does not grow with the ops."""
    if rec.error is None:
        try:
            workload.check(rec)
        except Exception as exc:  # a check that raises fails its op
            rec.error = f"check raised {type(exc).__name__}: {exc}"
    rec.out = None
    return rec


class Loop(NamedTuple):
    plain: list[Record]  # checked untraced records
    traced: list[Record]  # checked traced records (empty without a tracer)
    speed: list[float]  # reference timings (speed.py)
    peak_rss_mb: float  # after the workload's first `rss_ops` ops


def run_loop(workload, seconds: float, tracer: Optional[Tracer] = None) -> Loop:
    """Closed loop over the workload's ops until `seconds` have passed; the
    op in progress at the deadline completes, and at least one op runs.
    With a tracer, each op runs twice, untraced and then traced, so that
    both runs see the same inputs and the same machine state.  Between
    ops, the reference workload is timed every INTERVAL_S seconds, and each
    record's speed scale comes from the two timings around it.  Peak RSS
    is read after a fixed number of ops, because the records the loop
    keeps grow with the ops, and a faster program completes more of them."""
    plain: list[Record] = []
    traced: list[Record] = []
    speed: list[float] = []
    pending: list[Record] = []  # records since the last reference timing

    def sample() -> None:
        speed.append(reference_s(workload.reference))
        factor = scale(workload.reference, speed[-2:])
        for rec in pending:
            rec.scale = factor
        pending.clear()

    rss = None
    next_sample = time.perf_counter()
    deadline = next_sample + seconds
    for i, op in enumerate(workload.ops()):
        if rss is None and len(plain) >= workload.rss_ops:
            rss = peak_rss_mb()
        now = time.perf_counter()
        if plain and now >= deadline:
            break
        if now >= next_sample:
            sample()
            next_sample = now + INTERVAL_S
        plain.append(check_op(workload, run_op(workload, op)))
        pending.append(plain[-1])
        if tracer is None:
            continue
        tracer.op = i
        tracer.install()
        try:
            rec = run_op(workload, op)
        finally:
            tracer.uninstall()
        traced.append(check_op(workload, rec))
        pending.append(rec)
    sample()
    return Loop(plain, traced, speed, peak_rss_mb() if rss is None else rss)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): p99, or, with fewer than
    1000 samples, the highest percentile with ten samples beyond it when
    that is p90 or above (100 samples or more); the maximum otherwise.
    p99 rather than the 11th-highest sample on long runs: the slowest
    certify ops come from a handful of input classes, and over seeds the
    11th-highest spread more than twice as much as p99."""
    s = sorted(values)
    if len(s) < 100:
        return s[-1], 100.0, 0
    beyond = max(10, len(s) // 100)
    return s[-beyond - 1], 100.0 * (len(s) - beyond) / len(s), beyond


def work_rate(recs: list[Record], wall: bool = False) -> float:
    """Work units per busy second over the whole run, at the reference
    host speed (or in wall time)."""
    ops = [r for r in recs if r.kind == "op"]
    busy = sum(r.latency_s * (1.0 if wall else r.scale) for r in ops)
    return sum(r.work for r in ops) / busy if busy else 0.0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def environment() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    digest = hashlib.sha256()
    for path in sorted(SRC_DIR.rglob("*.py")):
        digest.update(path.relative_to(SRC_DIR).as_posix().encode())
        digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "commit": _commit(), "src_sha256": digest.hexdigest()}


def _commit() -> Optional[str]:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def counts_digest(recs: list[Record], limit: int) -> dict:
    """sha256 of the exact counts of the first `limit` ops: the same seed
    gives the same digest on every run and machine."""
    counts = [r.counts for r in recs[:limit]]
    text = json.dumps(counts, default=str)
    return {"ops": len(counts), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        probes: int = 9, out_dir: Optional[Path] = None) -> tuple[dict, dict]:
    """Run one workload; return (result, report).  The result is the line
    the benchmark contract asks for; the report holds everything else."""
    cls = WORKLOADS[name]
    # Half the probes run before the timed loop and half after it, so that
    # set-up is sampled at both ends of the run, as the ops are.
    setup_probes = probe_setup(name, (probes + 1) // 2)
    workload = cls(seed, tiny)
    cls.warmup()  # set-up cost is in setup_s; the timed loop starts warm
    tracer = Tracer() if trace else None
    plain, traced, speed, rss = run_loop(workload, seconds, tracer)
    if trace:
        recs = plain + traced
    else:
        traced = recs = plain
    setup_probes += probe_setup(name, probes // 2)
    setup = [s * f for s, _, f in setup_probes]
    cli_import = [c * f for _, c, f in setup_probes]
    known_defects = cls.known_defects() if hasattr(cls, "known_defects") else []

    failures = [r.error for r in recs if r.error is not None]
    wrong = [r.error for r in recs if r.wrong]
    if trace:
        if [r.counts for r in plain] != [r.counts for r in traced]:
            wrong.append("exact counts differ between the untraced and traced runs of an op")
    latencies = [r.latency_s * r.scale for r in plain if r.kind == "op"]
    wall = [r.latency_s for r in plain if r.kind == "op"]
    tail_value, tail_pct, beyond = tail(latencies)
    extra, shares, counts = cls.report(workload, traced)
    rate_name, rate_unit = cls.rate

    if trace:
        lookups = tracer.calls_per_op("freeness.family_lookup")
        traced_ops = sum(r.kind == "op" for r in traced)
        # Layer self times take the traced ops' time-weighted speed scale.
        factor = (sum(r.latency_s * r.scale for r in traced)
                  / max(sum(r.latency_s for r in traced), 1e-9))
        metrics = tracer.metrics(traced_ops, factor)
        metrics["cli.import_s"] = (median(cli_import), "s")
        clis = [r.latency_s * r.scale for r in traced if r.kind == "cli"]
        metrics["cli.subprocess_ms"] = (1000 * median(clis) if clis else 0.0, "ms")
        untraced_rate, traced_rate = work_rate(plain), work_rate(traced)
        metrics["trace.work_per_s_untraced"] = (untraced_rate, "1/s")
        metrics["trace.work_per_s_traced"] = (traced_rate, "1/s")
        metrics["trace.overhead_ratio"] = (
            untraced_rate / traced_rate if traced_rate else 0.0, "ratio")
        metrics["trace.ops"] = (traced_ops, "count")
        named = {}
    else:
        metrics = {
            "setup_s": (median(setup), "s"),
            "work_per_s": (work_rate(recs), "1/s"),
            "op_p50_ms": (1000 * median(latencies), "ms"),
            "op_tail_ms": (1000 * tail_value, "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
        named = {
            "setup_s": metrics["setup_s"],
            rate_name: (metrics["work_per_s"][0], rate_unit),
            "op_p50_ms": metrics["op_p50_ms"],
            "op_tail_ms": metrics["op_tail_ms"],
            "failed_ratio": (len(failures) / len(recs), "ratio"),
            "peak_rss_mb": metrics["peak_rss_mb"],
            **extra,
        }

    result = {
        "correct": not wrong,
        "attempted": len(recs),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "workload": name,
        "why": cls.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "loop": "closed, one caller",
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "host_speed": {"reference": cls.reference,
                       "reference_ms": 1000 * REFERENCES[cls.reference][1],
                       "samples": len(speed),
                       "measured_ms_mean": 1000 * sum(speed) / len(speed),
                       "measured_ms_min_max": [1000 * min(speed), 1000 * max(speed)]},
        "wall": {"work_per_s": work_rate(plain, wall=True),
                 "op_p50_ms": 1000 * median(wall),
                 "op_tail_ms": 1000 * tail(wall)[0]},
        "op_tail": {"percentile": tail_pct, "samples": len(latencies),
                    "samples_beyond": beyond},
        "setup_probes_s": setup,
        "setup_probes_wall_s": [s for s, _, _ in setup_probes],
        "input_shares": shares,
        "exact_counts": {**counts, "first_ops": counts_digest(traced, cls.digest_ops)},
        "failed_ratio": len(failures) / len(recs),
        "failures": failures[:20],
        "wrong": wrong[:20],
        "known_defects": known_defects,
    }
    if trace:
        report["exact_counts"]["family_lookup_per_op"] = [
            lookups.get(i, 0) for i in range(min(len(traced), cls.digest_ops))]
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        (out_dir / f"{stem}.json").write_text(json.dumps({**report, "result": result}, indent=1))
        if tracer is not None:
            tracer.write(out_dir / f"{stem}.spans.jsonl.gz")
    return result, report
