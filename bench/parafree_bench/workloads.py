"""The four workloads: seeded inputs, the timed operation, and its check.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns.  Inputs depend only on the workload seed.
The library is called through its module attributes, so that the tracing
wrappers (installed on those attributes) see every call.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import cycle
from pathlib import Path
from statistics import median
from typing import Any, Iterator, Optional

import parafree
import parafree.families as families
import parafree.freeness as freeness
import parafree.halfrel as halfrel
import parafree.search as search
from parafree.exact import format_rational
from parafree.halfrel import defect

from .checks import hits_error, len4_hit_error, witness_error

# Bound before tracing is installed: used to prepare inputs and to check
# outputs, never inside a timed operation.
_family_instance = families.family_instance
_family_lookup = freeness.family_lookup

SRC_DIR = Path(parafree.__file__).resolve().parent.parent


def child_env() -> dict:
    """The environment for a child interpreter that imports this parafree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    return env


@dataclass(slots=True)
class Record:
    """One operation: input, output, timing, and what its check found."""

    op: Any
    latency_s: float
    work: int
    out: Any = None
    kind: str = "op"  # "op", or "cli" for a `parafree verify` subprocess
    extra: dict = field(default_factory=dict)
    error: Optional[str] = None  # why the op failed, if it did
    wrong: bool = False  # the program asserted something false
    counts: tuple = ()  # exact counts; equal for equal inputs
    scale: float = 1.0  # takes latency_s to the reference host speed (speed.py)


def stated_space(query) -> int:
    """Prefixes in the query's stated space: sum of m^j for j < l, with
    m = 2B for NONZERO_ANY and B for the signed modes."""
    m = 2 * query.bound if query.sign_mode is search.SignMode.NONZERO_ANY else query.bound
    return sum(m ** j for j in range(query.max_len))


class ClassifyBatch:
    name = "classify-batch"
    why = ("runs the whole freeness pipeline (thresholds, family lookup at "
           "+-tau, three small searches per tau) on distinct tau with q <= 128")
    rate = ("classify_per_s", "tau/s")
    reference = "fraction"  # speed.py
    digest_ops = 500
    rss_ops = 2000  # peak RSS is read after this many ops

    def __init__(self, seed: int, tiny: bool) -> None:
        max_q = 8 if tiny else 128
        pool = sorted({Fraction(p, q) for q in range(1, max_q + 1)
                       for p in range(-4 * q + 1, 4 * q) if p})
        random.Random(seed).shuffle(pool)
        self.taus = pool
        self.effort = freeness.SearchEffort(4, 8)

    def ops(self) -> Iterator[Fraction]:
        return iter(self.taus)

    def run(self, tau: Fraction) -> Record:
        t0 = time.perf_counter()
        cls = freeness.classify_tau(tau, self.effort)
        return Record(tau, time.perf_counter() - t0, 1, cls)

    @staticmethod
    def warmup() -> None:
        freeness.classify_tau(Fraction(7, 13), freeness.SearchEffort(2, 2))

    def check(self, rec: Record) -> None:
        tau, cls = rec.op, rec.out
        at_tau, at_minus = _family_lookup(tau), _family_lookup(-tau)
        gpath, gerr = _decision(
            cls.group_status, cls.group_witness, tau, positive=False,
            threshold=abs(tau) >= 4, family=bool(at_tau or at_minus),
            found_status=freeness.NON_FREE)
        spath, serr = _decision(
            cls.semigroup_status, cls.semigroup_witness, tau, positive=True,
            threshold=tau >= 1 or tau <= -4, family=_semigroup_family(at_tau, at_minus),
            found_status=freeness.NON_SEMIGROUP_FREE)
        if gerr or serr:
            rec.error, rec.wrong = gerr or serr, True
        rec.counts = (format_rational(tau), cls.group_status, cls.semigroup_status,
                      gpath, spath)

    def report(self, recs: list[Record]) -> tuple[dict, dict, dict]:
        done = [r for r in recs if r.counts]
        decisions = [c for r in done for c in r.counts[3:]]
        resolved = sum(c != "unknown" for c in decisions)
        shares = {}
        for side, idx in (("group", 3), ("semigroup", 4)):
            for path in ("threshold", "family", "search", "unknown"):
                shares[f"{side}_by_{path}"] = _share(
                    sum(r.counts[idx] == path for r in done), len(done))
        metrics = {"resolved_ratio": (_share(resolved, len(decisions)), "ratio")}
        counts = {"taus": len(done),
                  "decisions_resolved": resolved, "decisions": len(decisions)}
        return metrics, shares, counts


def _semigroup_family(at_tau: list, at_minus: list) -> bool:
    """Whether family_lookup at tau or -tau gives a semigroup relation at tau."""
    kinds = halfrel.RelationKind
    return (any(not i.exceptional and i.kind is kinds.SEMIGROUP_AT_TAU for i in at_tau)
            or any(not i.exceptional and i.kind is kinds.SEMIGROUP_AT_MINUS_TAU
                   for i in at_minus))


def _decision(status, witness, tau, positive, threshold, family, found_status):
    """(path, error) of one group or semigroup decision: which phase
    resolved it, and whether status and witness agree with the inputs."""
    if threshold:
        if status != freeness.FREE_SCHOTTKY or witness is not None:
            return "threshold", f"tau={tau}: threshold case reported {status}"
        return "threshold", None
    if status == found_status:
        if witness is None:
            return "search", f"tau={tau}: {status} without a witness"
        if not witness.check():
            return "search", f"tau={tau}: witness check() is false"
        return ("family" if family else "search",
                witness_error(witness, tau, positive))
    if status == freeness.UNKNOWN and witness is None and not family:
        return "unknown", None
    return "unknown", f"tau={tau}: status {status} (family member: {family})"


# Pools of tau for the deep search, by what NONZERO_ANY at l6 b10 returns
# at the seed commit: no hits (the whole space is enumerated), or more
# hits than the result limit (1152 to 11808 before truncation).  Queries
# from both pools cost the same to within a quarter, so the mix changes
# little from seed to seed.  Every run starts with 1/4, whose 131254 hits
# before truncation make it the slowest query and the largest in memory.
# The run measures the class of every query again and reports the shares.
ZERO_HITS = ("7/13", "5/11", "-7/13", "12/5", "5/13", "6/13", "8/11")
OVER_LIMIT = ("4/9", "9/16", "3/4", "3/7", "3/2", "5/3", "7/5", "2", "-3/7",
              "9/25", "4/25")
FIRST_QUERY = Fraction(1, 4)


class DeepSearch:
    name = "deep-search"
    why = ("DFS is nearly all the time: 1/4, then seeded zero-hit and "
           "over-limit tau at l6 b10, each at workers 1 and 2; families and exact idle")
    rate = ("search_space_per_s", "prefixes/s")
    reference = "fraction"  # speed.py
    digest_ops = 3
    rss_ops = 3  # peak RSS is read after this many ops
    result_limit = 1000

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.max_len, self.bound = (4, 4) if tiny else (6, 10)

    def ops(self) -> Iterator[Fraction]:
        rng = random.Random(self.seed)
        pools = []
        for pool in (ZERO_HITS, OVER_LIMIT):
            taus = [Fraction(t) for t in pool]
            rng.shuffle(taus)
            pools.append(cycle(taus))
        yield FIRST_QUERY
        for pool in cycle(pools):
            yield next(pool)

    def query(self, tau: Fraction):
        return search.SearchQuery(tau, self.max_len, self.bound,
                                  search.SignMode.NONZERO_ANY, self.result_limit)

    def run(self, tau: Fraction) -> Record:
        query = self.query(tau)
        t0 = time.perf_counter()
        serial = search.search_half_relations(query, workers=1)
        t1 = time.perf_counter()
        parallel = search.search_half_relations(query, workers=2)
        t2 = time.perf_counter()
        return Record(tau, t1 - t0, stated_space(query), (serial, parallel),
                      extra={"w2_s": t2 - t1})

    @staticmethod
    def warmup() -> None:
        search.search_half_relations(search.SearchQuery(Fraction(7, 13), 2, 2))

    def check(self, rec: Record) -> None:
        serial, parallel = rec.out
        err = hits_error(serial.hits, rec.op, self.max_len, self.bound,
                         self.result_limit, serial.exhausted)
        if err is None and (serial.hits != parallel.hits
                            or serial.exhausted != parallel.exhausted):
            err = "workers 1 and 2 disagree"
        if err:
            rec.error, rec.wrong = f"tau={rec.op}: {err}", True
        per_len = [0] * self.max_len
        for hit in serial.hits:
            per_len[len(hit) - 1] += 1
        rec.counts = (format_rational(rec.op), rec.work, tuple(per_len),
                      not serial.exhausted)

    def report(self, recs: list[Record]) -> tuple[dict, dict, dict]:
        done = [r for r in recs if r.counts]
        w1 = sum(r.latency_s for r in recs)
        w2 = sum(r.extra.get("w2_s", 0.0) for r in recs)
        hits = {r.counts[0]: sum(r.counts[2]) for r in done if r.error is None}
        metrics = {
            "scaling_eff_2w": (w1 / (2 * w2) if w2 else 0.0, "ratio"),
            "hits_found": (sum(hits.values()), "count"),
        }
        shares = {
            "zero_hits": _share(sum(sum(r.counts[2]) == 0 for r in done), len(done)),
            "truncated": _share(sum(r.counts[3] for r in done), len(done)),
        }
        counts = {
            "queries": len(done),
            "space": sum(r.counts[1] for r in done),
            "hits_by_len": [sum(r.counts[2][i] for r in done) for i in range(self.max_len)],
            "truncated": sum(r.counts[3] for r in done),
        }
        return metrics, shares, counts


CENSUS_EXPECTED = frozenset({2, 3, 5, 9, 10, 45, 51, 90, 95, 255, 882, 1105, 1479, 2071})


class Census:
    name = "census"
    why = ("the separate length-4 path over seeded windows of n at a2 bound "
           "1e4; it bypasses the DFS and classify entirely")
    rate = ("census_n_per_s", "n/s")
    reference = "integer"  # speed.py
    digest_ops = 50
    rss_ops = 100  # peak RSS is read after this many ops
    bound = 10 ** 4
    checked_to = 3000  # the n-set on [2, checked_to] is CENSUS_EXPECTED
    n_max = 6000

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.width = 5 if tiny else 40

    def ops(self) -> Iterator[tuple[int, int]]:
        rng = random.Random(self.seed)
        start = rng.randint(2, self.checked_to - self.width + 1)
        while True:
            yield start, start + self.width - 1
            start = rng.randint(2, self.n_max - self.width + 1)

    def run(self, window: tuple[int, int]) -> Record:
        lo, hi = window
        t0 = time.perf_counter()
        found = search.search_len4_positive(lo, hi, self.bound)
        return Record(window, time.perf_counter() - t0, hi - lo + 1, found)

    @staticmethod
    def warmup() -> None:
        search.search_len4_positive(2, 3, 10)

    def check(self, rec: Record) -> None:
        lo, hi = rec.op
        err = self._error(lo, hi, rec.out)
        if err:
            rec.error, rec.wrong = err, True
        rec.counts = (lo, hi, tuple(sorted(rec.out)), sum(map(len, rec.out.values())))
        rec.extra["hits"] = [(n, hit) for n, hits in rec.out.items() for hit in hits]

    def _error(self, lo: int, hi: int, found: dict) -> Optional[str]:
        for n, hits in sorted(found.items()):
            if not lo <= n <= hi or not hits or list(hits) != sorted(set(hits)):
                return f"n={n}: hit list outside the window or not sorted"
            for hit in hits:
                err = len4_hit_error(n, hit, self.bound)
                if err:
                    return err
        for n in range(lo, min(hi, self.checked_to) + 1):
            if (n in found) != (n in CENSUS_EXPECTED):
                return f"n={n}: census disagrees with the known n-set"
        return None

    def report(self, recs: list[Record]) -> tuple[dict, dict, dict]:
        done = [r for r in recs if r.counts]
        hits = {hit for r in done if r.error is None for hit in r.extra["hits"]}
        scanned = sum(r.work for r in recs)
        covered = {n for r in recs for n in range(r.op[0], min(r.op[1], self.checked_to) + 1)}
        low = sum(max(0, min(r.op[1], self.checked_to) - r.op[0] + 1) for r in recs)
        metrics = {"hits_found": (len(hits), "count")}
        shares = {
            "n_at_most_3000": _share(low, scanned),
            "coverage_2_3000": _share(len(covered), self.checked_to - 1),
        }
        counts = {"windows": len(done), "n_scanned": sum(r.work for r in done),
                  "hits": sum(r.counts[3] for r in done)}
        return metrics, shares, counts


FAMILY_CYCLE = ("A", "B", "C_general", "C_even", "C_quad", "D", "E")
SIGMAS = ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))

# Inputs on which the seed commit fails.  The timed certify loop stays
# clear of them (|k| <= 300; `--tau=VALUE` passes a value that starts
# with "-"), so that its failures are 0 and the same on every run; these
# cases run once per run, outside the timed loop, and the report lists
# each with whether it still fails.
KNOWN_DEFECT_LOOKUPS = (("D", 301), ("E", -301))  # family_lookup stops at |k| = 300
KNOWN_DEFECT_CLI = (  # argparse reads a value that starts with "-" as an option
    ("verify", "--tau", "-9/4", "--seq", "1,-1,-2,12"),
    ("verify", "--tau", "1", "--seq", "-1,-1,1,-1,-1,1"),
)


class Certify:
    name = "certify"
    why = ("builds, re-checks and looks up family certificates with |k| up "
           "to 300 plus `parafree verify` subprocesses; search is unused")
    rate = ("certs_per_s", "certs/s")
    reference = "fraction"  # speed.py
    digest_ops = 100
    rss_ops = 500  # peak RSS is read after this many ops
    k_step = 10  # |k| is drawn from each ten of [1, k_max] (with each sigma) in turn
    cli_every = 16  # one `parafree verify` per this many certificates

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.k_max = 24 if tiny else 300  # family_lookup scans D and E up to 300

    def ops(self) -> Iterator[tuple]:
        rng = random.Random(self.seed)
        bins = {fam: [] for fam in FAMILY_CYCLE}
        made = 0
        while True:
            order = list(FAMILY_CYCLE)
            rng.shuffle(order)
            for fam in order:
                op = self._draw(rng, fam, bins[fam])
                yield op
                made += 1
                if made % self.cli_every == 1:
                    yield ("cli",) + op

    def _draw(self, rng: random.Random, fam: str, bins: list) -> tuple:
        """One (family, k, sigma).  The cost of B depends on sigma as much
        as on k, so B draws every (ten of |k|, sigma) pair in turn."""
        while True:
            if not bins:
                bins.extend((i, sigma) for i in range(self.k_max // self.k_step)
                            for sigma in (SIGMAS if fam == "B" else (None,)))
                rng.shuffle(bins)
            stratum, sigma = bins.pop()
            size = rng.randint(1, self.k_step) + stratum * self.k_step
            k = size * rng.choice((1, -1))
            if fam == "C_even":
                k += k % 2
            elif fam == "C_quad":
                t = 2 + (size - 1) * 26 // self.k_max
                k = t * (t + 1) // 2 - 1
            try:
                families.family_tau(fam, k, sigma)
            except ValueError:
                continue
            return fam, k, sigma

    def run(self, op: tuple) -> Record:
        if op[0] == "cli":
            return self._run_cli(op[1:])
        fam, k, sigma = op
        t0 = time.perf_counter()
        inst = families.family_instance(fam, k, sigma)
        witness = families.instance_witness(inst)
        checked = witness.check()
        poly = halfrel.poly_hr(inst.candidate)
        found = freeness.family_lookup(inst.tau)
        return Record(op, time.perf_counter() - t0, 1,
                      (inst, witness, checked, poly, found))

    def _run_cli(self, op: tuple) -> Record:
        inst = _family_instance(*op)
        tau, seq = format_rational(inst.tau), ",".join(map(str, inst.candidate))
        rec = Record(op, 0.0, 0, kind="cli",
                     extra={"negative_arg": tau.startswith("-") or seq.startswith("-")})
        t0 = time.perf_counter()
        try:
            rec.out = _cli("verify", f"--tau={tau}", f"--seq={seq}")
        except subprocess.TimeoutExpired:
            rec.error = "parafree verify timed out"
        rec.latency_s = time.perf_counter() - t0
        return rec

    @staticmethod
    def known_defects() -> list[dict]:
        """Run the known-defect cases; each says whether it still fails."""
        out = []
        for fam, k in KNOWN_DEFECT_LOOKUPS:
            inst = _family_instance(fam, k)
            found = any(i.family == fam and i.k == k for i in _family_lookup(inst.tau))
            out.append({"case": f"family_lookup finds {fam} k={k}", "fails": not found})
        for args in KNOWN_DEFECT_CLI:
            proc = _cli(*args)
            out.append({"case": "parafree " + " ".join(args),
                        "fails": proc.returncode not in (0, 1),
                        "exit": proc.returncode})
        return out

    @staticmethod
    def warmup() -> None:
        inst = families.family_instance("D", 5)
        families.instance_witness(inst).check()
        halfrel.poly_hr(inst.candidate)
        freeness.family_lookup(inst.tau)

    def check(self, rec: Record) -> None:
        if rec.kind == "cli":
            self._check_cli(rec)
            return
        fam, k, sigma = rec.op
        inst, witness, checked, poly, found = rec.out
        err = _cert_error(inst, witness, checked, poly, found)
        if err:
            rec.error, rec.wrong = f"{fam} k={k}: {err}", True
        match = any(i.family == fam and i.k == k and i.sigma == sigma for i in found)
        if not match and rec.error is None:
            rec.error = f"family_lookup missed {fam} k={k} sigma={sigma}"
        rec.counts = (fam, k, sigma, len(found), match)

    def _check_cli(self, rec: Record) -> None:
        proc = rec.out
        if proc is None:
            return
        rec.counts = ("cli",) + rec.op + (proc.returncode,)
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            rec.error = f"parafree verify exited {proc.returncode}: {last[:160]}"
            return
        try:
            record = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            rec.error, rec.wrong = "parafree verify printed no JSON record", True
            return
        if not (record.get("verified") and record["result"].get("is_half_relation")):
            rec.error, rec.wrong = "parafree verify rejected a family candidate", True

    def report(self, recs: list[Record]) -> tuple[dict, dict, dict]:
        certs = [r for r in recs if r.kind == "op"]
        clis = [r for r in recs if r.kind == "cli"]
        metrics = {
            "cli_calls": (len(clis), "count"),
            "cli_failed": (sum(r.error is not None for r in clis), "count"),
        }
        if clis:
            metrics["cli_p50_ms"] = (1000 * median([r.latency_s for r in clis]), "ms")
        shares = {
            "abs_k_over_300": _share(sum(abs(r.op[1]) > 300 for r in certs), len(certs)),
            "cli_negative_arg": _share(sum(r.extra["negative_arg"] for r in clis), len(clis)),
        }
        done = [r for r in certs if r.counts]
        missed = sum(not r.counts[4] for r in done)
        counts = {"certs": len(done), "lookup_matched": len(done) - missed,
                  "lookup_missed": missed}
        return metrics, shares, counts


def _cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "parafree.cli", *args],
                          capture_output=True, text=True, env=child_env(),
                          cwd=SRC_DIR.parent, timeout=120)


def _cert_error(inst, witness, checked, poly, found) -> Optional[str]:
    if not checked:
        return "witness check() is false"
    err = witness_error(witness, inst.tau, positive=False)
    if err:
        return err
    if defect(inst.candidate, inst.tau) != 0:
        return "candidate has nonzero defect"
    if poly.evaluate(inst.tau) != 0:
        return "poly_hr does not vanish at tau"
    if any(i.tau != inst.tau for i in found):
        return "family_lookup returned another tau"
    return None


WORKLOADS = {w.name: w for w in (ClassifyBatch, DeepSearch, Census, Certify)}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
