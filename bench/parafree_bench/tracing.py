"""Timing wrappers around the library's public functions, installed from
outside the library wherever a function is bound.

Every parafree module that imported a function by name holds its own
binding (for example `parafree.freeness.search_half_relations`), so the
wrapper replaces each binding, not only the defining one.  A call records
a span (id, parent id, op id, layer, start, end); spans stay in memory and
are written out when the run ends.  A layer's self time is its span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import sys
import time
from collections import Counter
from pathlib import Path

from .workloads import stated_space

LAYERS = (
    "exact.eval_word",
    "exact.eval_word_symbolic",
    "halfrel.defect",
    "halfrel.poly_hr",
    "halfrel.build_relation",
    "halfrel.build_semigroup_witness",
    "halfrel.RelationWitness.check",
    "families.instance_witness",
    "families.family_instance",
    "freeness.classify_tau",
    "freeness.family_lookup",
    "search.search_half_relations",
    "search.search_len4_positive",
)


def _observe_search(counts: Counter, fn, args, kwargs, report) -> None:
    counts["search.space"] += stated_space(report.query)
    counts["search.hits"] += len(report.hits)
    counts["search.truncated"] += not report.exhausted


def _observe_len4(counts: Counter, fn, args, kwargs, found) -> None:
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    counts["search.len4.n_scanned"] += bound["n_to"] - bound["n_from"] + 1
    counts["search.len4.hits"] += sum(map(len, found.values()))


def _observe_lookup(counts: Counter, fn, args, kwargs, found) -> None:
    counts["freeness.family_lookup.found"] += bool(found)


OBSERVERS = {
    "search.search_half_relations": _observe_search,
    "search.search_len4_positive": _observe_len4,
    "freeness.family_lookup": _observe_lookup,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = None  # id of the operation in progress
        self._ids = itertools.count()
        self._stack: list[list] = []  # [span id, seconds spent in children]
        self._bindings: list[tuple] = []  # (owner, attribute, original, wrapper)
        modules = [m for name, m in sys.modules.items()
                   if name == "parafree" or name.startswith("parafree.")]
        for layer in LAYERS:
            module_name, _, attr = layer.partition(".")
            module = sys.modules[f"parafree.{module_name}"]
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:  # a method: one binding, on its class
                owner = getattr(module, owner_name)
                original = owner.__dict__[fn_name]
                self._bindings.append((owner, fn_name, original, self._wrap(layer, original)))
                continue
            original = getattr(module, fn_name)
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, name, original, wrapper))

    def install(self) -> None:
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._bindings:
            setattr(owner, name, original)

    def _wrap(self, layer: str, fn):
        observe = OBSERVERS.get(layer)
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(self._ids), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((frame[0], parent, self.op, layer, start, end))
                calls[layer] += 1
                self_s[layer] += end - start - frame[1]
            if observe is not None:
                observe(self.counts, fn, args, kwargs, result)
            return result

        return traced

    def calls_per_op(self, layer: str) -> Counter:
        return Counter(span[2] for span in self.spans if span[3] == layer)

    def metrics(self, ops: int, factor: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-layer figures per traced op, so that they do not grow with
        the number of ops a faster run completes; self times are multiplied
        by `factor`, the run's speed scale."""
        per = 1 / ops if ops else 0.0
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls_per_op"] = (self.calls[layer] * per, "1/op")
            out[f"{layer}.self_ms_per_op"] = (
                1000 * factor * self.self_s[layer] * per, "ms/op")
        for name in ("search.space", "search.hits", "search.truncated",
                     "search.len4.n_scanned", "search.len4.hits"):
            out[f"{name}_per_op"] = (self.counts[name] * per, "1/op")
        lookups = self.calls["freeness.family_lookup"]
        out["freeness.family_lookup.hit_ratio"] = (
            self.counts["freeness.family_lookup.found"] / lookups if lookups else 0.0, "ratio")
        out["trace.spans_per_op"] = (len(self.spans) * per, "1/op")
        return out

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON lines, times relative to the first span."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as out:
            for span_id, parent, op, layer, start, end in sorted(self.spans):
                out.write(json.dumps([span_id, parent, op, layer,
                                      start - origin, end - origin]) + "\n")
