"""Host speed, sampled through a run, to report times at a fixed speed.

A shared host's speed swings by up to 2x over seconds to minutes, so wall
times of the same code on the same inputs spread far more than a change
of the code would move them.  A fixed reference workload (stdlib code of
the same kind as the workload's inner loop; no parafree code) is timed
every INTERVAL_S seconds between ops, and each op's wall time is
multiplied by the reference's nominal time / (mean of the two reference
timings around it): it is the time the op would take on a host where the
reference takes its nominal time.  A set-up probe takes the mean of five
timings in its own interpreter.  The wall figures are in the report line.

Kinds of code slow down by different shares when the host does, so each
workload names the reference that tracks it best on a 2-vCPU VM:
"fraction" (rational arithmetic, dicts and sorts, as in the searches and
the certificates) or "integer" (a tight loop of multi-digit products and
remainders, as in the length-4 census solver).
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

INTERVAL_S = 0.03


def _fraction_pass() -> None:
    acc = Fraction(0)
    table: dict[int, list[int]] = {}
    for i in range(1, 300):
        acc += Fraction(i % 13 - 6, i)
        table[i % 17] = [acc.numerator % 97, i]
    sorted(table.items())


def _integer_pass() -> None:
    n2, c = 4000 * 4000, 7919 * 4001
    hits = 0
    for a2 in range(1, 2000):
        den = c * a2 - 3 * n2
        hits += (a2 + 3) * n2 % den == 0


# kind -> (one pass, its nominal seconds: about what it takes on a 2-vCPU VM)
REFERENCES = {"fraction": (_fraction_pass, 1e-3), "integer": (_integer_pass, 3e-4)}


def reference_s(kind: str) -> float:
    """Wall seconds of one pass of the reference (no collection runs
    inside it, so that the program's heap does not enter it)."""
    run = REFERENCES[kind][0]
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        run()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(kind: str, samples: list[float]) -> float:
    """The factor that takes wall times, measured while the reference
    took `samples` seconds, to the reference speed."""
    return REFERENCES[kind][1] * len(samples) / sum(samples) if samples else 1.0
