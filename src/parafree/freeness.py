"""Top-level classification of a rational tau: Schottky thresholds, family
lookup (`families.family_lookup`), and bounded search fallback.

"Unknown" is a first-class outcome: failure to find a relation within the
effort bounds is never reported as freeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .families import FamilyInstance, family_lookup, instance_witness
from .halfrel import (
    RelationKind,
    RelationWitness,
    build_relation,
    build_semigroup_witness,
    classify_signs,
    minus_tau_transform,
)
from .search import SearchQuery, SearchReport, SignMode, search_half_relations

FREE_SCHOTTKY = "free_schottky"
NON_FREE = "non_free"
NON_SEMIGROUP_FREE = "non_semigroup_free"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SearchEffort:
    max_len: int = 4
    bound: int = 8
    workers: int = 1

    def __post_init__(self) -> None:
        # checked even when no search runs (a threshold or family settles tau)
        SearchQuery(Fraction(1), self.max_len, self.bound)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class TauClassification:
    tau: Fraction
    group_status: str
    group_witness: Optional[RelationWitness]
    semigroup_status: str
    semigroup_witness: Optional[RelationWitness]
    effort: SearchEffort


def _mirrored_witness(inst: FamilyInstance) -> RelationWitness:
    """The instance's relation, rewritten by diag(1,-1) conjugation into
    one at -inst.tau."""
    w = instance_witness(inst)
    lhs = minus_tau_transform(w.lhs)
    rhs = minus_tau_transform(w.rhs)
    new = RelationWitness(-inst.tau, lhs, rhs, RelationKind.GROUP_NONTRIVIAL)
    if not new.check():
        raise AssertionError("minus-tau rewrite failed to verify")
    return new


def classify_tau(tau: Fraction, effort: SearchEffort = SearchEffort()) -> TauClassification:
    """Classify the group and semigroup at tau.

    Thresholds first (|tau| >= 4 group-Schottky, tau >= 1 semigroup-Schottky,
    tau <= -4 semigroup-free via the free group at |tau|), then family
    lookup at tau and -tau, then bounded search.
    """
    group_status, group_witness = UNKNOWN, None
    semi_status, semi_witness = UNKNOWN, None

    at_tau: list[FamilyInstance] = []
    at_minus: list[FamilyInstance] = []
    group_report: Optional[SearchReport] = None

    if abs(tau) >= 4:
        group_status = FREE_SCHOTTKY
    elif tau != 0:
        at_tau, at_minus = family_lookup(tau), family_lookup(-tau)
        if at_tau:
            group_status, group_witness = NON_FREE, instance_witness(at_tau[0])
        elif at_minus:
            group_status, group_witness = NON_FREE, _mirrored_witness(at_minus[0])
        else:
            # no result limit: the search builds every hit before the cut
            # anyway, and _find_semigroup_witness reads all of them
            group_report = search_half_relations(
                SearchQuery(tau, effort.max_len, effort.bound, SignMode.NONZERO_ANY, None),
                workers=effort.workers,
            )
            if group_report.hits:
                group_status = NON_FREE
                group_witness = build_relation(group_report.hits[0], tau)

    if tau >= 1 or tau <= -4:
        semi_status = FREE_SCHOTTKY
    elif tau != 0:
        semi_witness = _find_semigroup_witness(tau, effort, at_tau, at_minus, group_report)
        if semi_witness is not None:
            semi_status = NON_SEMIGROUP_FREE

    # every witness was proven by its builder (build_relation,
    # build_semigroup_witness, _mirrored_witness, or family_instance's
    # identity-word check); the CLI re-checks what it prints
    return TauClassification(tau, group_status, group_witness, semi_status, semi_witness, effort)


def _find_semigroup_witness(
    tau: Fraction,
    effort: SearchEffort,
    at_tau: list[FamilyInstance],
    at_minus: list[FamilyInstance],
    group_report: Optional[SearchReport],
) -> Optional[RelationWitness]:
    """Positive words at tau, from a family member at tau and then at -tau
    (at_tau and at_minus are the lookups there), then from a search at tau
    and then at -tau.  An alternating half-relation at -tau gives positive
    words at tau.

    group_report is the unlimited NONZERO_ANY search at tau with the same
    effort, if one ran.  It holds every all-positive hit in shortlex
    order, so its first one is the first ALL_POSITIVE hit and that search
    is skipped.

    The ALTERNATING search at -tau covers odd lengths only (max_len rounded
    down to odd).  Conjugating by diag(1,-1) turns an even-length
    alternating half-relation at -tau, entry by entry in |a_i|, into an
    all-positive one at tau.  That search runs only after the all-positive
    hits at tau, with the same effort, came out empty, so it has no
    even-length hit and its first hit is unchanged."""
    sides = (
        (tau, RelationKind.SEMIGROUP_AT_TAU, SignMode.ALL_POSITIVE, at_tau),
        (-tau, RelationKind.SEMIGROUP_AT_MINUS_TAU, SignMode.ALTERNATING, at_minus),
    )
    for t, kind, _, insts in sides:
        for inst in insts:
            if not inst.exceptional and inst.kind is kind:
                return build_semigroup_witness(inst.candidate, t)
    for t, kind, mode, _ in sides:
        if mode is SignMode.ALL_POSITIVE and group_report is not None:
            report = group_report
        else:
            max_len = effort.max_len
            if mode is SignMode.ALTERNATING:
                max_len -= 1 - max_len % 2
            report = search_half_relations(
                SearchQuery(t, max_len, effort.bound, mode), workers=effort.workers
            )
        for hit in report.hits:
            if classify_signs(hit) is kind:
                return build_semigroup_witness(hit, t)
    return None
