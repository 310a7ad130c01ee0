"""Top-level classification of a rational tau: Schottky thresholds, exact
family-formula inversion, and bounded search fallback.

"Unknown" is a first-class outcome: failure to find a relation within the
effort bounds is never reported as freeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterator, Optional

from .families import FamilyInstance, family_instance, family_tau, instance_witness
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

_SIGMA_PAIRS = [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]


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


def _square_root_of(tau: Fraction) -> Optional[Fraction]:
    if tau <= 0:
        return None
    sp, sq = isqrt(tau.numerator), isqrt(tau.denominator)
    if sp * sp != tau.numerator or sq * sq != tau.denominator:
        return None
    return Fraction(sp, sq)


def _b_indices(sigma: tuple[int, int], n: int) -> list[int]:
    """The k >= 0 with family_n(sigma, k) == n: one walk of the
    u-recurrence carrying (u_k, u_{k+1}); the products grow with k."""
    c = 6 // (sigma[0] * sigma[1])
    out, k, u, u_next = [], 0, 1, 1
    while (n_k := c * u * u_next) <= n:
        if n_k == n:
            out.append(k)
        k, u, u_next = k + 1, u_next, 2 * sigma[(k + 1) % 2] * u_next - u
    return out


def _family_candidates(tau: Fraction) -> Iterator[tuple[str, int, Optional[tuple[int, int]]]]:
    """(family, k, sigma) for each member that may have this tau, found by
    inverting each family formula, in lookup order."""
    s = _square_root_of(tau)
    if s is not None:
        # family A: s = (2k-1)/(2k) in lowest terms, negative k folds (2k+1)/(2k)
        half = s.denominator // 2
        yield from (("A", half, None), ("A", -half, None))
        # family B: s = (n-1)/n, then match n against each u-sequence
        # product; family_n(sigma, -j) = family_n(swapped sigma, j)
        for sigma in _SIGMA_PAIRS:
            back = _b_indices(sigma[::-1], s.denominator)
            for k in _b_indices(sigma, s.denominator) + [-j for j in back if j > 0]:
                yield "B", k, sigma
    # family C: k = 1/(tau - 2)
    if tau != 2 and (inv := 1 / (tau - 2)).denominator == 1:
        for family in ("C_general", "C_even", "C_quad"):
            yield family, inv.numerator, None
    # families D and E: F_{k+2}/F_k and H_{k+1}/P_k are in lowest terms, so
    # |F_k| (|P_k|) is tau's denominator; walk X_{m+1} = c X_m + X_{m-1} up to
    # it; try every k = m, then every k = -m (|F_{-m}| = F_m, |P_{-m}| = P_m)
    den = tau.denominator
    for family, c, x, x_next in (("D", 1, 1, 1), ("E", 2, 1, 2)):
        ms, m = [], 1
        while x <= den:
            if x == den:
                ms.append(m)
            m, x, x_next = m + 1, x_next, c * x_next + x
        for k in ms + [-m for m in ms]:
            yield family, k, None


def family_lookup(tau: Fraction) -> list[FamilyInstance]:
    """All family instances whose tau equals the input, found by exact
    inversion of each family formula; each is verified before return."""
    out: list[FamilyInstance] = []
    for family, k, sigma in _family_candidates(tau):
        try:
            if family_tau(family, k, sigma) == tau:
                out.append(family_instance(family, k, sigma=sigma))
        except ValueError:
            pass  # k fails the family's preconditions
    return out


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
