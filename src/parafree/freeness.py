"""Top-level classification of a rational tau: the Schottky thresholds
(|tau| >= 4 makes the group free, tau >= 1 the semigroup, and tau <= -4 the
semigroup through the free group at |tau|), then one ordered stream of
verified witnesses at tau for the sides they leave open.

One rule reads the stream: the first witness settles the group, and the
first one whose kind is not GROUP_NONTRIVIAL (positive words, which are a
group relation too) also settles the semigroup.  The stream, in order:
the family members at |tau|, since every family tau is positive
(`families.family_lookup`), those at -tau mirrored to a group relation
at tau and, when alternating, turned into positive words at tau; the
search at tau (NONZERO_ANY while the group is open, ALL_POSITIVE
otherwise); for tau < 0, the odd-length ALTERNATING search at -tau.
The group is never searched at -tau.  The stream takes only tau and the
effort: it holds the group open until its first witness, and its reader
closes it once the semigroup is settled.

A search walks the lengths `search.lengths_to_walk` leaves it (the
ALTERNATING one its odd ones), if any, in ascending order, and reads
each length's least hit and least all-positive hit off
`search.least_hits_by_length`: the first hit and the first all-positive
hit that the sorted hits of the length would give, with no set and no
sort.  It stops, its pool shut down, once no side is open.

Before the stream is built, `classify_tau` decides from the integers p
and q whether any phase can yield, with short circuit: a family
candidate at |tau| (`families._family_candidates`), then the lengths at
tau.  The lengths at -tau need no test of their own: the gates read |p|
only, so they are those at tau, and the stream reads them once.  When
neither test passes, it returns the thresholds' classification at once:
no lookup, no stream and no Fraction comparison.

"Unknown" is a first-class outcome: failure to find a relation within the
effort bounds is never reported as freeness."""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .exact import check_tau
from .families import (
    FamilyInstance,
    _family_candidates,
    family_lookup,
    instance_witness,
    instance_words,
)
from .halfrel import (
    RelationKind,
    RelationWitness,
    build_relation,
    build_semigroup_witness,
    minus_tau_transform,
)
from .search import SignMode, check_effort, least_hits_by_length, lengths_to_walk

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
        check_effort(self.max_len, self.bound, self.workers)


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
    one at -inst.tau; its own check at -inst.tau is the one proof."""
    lhs, rhs = (minus_tau_transform(w) for w in instance_words(inst))
    new = RelationWitness(-inst.tau, lhs, rhs, RelationKind.GROUP_NONTRIVIAL)
    if not new.check():
        raise AssertionError("minus-tau rewrite failed to verify")
    return new


def classify_tau(tau: Fraction, effort: SearchEffort = SearchEffort()) -> TauClassification:
    """Classify the group and semigroup at tau: the Schottky thresholds,
    then the first witnesses of `_witnesses` that settle each open side.
    TypeError unless tau is an int or a Fraction (`exact.check_tau`)."""
    check_tau(tau)
    p, q = tau.numerator, tau.denominator
    group_free = abs(p) >= 4 * q
    semi_free = p >= q or p <= -4 * q
    group = semi = None
    # whether a phase can yield, from p and q (module docstring); a free
    # group frees the semigroup too, so no side is open then
    if p and not group_free and (_family_candidates(abs(p), q)
                                 or lengths_to_walk(p, q, effort.max_len, effort.bound)):
        # every witness was proven by its builder (build_relation,
        # build_semigroup_witness, _mirrored_witness, or family_instance's
        # identity-word check); the CLI re-checks what it prints
        # closing the stream stops the walk it is in and shuts its pool down
        with closing(_witnesses(tau, effort)) as stream:
            for w in stream:
                if group is None:
                    group = w
                if not semi_free and w.kind is not RelationKind.GROUP_NONTRIVIAL:
                    semi = w
                if semi_free or semi is not None:
                    break
    return TauClassification(
        tau,
        FREE_SCHOTTKY if group_free else UNKNOWN if group is None else NON_FREE,
        group,
        FREE_SCHOTTKY if semi_free else UNKNOWN if semi is None else NON_SEMIGROUP_FREE,
        semi,
        effort,
    )


def _witnesses(tau: Fraction, effort: SearchEffort) -> Iterator[RelationWitness]:
    """Verified witnesses at tau, in the order of the module docstring,
    for a reader that stops once the semigroup is settled.  The group is
    open until the first witness, which settles it, so after it only
    witnesses that can settle the semigroup are built: positive words.
    The family lookup, at |tau|, and the lengths, the same at tau and
    -tau, are each read once; the sign of tau picks only how a member is
    turned into a witness at tau and whether the alternating search runs.

    The alternating search at -tau runs only for tau < 0: for tau > 0 an
    odd-length hit would give a nonempty positive word in g and h_tau
    equal to the identity, and every such product of these nonnegative
    unipotent matrices has a positive off-diagonal entry."""
    group, at = True, abs(tau)
    positive = RelationKind.SEMIGROUP_AT_TAU if tau > 0 else RelationKind.SEMIGROUP_AT_MINUS_TAU
    for inst in family_lookup(at):  # every family tau is positive (`family_lookup`)
        if group:
            group = False
            yield instance_witness(inst) if tau > 0 else _mirrored_witness(inst)
        if inst.kind is positive:
            yield build_semigroup_witness(inst.candidate, at)
    p, q, bound, workers = tau.numerator, tau.denominator, effort.bound, effort.workers
    if lengths := lengths_to_walk(p, q, effort.max_len, bound):
        # while the group is open, NONZERO_ANY: its all-positive hits are
        # those of ALL_POSITIVE
        mode = SignMode.NONZERO_ANY if group else SignMode.ALL_POSITIVE
        # an open group takes a length's least hit and the semigroup its
        # least all-positive hit: the first of each in its sorted hits
        with closing(least_hits_by_length(tau, lengths, bound, mode, workers)) as pairs:
            for least, least_positive in pairs:
                if group and least is not None:
                    group = False
                    yield build_relation(least, tau)
                if least_positive is not None:
                    yield build_relation(least_positive, tau)
    # Odd lengths only: conjugating by diag(1,-1) turns an even-length
    # alternating half-relation at -tau, entry by entry in |a_i|, into an
    # all-positive one at tau, and the search at tau has just found none at
    # these even lengths.  The lengths at -tau are those at tau.
    if tau < 0 and (odd := [l for l in lengths if l % 2]):
        with closing(least_hits_by_length(at, odd, bound, SignMode.ALTERNATING, workers)) as pairs:
            hit = next((least for least, _ in pairs if least is not None), None)
        if hit is not None:
            yield build_semigroup_witness(hit, at)
