"""Half-relation defect computation, the factored defect polynomials, and
construction of the induced group/semigroup relations.

A candidate is a plain tuple of integers (a_1, ..., a_l), used with the
implicit word g^{a_1} h^{a_2} g^{a_3} ... starting at g.  The defect is
tau*c12 - c21 for odd length and c11 - c22 for even length; it vanishes
exactly when the candidate yields the symmetric relation

    g^{a_1} h^{a_2} ... = h^{a_l} g^{a_{l-1}} ...

which is a nontrivial group relation when all a_i != 0, a semigroup
relation at tau when all a_i > 0, and a semigroup relation at -tau when
the signs alternate starting negative.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import (
    G,
    H,
    ExpWord,
    UniPoly,
    scaled_product,
    word_from_exponents,
)

Candidate = tuple[int, ...]


class RelationKind(enum.Enum):
    """As a candidate's sign class (`classify_signs`), the most specific
    relation it induces.  As a witness's kind, what the witness proves:
    a group relation at tau, a relation between positive words at tau,
    or one between positive words at -tau (word_tau); TRIVIAL proves
    nothing."""

    GROUP_NONTRIVIAL = "group_nontrivial"
    SEMIGROUP_AT_TAU = "semigroup_at_tau"
    SEMIGROUP_AT_MINUS_TAU = "semigroup_at_minus_tau"
    TRIVIAL = "trivial"


@dataclass(frozen=True)
class RelationWitness:
    """A pair of words with equal matrix value that differ in the free
    group; `check` proves both facts, and every builder returns a witness
    only once its `check` holds.

    `tau` is the parameter of the originating half-relation; `word_tau`
    is the parameter at which the two words evaluate equal (these differ
    only for the diag(1,-1)-transformed semigroup relations, whose words
    are positive words in g and h_{-tau}).
    """

    tau: Fraction
    lhs: ExpWord
    rhs: ExpWord
    kind: RelationKind

    @property
    def word_tau(self) -> Fraction:
        """-tau for SEMIGROUP_AT_MINUS_TAU, tau for every other kind."""
        return -self.tau if self.kind is RelationKind.SEMIGROUP_AT_MINUS_TAU else self.tau

    def check(self) -> bool:
        """True iff the witness proves what its kind says: lhs * rhs^{-1}
        freely reduces to a nonempty word (the relation is nontrivial) and
        both sides evaluate equal at word_tau; both semigroup kinds also
        need positive words, and TRIVIAL is never valid.  Distinct
        positive words also differ in the free group, so this is the proof
        for every kind.

        Both words are evaluated in full by `scaled_product`, and
        N_lhs / den_lhs == N_rhs / den_rhs is tested entry by entry as
        N_lhs * den_rhs == N_rhs * den_lhs: exact, with no gcd."""
        kind = self.kind
        if kind is RelationKind.TRIVIAL:
            return False
        if kind is not RelationKind.GROUP_NONTRIVIAL and not (
            self.lhs.is_positive and self.rhs.is_positive
        ):
            return False
        # free reduction with a stack: merge adjacent letters of the same
        # generator, drop a letter whose exponent is (or reaches) zero; the
        # letters of lhs, then those of rhs^-1, which is rhs read backwards
        # with each exponent negated, from rhs's end generator
        reduced: list[tuple[bool, int]] = []
        for on_g, exps in ((self.lhs.start == G, self.lhs.exponents),
                           (self.rhs.end == G, map(operator.neg, reversed(self.rhs.exponents)))):
            for a in exps:
                if reduced and reduced[-1][0] is on_g:
                    a += reduced.pop()[1]
                if a:
                    reduced.append((on_g, a))
                on_g = not on_g
        if not reduced:
            return False
        *lhs, lhs_den = scaled_product(self.lhs, self.word_tau)
        *rhs, rhs_den = scaled_product(self.rhs, self.word_tau)
        return all(x * rhs_den == y * lhs_den for x, y in zip(lhs, rhs))


def _scaled_defect(candidate: Sequence[int], tau: Fraction | int) -> tuple[int, int]:
    """The defect as an unreduced (numerator, positive denominator), read
    off the word's scaled product N / den at tau = p/q: (p*N12 - q*N21,
    q*den) for odd length, (N11 - N22, den) for even length.  An int tau
    is read as tau/1, so its denominator is 1."""
    n11, n12, n21, n22, den = scaled_product(word_from_exponents(candidate), tau)
    if len(candidate) % 2 == 1:
        p, q = tau.numerator, tau.denominator
        return p * n12 - q * n21, q * den
    return n11 - n22, den


def defect(candidate: Sequence[int], tau: Fraction) -> Fraction:
    """tau*c12 - c21 (odd length) or c11 - c22 (even length) of the word."""
    return Fraction(*_scaled_defect(candidate, tau))


def symbolic_defect(candidate: Sequence[int]) -> UniPoly:
    """The defect as a polynomial in tau, read off the integer kernel by
    Kronecker substitution: the integer defect D(t) = `_scaled_defect` at
    tau = t = 2^K with K = 2 + sum of bit_length(|a_i| + 1) is split into
    balanced base-t digits, which are the coefficients.

    Exact, because every coefficient is below t/2 in absolute value.  The
    1-norm of the coefficients is submultiplicative, so the entries of a
    product are bounded entrywise by the product of the entrywise bounds
    of its factors: (1 |a|; 0 1) for g^a and (1 0; |a| 1) for h^a.  The
    largest row sum of nonnegative matrices is submultiplicative and is
    1 + |a| for each factor, so every entry of the word's matrix has
    1-norm at most prod(1 + |a_i|) < 2^(K-2), and the defect, a difference
    of two entries (one times tau), has 1-norm < 2^(K-1) = t/2.
    `eval_word_symbolic`, the `Mat2` product of `gen_power` letters in the
    polynomial ring, which never runs the kernel, is the tests' reference."""
    shift = 2 + sum((abs(a) + 1).bit_length() for a in candidate)
    t = 1 << shift
    d, _ = _scaled_defect(candidate, t)  # den = 1 at an int tau
    half, mask, coeffs = t >> 1, t - 1, []
    while d:
        c = ((d + half) & mask) - half  # the digit in [-t/2, t/2)
        coeffs.append(c)
        d = (d - c) >> shift
    return UniPoly(tuple(coeffs))


def poly_hr(candidate: Sequence[int]) -> UniPoly:
    """The defect polynomial with the universal factor tau divided out.

    Raises ArithmeticError if the symbolic defect has a nonzero constant
    term, which would contradict the divisibility of the defect by tau.
    """
    return symbolic_defect(candidate).divide_by_var()


def is_half_relation(candidate: Sequence[int], tau: Fraction) -> bool:
    """defect(candidate, tau) == 0, tested on the unreduced integers."""
    return _scaled_defect(candidate, tau)[0] == 0


def negate(candidate: Sequence[int]) -> Candidate:
    return tuple(map(operator.neg, candidate))


def is_alternating(candidate: Sequence[int]) -> bool:
    """True iff (-1)^i a_i > 0 for all i (1-indexed): odd positions negative."""
    return all(a < 0 if i % 2 == 0 else a > 0 for i, a in enumerate(candidate))


def classify_signs(candidate: Sequence[int]) -> RelationKind:
    """Most specific sign classification; alternating patterns are accepted
    in either orientation (the negation of a half-relation is one too)."""
    if any(a == 0 for a in candidate):
        return RelationKind.TRIVIAL
    if all(a > 0 for a in candidate):
        return RelationKind.SEMIGROUP_AT_TAU
    if is_alternating(candidate) or is_alternating(negate(candidate)):
        return RelationKind.SEMIGROUP_AT_MINUS_TAU
    return RelationKind.GROUP_NONTRIVIAL


def relation_words(candidate: Sequence[int]) -> tuple[ExpWord, ExpWord]:
    """The two sides of the symmetric relation induced by a half-relation."""
    exps = tuple(candidate)
    return ExpWord(G, exps), ExpWord(H, tuple(reversed(exps)))


def relator(candidate: Sequence[int]) -> ExpWord:
    """lhs * rhs^{-1}; evaluates to the identity iff the candidate is a
    half-relation (and tau != 0 for odd length)."""
    lhs, rhs = relation_words(candidate)
    return lhs.concat(rhs.inverse())


def minus_tau_transform(word: ExpWord) -> ExpWord:
    """Conjugation by diag(1,-1): g^a -> g^{-a} and h_tau^b -> h_{-tau}^b.

    The result is a word whose evaluation at -tau equals diag(1,-1) *
    eval(word, tau) * diag(1,-1).
    """
    exps = []
    for tag, a in word.letters():
        exps.append(-a if tag == G else a)
    return ExpWord(word.start, tuple(exps))


def _gated(candidate: Sequence[int], tau: Fraction) -> Candidate:
    """The candidate as a tuple; rejects tau = 0 (for which the odd-length
    symmetry argument degenerates) and candidates with a zero entry (of
    kind TRIVIAL; their two sides may reduce to the same word)."""
    exps = tuple(candidate)
    if tau == 0:
        raise ValueError("tau = 0 is degenerate; no relation is built")
    if 0 in exps:
        raise ValueError(f"{exps} has a zero entry; no relation is built")
    return exps


def _proven(witness: RelationWitness, exps: Candidate) -> RelationWitness:
    """The witness, if its check holds; past the gates, it fails exactly
    when exps is not a half-relation for witness.tau."""
    if not witness.check():
        raise ValueError(f"{exps} is not a half-relation for tau = {witness.tau}")
    return witness


def build_relation(candidate: Sequence[int], tau: Fraction) -> RelationWitness:
    """Build and verify the symmetric relation induced by a half-relation.

    Rejects tau = 0, candidates with a zero entry, and candidates that are
    not half-relations for tau.  The witness's `check` is the one proof:
    M(rhs) is diag(1,tau) M(lhs)^T diag(1,tau)^-1 for odd length and
    M(lhs) with its diagonal swapped for even length, so M(lhs) == M(rhs)
    exactly when the defect vanishes, and with no zero entry
    lhs * rhs^{-1} does not cancel where the two sides meet.
    The witness is of kind SEMIGROUP_AT_TAU when both words are positive
    and GROUP_NONTRIVIAL otherwise; an alternating candidate's positive
    words at -tau come from `build_semigroup_witness`.
    """
    exps = _gated(candidate, tau)
    lhs, rhs = relation_words(exps)
    kind = RelationKind.SEMIGROUP_AT_TAU if lhs.is_positive else RelationKind.GROUP_NONTRIVIAL
    return _proven(RelationWitness(tau, lhs, rhs, kind), exps)


def build_semigroup_witness(candidate: Sequence[int], tau: Fraction) -> RelationWitness:
    """Turn a suitably signed half-relation into a pair of equal positive words.

    All-positive candidates give the symmetric relation at tau directly.
    Alternating candidates are conjugated letterwise by diag(1,-1), which
    negates g-exponents and flips the sign of tau, yielding two positive
    words in g and h_{-tau}; for odd length the symmetric pair is not
    positive on both sides, so the relation is presented as (w * g, g)
    where w is the (positive) conjugated relator.  The witness's `check`
    at -tau is the one proof, as in `build_relation`.
    """
    kind = classify_signs(candidate)
    if kind is RelationKind.SEMIGROUP_AT_TAU:
        return build_relation(candidate, tau)
    exps = _gated(candidate, tau)
    if kind is not RelationKind.SEMIGROUP_AT_MINUS_TAU:
        raise ValueError(
            f"{exps} has mixed signs ({kind.value}); no semigroup relation"
        )
    alt = exps if is_alternating(exps) else negate(exps)  # odd positions negative
    if len(alt) % 2 == 0:
        lhs, rhs = (minus_tau_transform(w) for w in relation_words(alt))
    else:
        # conjugated relator: positive word equal to Id at -tau
        rhs = ExpWord(G, (1,))
        lhs = minus_tau_transform(relator(alt)).concat(rhs)
    return _proven(RelationWitness(tau, lhs, rhs, RelationKind.SEMIGROUP_AT_MINUS_TAU), exps)
