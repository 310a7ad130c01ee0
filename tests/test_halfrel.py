"""Tests for half-relations: defects, sign classification, the induced
symmetric relations and the semigroup transformations."""

import dataclasses
import itertools
import random
import unittest.mock
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import parafree.freeness as freeness
import parafree.halfrel as halfrel
from parafree.exact import (
    ExpWord,
    G,
    H,
    Mat2,
    UniPoly,
    eval_word,
    eval_word_symbolic,
    gen_power,
    scaled_product,
    word_from_exponents,
)
from parafree.halfrel import (
    RelationKind,
    RelationWitness,
    build_relation,
    build_semigroup_witness,
    classify_signs,
    defect,
    is_alternating,
    is_half_relation,
    minus_tau_transform,
    negate,
    poly_hr,
    relation_words,
    relator,
    symbolic_defect,
)
from parafree.families import _member, family_lookup, family_tau, instance_witness
from parafree.search import SearchQuery, SignMode, search_half_relations

rng = random.Random(8241)

KNOWN = [
    # (candidate, tau) pairs that are half-relations
    ((1, -1, 1, 14, 2), Fraction(9, 4)),
    ((1, -1, 1, -1, -4), Fraction(5, 2)),       # family D, k=3
    ((1, 3, 50, 1), Fraction(16, 25)),          # family B, sigma=(2,3), k=1
    ((1, 0, -1, 5), Fraction(7, 5)),            # trivial (zero entry)
    ((1, -2, -5, 4), Fraction(7, 10)),
]


def rand_candidate(max_len=6, bound=8):
    l = rng.randint(1, max_len)
    return tuple(rng.randint(-bound, bound) for _ in range(l))


def rand_tau():
    return Fraction(rng.randint(-20, 20), rng.randint(1, 10))


# --- defect ------------------------------------------------------------

def test_defect_against_direct_matrix_entries():
    for _ in range(200):
        cand, tau = rand_candidate(), rand_tau()
        m = eval_word(word_from_exponents(cand), tau)
        if len(cand) % 2 == 1:
            assert defect(cand, tau) == tau * m.e12 - m.e21
        else:
            assert defect(cand, tau) == m.e11 - m.e22


def test_known_half_relations():
    for cand, tau in KNOWN:
        assert defect(cand, tau) == 0
        assert is_half_relation(cand, tau)


def test_non_half_relation():
    assert defect((1, 1, 1), Fraction(2)) == 6
    assert not is_half_relation((1, 1, 1), Fraction(2))


def test_symbolic_defect_matches_numeric():
    for _ in range(100):
        cand = rand_candidate()
        p = symbolic_defect(cand)
        for _ in range(3):
            tau = rand_tau()
            assert p.evaluate(tau) == defect(cand, tau)


def test_defect_divisible_by_tau():
    # the defect polynomial always has zero constant term
    for _ in range(200):
        cand = rand_candidate()
        p = symbolic_defect(cand)
        assert p.is_zero or p.coeffs[0] == 0
        q = poly_hr(cand)
        tau = rand_tau()
        assert tau * q.evaluate(tau) == defect(cand, tau)


def test_reversal_keeps_the_defect_polynomial():
    # the reversal's matrix is S M^T S^-1 (even length, S = diag(1, tau))
    # or J M^T J (odd length, J = (0 1; 1 0)), which keep the defect, so
    # the search may walk only |a_1| <= |a_l|
    for _ in range(300):
        cand = rand_candidate(max_len=9)
        assert symbolic_defect(cand[::-1]) == symbolic_defect(cand), cand


def test_poly_hr_small_cases():
    assert poly_hr((5,)) == UniPoly((5,))                   # P_1 = a_1
    assert poly_hr((3, 4)) == UniPoly((12,))                # P_2 = a_1 a_2
    assert poly_hr((1, -1, 1, -1, 7)) == UniPoly((11, -23, 7))


TAU = sympy.Symbol("tau")


def sympy_defect(candidate):
    """The defect of the candidate's word, expanded by sympy."""
    m = sympy.eye(2)
    for i, a in enumerate(candidate):
        m = m * (sympy.Matrix([[1, a], [0, 1]]) if i % 2 == 0
                 else sympy.Matrix([[1, 0], [a * TAU, 1]]))
    if len(candidate) % 2 == 1:
        return TAU * m[0, 1] - m[1, 0]
    return m[0, 0] - m[1, 1]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
def test_poly_hr_matches_sympy(candidate):
    expected = sympy.Poly(sympy.cancel(sympy_defect(candidate) / TAU), TAU)
    coeffs = tuple(int(c) for c in reversed(expected.all_coeffs()))
    assert poly_hr(candidate) == UniPoly(coeffs)


def reference_symbolic_defect(candidate):
    """The defect from the word's product in the polynomial ring."""
    m = eval_word_symbolic(word_from_exponents(candidate))
    return UniPoly.var() * m.e12 - m.e21 if len(candidate) % 2 == 1 else m.e11 - m.e22


# small exponents, and exponents at the digit boundaries +-(2^j - 1), +-2^j
# of symbolic_defect's base 2^K, K = 2 + sum of bit_length(|a_i| + 1)
KRONECKER_EXPONENTS = st.one_of(
    st.integers(-9, 9),
    st.builds(lambda j, d, sign: sign * ((1 << j) - d),
              st.integers(0, 200), st.sampled_from([0, 1]), st.sampled_from([1, -1])),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(KRONECKER_EXPONENTS, min_size=1, max_size=12))
def test_symbolic_defect_matches_the_polynomial_product(candidate):
    assert symbolic_defect(candidate) == reference_symbolic_defect(candidate)


def _sweep_candidates():
    """Every family candidate at |k| <= 40 and |k| in {299, 300}: B at all
    six sigma, E with both signs of x."""
    ks = [*range(-40, 41), -300, -299, 299, 300]
    options = [("A", None), ("C_general", None), ("C_even", None), ("C_quad", None),
               ("D", None), ("E", None)]
    options += [("B", s) for s in [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]]
    out = []
    for family, sigma in options:
        for k in ks:
            try:
                cand = _member(family, k, sigma).candidate
            except ValueError:
                continue  # k fails the family's preconditions
            out.append(cand)
            if family == "E":
                out.append(cand[:-1] + (-cand[-1],))  # the other sign of x
    return out


def test_symbolic_defect_on_every_family_candidate():
    cands = _sweep_candidates()
    assert len(cands) > 900
    for cand in cands:
        assert symbolic_defect(cand) == reference_symbolic_defect(cand), cand


def test_negation_preserves_half_relations():
    for cand, tau in KNOWN:
        assert is_half_relation(negate(cand), tau)
    for _ in range(100):
        cand, tau = rand_candidate(), rand_tau()
        sign = -1 if len(cand) % 2 == 1 else 1
        assert defect(negate(cand), tau) == sign * defect(cand, tau)


# --- sign classification -----------------------------------------------

def test_classify_signs():
    assert classify_signs((1, 2, 3)) is RelationKind.SEMIGROUP_AT_TAU
    assert classify_signs((-1, 2, -3)) is RelationKind.SEMIGROUP_AT_MINUS_TAU
    assert classify_signs((1, -2, 3)) is RelationKind.SEMIGROUP_AT_MINUS_TAU
    assert classify_signs((1, -1, 1, 14, 2)) is RelationKind.GROUP_NONTRIVIAL
    assert classify_signs((1, 0, 1)) is RelationKind.TRIVIAL


def test_is_alternating_orientation():
    assert is_alternating((-1, 2, -3))
    assert not is_alternating((1, -2, 3))
    assert is_alternating(negate((1, -2, 3)))


# --- relation words and relator ----------------------------------------

def test_relation_words_shape():
    lhs, rhs = relation_words((1, -1, 1, 14, 2))
    assert lhs == ExpWord(G, (1, -1, 1, 14, 2))
    assert rhs == ExpWord(H, (2, 14, 1, -1, 1))


def test_relation_holds_exactly_for_half_relations():
    for cand, tau in KNOWN:
        if tau == 0 or any(a == 0 for a in cand):
            continue
        lhs, rhs = relation_words(cand)
        assert eval_word(lhs, tau) == eval_word(rhs, tau)
        assert eval_word(relator(cand), tau).is_identity()


def test_relation_fails_for_non_half_relations():
    cand, tau = (1, 1, 1), Fraction(2)
    lhs, rhs = relation_words(cand)
    assert eval_word(lhs, tau) != eval_word(rhs, tau)


def test_odd_involution_swaps_sides():
    # for odd length, M -> diag(1,tau) M^T diag(1,tau)^-1 sends the word
    # g^{a1} h^{a2} ... g^{al} to h^{a_l} ... g^{a2} h^{a1}-style reversal,
    # i.e. lhs to rhs, for every word (not only half-relations)
    for _ in range(100):
        l = rng.choice([1, 3, 5])
        cand = tuple(rng.randint(-6, 6) for _ in range(l))
        tau = rand_tau()
        if tau == 0:
            continue
        d = Mat2(Fraction(1), Fraction(0), Fraction(0), tau)
        lhs, rhs = relation_words(cand)
        m = eval_word(lhs, tau)
        assert d * m.transpose() * d.inverse() == eval_word(rhs, tau)


def test_even_involution_fixes_generators():
    # the anti-involution M -> diag(1,-1) M^-1 diag(1,-1) fixes every
    # generator power, hence reverses-and-inverts any word letterwise
    j = Mat2(Fraction(1), Fraction(0), Fraction(0), Fraction(-1))
    tau = Fraction(5, 7)
    for tag, a in [(G, 3), (G, -1), (H, -2), (H, 4)]:
        m = eval_word(ExpWord(tag, (a,)), tau)
        assert j * m.inverse() * j == m
    # consequence for an even-length word: the map sends the word with
    # exponents (a_1..a_l) to the reversed word starting from the other
    # generator with the same exponents
    for _ in range(50):
        l = rng.choice([2, 4, 6])
        cand = tuple(rng.randint(-6, 6) or 1 for _ in range(l))
        w = ExpWord(G, cand)
        m = eval_word(w, tau)
        rev = ExpWord(H, tuple(reversed(cand)))
        assert j * m.inverse() * j == eval_word(rev.inverse(), tau).inverse()


def test_minus_tau_transform_conjugation():
    j = Mat2(Fraction(1), Fraction(0), Fraction(0), Fraction(-1))
    for _ in range(100):
        l = rng.randint(1, 6)
        w = ExpWord(rng.choice([G, H]),
                    tuple(rng.randint(-6, 6) or 1 for _ in range(l)))
        tau = rand_tau()
        assert eval_word(minus_tau_transform(w), -tau) == \
            j * eval_word(w, tau) * j


# --- witness construction ----------------------------------------------

def test_build_relation_verified():
    w = build_relation((1, -1, 1, 14, 2), Fraction(9, 4))
    assert w.check()
    assert w.kind is RelationKind.GROUP_NONTRIVIAL
    assert w.word_tau == w.tau == Fraction(9, 4)


def test_build_relation_rejections():
    with pytest.raises(ValueError):
        build_relation((1, 1, 1), Fraction(2))      # not a half-relation
    with pytest.raises(ValueError):
        build_relation((1, 0, -1), Fraction(0))     # tau = 0 degenerate


def test_build_relation_evaluates_two_words(monkeypatch):
    # the witness's check is the one proof: M(lhs) and M(rhs), once each
    evaluated = []

    def spy(word, tau):
        evaluated.append(word)
        return scaled_product(word, tau)

    monkeypatch.setattr(halfrel, "scaled_product", spy)
    w = build_relation((1, -1, 1, 14, 2), Fraction(9, 4))
    assert evaluated == [w.lhs, w.rhs]
    evaluated.clear()
    with pytest.raises(ValueError, match="not a half-relation"):
        build_relation((1, 1, 1), Fraction(2))
    assert evaluated == list(relation_words((1, 1, 1)))


def test_semigroup_witness_positive():
    w = build_semigroup_witness((1, 3, 50, 1), Fraction(16, 25))
    assert w.kind is RelationKind.SEMIGROUP_AT_TAU
    assert w.word_tau == Fraction(16, 25)
    assert w.lhs.is_positive and w.rhs.is_positive
    assert w.check()


def test_semigroup_witness_alternating_even():
    # sign-flipped family B member: alternating at -16/25, so the
    # transformed pair is positive at +16/25
    cand, tau = (-1, 3, -50, 1), Fraction(-16, 25)
    assert is_half_relation(cand, tau)
    assert classify_signs(cand) is RelationKind.SEMIGROUP_AT_MINUS_TAU
    w = build_semigroup_witness(cand, tau)
    assert w.word_tau == Fraction(16, 25)
    assert w.lhs.is_positive and w.rhs.is_positive
    assert w.check()


def test_semigroup_witness_alternating_odd():
    # family D k=2 candidate at tau = 3; odd length goes through the
    # conjugated relator and the pair (w*g, g)
    cand, tau = (1, -1, 1, -1, 2), Fraction(3)
    assert is_half_relation(cand, tau)
    assert classify_signs(cand) is RelationKind.SEMIGROUP_AT_MINUS_TAU
    w = build_semigroup_witness(cand, tau)
    assert w.word_tau == Fraction(-3)
    assert w.lhs.is_positive and w.rhs.is_positive
    assert w.rhs == ExpWord(G, (1,))
    assert w.check()


def test_semigroup_witness_rejects_mixed_signs():
    with pytest.raises(ValueError):
        build_semigroup_witness((1, -1, 1, 14, 2), Fraction(9, 4))


def test_witness_check_detects_forgery():
    fake = RelationWitness(
        Fraction(2), ExpWord(G, (1,)), ExpWord(G, (2,)),
        RelationKind.GROUP_NONTRIVIAL,
    )
    assert not fake.check()
    # equal matrices, but lhs * rhs^{-1} freely reduces to the empty word
    g1h2 = ExpWord(G, (1, 2))
    trivial_pairs = [
        (g1h2, g1h2),
        (g1h2, ExpWord(G, (1, 2, 0))),            # g^0 appended
        (ExpWord(H, (2, 1)), ExpWord(G, (0, 2, 1))),  # g^0 in front
    ]
    for lhs, rhs in trivial_pairs:
        for kind in RelationKind:
            w = RelationWitness(Fraction(1, 3), lhs, rhs, kind)
            assert eval_word(lhs, w.tau) == eval_word(rhs, w.tau)
            assert not w.check()
    # a half-relation with a zero entry would give a trivial relation (both
    # sides reduce to h^5), so the builder refuses it
    assert is_half_relation((1, 0, -1, 5), Fraction(7, 5))
    with pytest.raises(ValueError, match="zero entry"):
        build_relation((1, 0, -1, 5), Fraction(7, 5))


def test_build_relation_kind_is_what_the_words_prove():
    # an alternating candidate's symmetric words are not positive: they
    # prove a group relation at tau; its positive words at -tau come from
    # build_semigroup_witness
    cand, tau = (1, -1, 1, -1, 2), Fraction(3)
    assert classify_signs(cand) is RelationKind.SEMIGROUP_AT_MINUS_TAU
    w = build_relation(cand, tau)
    assert w.kind is RelationKind.GROUP_NONTRIVIAL and w.check()
    assert build_semigroup_witness(cand, tau).kind is RelationKind.SEMIGROUP_AT_MINUS_TAU
    w = build_relation((1, 3, 50, 1), Fraction(16, 25))
    assert w.kind is RelationKind.SEMIGROUP_AT_TAU and w.check()
    w = build_relation((1, -1, -2, 24), Fraction(9, 16))
    assert w.kind is RelationKind.GROUP_NONTRIVIAL and w.check()


def proves(build, cand, tau):
    """True if build returns a checked witness, False if it refuses cand
    as no half-relation."""
    try:
        w = build(cand, tau)
    except ValueError as exc:
        assert "not a half-relation" in str(exc), (cand, tau)
        return False
    assert w.check(), (cand, tau)
    return True


def test_builders_prove_exactly_the_half_relations():
    # past the gates, a witness's check is the defect test (the two
    # involution tests above give M(rhs) from M(lhs) for every word), so a
    # builder returns a witness exactly for the half-relations
    local = random.Random(5876)
    grid = [Fraction(p, q) for q in range(1, 13) for p in range(-4 * q + 1, 4 * q)
            if p and gcd(p, q) == 1]
    for tau in local.sample(grid, 30):
        hits = search_half_relations(SearchQuery(tau, 6, 5, SignMode.NONZERO_ANY, None)).hits
        drawn = [tuple(local.choice([-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6])
                       for _ in range(local.randint(1, 7))) for _ in range(400)]
        for cand in (*hits, *drawn):
            half = defect(cand, tau) == 0
            assert proves(build_relation, cand, tau) == half, (cand, tau)
            if classify_signs(cand) is RelationKind.SEMIGROUP_AT_MINUS_TAU:
                assert proves(build_semigroup_witness, cand, tau) == half, (cand, tau)


def test_witness_check_holds_the_kind_to_its_claim():
    kinds = RelationKind
    tau = Fraction(9, 16)
    mixed = build_relation((1, -1, -2, 24), tau)
    # a group relation is one at tau itself
    assert RelationWitness(tau, mixed.lhs, mixed.rhs, kinds.GROUP_NONTRIVIAL).check()
    assert not RelationWitness(-tau, mixed.lhs, mixed.rhs, kinds.GROUP_NONTRIVIAL).check()
    # the semigroup kinds need positive words
    assert not RelationWitness(tau, mixed.lhs, mixed.rhs, kinds.SEMIGROUP_AT_TAU).check()
    # positive words at -3, from the alternating candidate at 3
    semi = build_semigroup_witness((1, -1, 1, -1, 2), Fraction(3))
    assert semi.word_tau == Fraction(-3) and semi.check()
    assert RelationWitness(Fraction(-3), semi.lhs, semi.rhs, kinds.SEMIGROUP_AT_TAU).check()
    # SEMIGROUP_AT_TAU is at tau, SEMIGROUP_AT_MINUS_TAU at -tau
    assert not RelationWitness(Fraction(3), semi.lhs, semi.rhs, kinds.SEMIGROUP_AT_TAU).check()
    assert not RelationWitness(Fraction(-3), semi.lhs, semi.rhs,
                               kinds.SEMIGROUP_AT_MINUS_TAU).check()
    # conjugated non-positive words are equal at -tau, but no semigroup relation
    group = build_relation((1, -1, 1, -1, 2), Fraction(3))
    lhs, rhs = minus_tau_transform(group.lhs), minus_tau_transform(group.rhs)
    assert RelationWitness(Fraction(-3), lhs, rhs, kinds.GROUP_NONTRIVIAL).check()
    assert not RelationWitness(Fraction(3), lhs, rhs, kinds.SEMIGROUP_AT_MINUS_TAU).check()
    # TRIVIAL proves nothing, whatever its words
    positive = build_relation((1, 3, 50, 1), Fraction(16, 25))
    for w in (mixed, semi, group, positive):
        assert not RelationWitness(w.tau, w.lhs, w.rhs, kinds.TRIVIAL).check()
    # word_tau is read off the kind: -tau exactly for SEMIGROUP_AT_MINUS_TAU
    for kind in kinds:
        w = RelationWitness(tau, mixed.lhs, mixed.rhs, kind)
        assert w.word_tau == (-tau if kind is kinds.SEMIGROUP_AT_MINUS_TAU else tau)


# --- the integer proofs against the Fraction matrices ------------------

def _members(family, ks, sigma=None):
    out = []
    for k in ks:
        try:
            out.append(family_tau(family, k, sigma))
        except ValueError:
            continue
    return out


# D and E members with q <= 10^6, and B members with n <= 1000, both signs
MEMBER_TAUS = [sign * tau for tau in (
    _members("D", range(-30, 31)) + _members("E", range(-15, 16))
    + [t for sigma in [(1, 2), (1, 3), (2, 3)] for t in _members("B", range(-4, 5), sigma)
       if t.denominator <= 10**6]
) for sign in (1, -1)]
PROOF_TAUS = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.fractions(min_value=-30, max_value=30, max_denominator=10**6),
    st.sampled_from(MEMBER_TAUS),
).filter(bool)


def freely_nonempty(lhs: ExpWord, rhs: ExpWord) -> bool:
    """True iff lhs * rhs^-1 is not the empty word once neighbouring
    syllables of one generator are merged and zero syllables dropped,
    repeated until nothing changes."""
    syllables = list(lhs.letters()) + list(rhs.inverse().letters())
    changed = True
    while changed:
        syllables = [(tag, a) for tag, a in syllables if a != 0]
        changed = False
        for i in range(len(syllables) - 1):
            if syllables[i][0] == syllables[i + 1][0]:
                syllables[i:i + 2] = [(syllables[i][0], syllables[i][1] + syllables[i + 1][1])]
                changed = True
                break
    return bool(syllables)


def reference_check(w: RelationWitness) -> bool:
    """What check() proves, from the reduced Fraction matrices."""
    if w.kind is RelationKind.TRIVIAL:
        return False
    if w.kind is not RelationKind.GROUP_NONTRIVIAL and not (
        w.lhs.is_positive and w.rhs.is_positive
    ):
        return False
    return freely_nonempty(w.lhs, w.rhs) and (
        eval_word(w.lhs, w.word_tau) == eval_word(w.rhs, w.word_tau)
    )


@settings(max_examples=150, deadline=None)
@given(tau=PROOF_TAUS, data=st.data())
def test_check_agrees_with_the_fraction_matrices(tau, data):
    # genuine witnesses: NONZERO_ANY hits, their semigroup words, and the
    # family members at tau and mirrored from -tau; forgeries: each with
    # one exponent bumped by +-1, and the symmetric pair of a random tuple
    hits = search_half_relations(SearchQuery(tau, 5, 4, SignMode.NONZERO_ANY, 40)).hits
    witnesses = [build_relation(h, tau) for h in hits]
    witnesses += [build_semigroup_witness(h, tau) for h in hits
                  if classify_signs(h) is RelationKind.SEMIGROUP_AT_MINUS_TAU]
    witnesses += [instance_witness(inst) for inst in family_lookup(tau)]
    witnesses += [freeness._mirrored_witness(inst) for inst in family_lookup(-tau)]
    forged = []
    for w in witnesses:
        side = data.draw(st.sampled_from(["lhs", "rhs"]))
        word = getattr(w, side)
        i = data.draw(st.integers(0, len(word) - 1))
        exps = list(word.exponents)
        exps[i] += data.draw(st.sampled_from([-1, 1]))
        forged.append(dataclasses.replace(w, **{side: ExpWord(word.start, tuple(exps))}))
    cand = data.draw(st.lists(st.integers(-5, 5), min_size=1, max_size=6))
    kind = data.draw(st.sampled_from(list(RelationKind)))
    forged.append(RelationWitness(tau, *relation_words(cand), kind))
    for w in witnesses:
        assert w.check()
    for w in witnesses + forged:
        assert w.check() == reference_check(w), w


def stack_nonempty(lhs: ExpWord, rhs: ExpWord) -> bool:
    """The free reduction of lhs * rhs^-1 with a stack over the letters of
    lhs and of the `ExpWord` rhs.inverse(): merge a letter into an equal
    generator on top, drop it once its exponent is zero."""
    reduced = []
    for tag, a in itertools.chain(lhs.letters(), rhs.inverse().letters()):
        if reduced and reduced[-1][0] == tag:
            a += reduced.pop()[1]
        if a != 0:
            reduced.append((tag, a))
    return bool(reduced)


EXP_WORDS = st.builds(ExpWord, st.sampled_from([G, H]),
                      st.lists(st.integers(-3, 3), min_size=1, max_size=8).map(tuple))


@settings(max_examples=400, deadline=None)
@given(lhs=EXP_WORDS, rhs=EXP_WORDS, equal=st.booleans())
def test_check_reduces_on_the_exponent_tuples(lhs, rhs, equal):
    # with both words' products stubbed equal, check() is the nontriviality
    # decision alone; random pairs with zero exponents, both starts and
    # equal words, against the stack over letters() and inverse()
    if equal:
        rhs = lhs
    one = (1, 0, 0, 1, 1)
    with unittest.mock.patch.object(halfrel, "scaled_product", lambda word, tau: one):
        got = RelationWitness(Fraction(1), lhs, rhs, RelationKind.GROUP_NONTRIVIAL).check()
    assert got == stack_nonempty(lhs, rhs) == freely_nonempty(lhs, rhs)


# half-relations at a few small tau, for the positive side of the zero test
HALF_RELATIONS = [
    (hit, tau) for tau in map(Fraction, ["9/4", "5/2", "16/25", "7/10", "-3/25", "3"])
    for hit in search_half_relations(SearchQuery(tau, 6, 5, SignMode.NONZERO_ANY, 60)).hits
]


@settings(max_examples=400, deadline=None)
@given(
    case=st.one_of(
        st.sampled_from(HALF_RELATIONS),
        st.tuples(st.lists(st.integers(-6, 6), min_size=1, max_size=7).map(tuple), PROOF_TAUS),
    )
)
def test_is_half_relation_is_the_defect_zero_test(case):
    cand, tau = case
    m = reduce(Mat2.__mul__, (gen_power(tag, a, tau)
                              for tag, a in word_from_exponents(cand).letters()))
    naive = tau * m.e12 - m.e21 if len(cand) % 2 == 1 else m.e11 - m.e22
    assert defect(cand, tau) == naive
    assert is_half_relation(cand, tau) == (naive == 0)
