"""Tests for tau classification: Schottky thresholds, family lookup by
exact formula inversion, and witness soundness."""

import hashlib
import multiprocessing
from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parafree.families as families
import parafree.freeness as freeness
import parafree.halfrel as halfrel
import parafree.search as search_module
from parafree.exact import ExpWord, G, scaled_product
from parafree.families import family_instance, family_n, family_tau, instance_witness
from parafree.freeness import (
    FREE_SCHOTTKY,
    NON_FREE,
    NON_SEMIGROUP_FREE,
    UNKNOWN,
    SearchEffort,
    TauClassification,
    classify_tau,
    family_lookup,
)
from parafree.halfrel import (
    RelationKind,
    build_relation,
    build_semigroup_witness,
    minus_tau_transform,
)
from parafree.search import (
    SearchQuery,
    SignMode,
    hits_by_length,
    least_hits_by_length,
    lengths_to_walk,
    search_half_relations,
)

from atlas import atlas

SIGMA_PAIRS = [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]


def fams(tau):
    return {(i.family, i.k) for i in family_lookup(Fraction(tau))}


def test_lookup_exceptional_tau_two():
    insts = family_lookup(Fraction(2))
    assert any(i.family == "D" and i.k == 1 and i.exceptional for i in insts)


def test_lookup_family_e():
    assert ("E", 4) in fams(Fraction(41, 12))
    assert ("E", 3) in fams(Fraction(17, 5))


def test_lookup_family_d_both_signs():
    assert ("D", 3) in fams(Fraction(5, 2))
    assert ("D", -1) in fams(Fraction(1))      # F_1 / F_{-1} = 1
    assert ("D", -3) in fams(Fraction(1, 2))   # F_{-1} / F_{-3} = 1/2


def test_lookup_family_a():
    assert ("A", 1) in fams(Fraction(1, 4))
    assert ("A", -1) in fams(Fraction(9, 4))
    assert ("A", 2) in fams(Fraction(9, 16))


def test_lookup_family_b():
    hits = family_lookup(Fraction(16, 25))
    assert any(i.family == "B" and i.sigma in ((2, 3), (3, 2)) for i in hits)
    hits = family_lookup(Fraction(4, 9))
    assert any(i.family == "B" for i in hits)


def test_lookup_family_c_variants():
    hits = {i.family for i in family_lookup(Fraction(5, 2))}
    assert {"C_general", "C_even", "C_quad"} <= hits  # k = 2 fits all three


def test_lookup_empty():
    assert family_lookup(Fraction(22, 7)) == []
    assert family_lookup(Fraction(6, 5)) == []


def test_lookup_negative_fibonacci_branch():
    # 1/3 = F_{-2} / F_{-4}; the negative branch of family D covers it
    assert ("D", -4) in fams(Fraction(1, 3))


def test_lookup_finds_every_member_past_300():
    # brute-force oracle: each member's own tau must lead back to it
    members = [(fam, k, None) for fam in ("A", "C_general", "D", "E")
               for k in range(-400, 401) if k != 0 and (fam, k) != ("D", -2)]
    members += [("C_even", k, None) for k in range(-400, 401, 2) if k != 0]
    members += [("C_quad", t * (t + 1) // 2 - 1, None) for t in range(28) if t != 1]
    members += [("B", k, sigma) for sigma in SIGMA_PAIRS
                for k in range(-40, 41) if family_n(sigma, k) != 1]
    for fam, k, sigma in members:
        found = family_lookup(family_tau(fam, k, sigma))
        assert (fam, k, sigma) in {(i.family, i.k, i.sigma) for i in found}


ORACLE_MAX_Q = 60
ORACLE_K = {"B": 12}  # every other family: |k| <= 64


def test_lookup_matches_the_brute_force_list_of_members():
    # Oracle: every member tau = family_tau(family, k, sigma) with |k| within
    # the ranges below, against family_lookup at every p/q with q <= 60 and
    # 0 < |tau| < 5, compared as (family, k, sigma) sets.  The ranges are
    # complete for q <= 60 because each formula's denominator grows with
    # |k| on either sign: 4k^2 (A), |k| (C), |F_k| (D), |P_k| (E) and n_k^2
    # with n_k = 6/(s0 s1) u_k u_{k+1} (B); at the edge of each range it
    # already exceeds 60, as asserted here.
    expected: dict = {}
    for fam in ("A", "B", "C_general", "C_even", "C_quad", "D", "E"):
        k_max = ORACLE_K.get(fam, 64)
        for sigma in SIGMA_PAIRS if fam == "B" else [None]:
            if fam != "C_quad":  # C_quad's denominator is |k| as for C_general
                edge = k_max if fam != "C_even" else k_max - k_max % 2
                assert min(family_tau(fam, k, sigma).denominator
                           for k in (edge, -edge)) > ORACLE_MAX_Q
            for k in range(-k_max, k_max + 1):
                try:
                    tau = family_tau(fam, k, sigma)
                except ValueError:
                    continue
                if tau.denominator <= ORACLE_MAX_Q and 0 < abs(tau) < 5:
                    expected.setdefault(tau, set()).add((fam, k, sigma))
    grid = {Fraction(p, q) for q in range(1, ORACLE_MAX_Q + 1)
            for p in range(-5 * q + 1, 5 * q) if p}
    assert set(expected) <= grid
    for tau in grid:
        found = [(i.family, i.k, i.sigma) for i in family_lookup(tau)]
        assert len(set(found)) == len(found)
        assert set(found) == expected.get(tau, set()), tau


def test_lookup_order():
    # classify takes its family witness from the first member found
    def order(tau):
        return [(i.family, i.k, i.sigma) for i in family_lookup(Fraction(tau))]

    assert order("5/2") == [("C_general", 2, None), ("C_even", 2, None),
                            ("C_quad", 2, None), ("D", 3, None)]
    assert order("9/4") == [("A", -1, None), ("C_general", 4, None), ("C_even", 4, None)]
    assert order("4/9") == [("B", 0, (1, 2)), ("B", -1, (1, 2)), ("B", 0, (2, 1)),
                            ("B", 1, (2, 1)), ("B", -1, (2, 3)), ("B", 1, (3, 2))]


def test_lookup_walks_only_the_b_sequences_that_can_match(monkeypatch):
    # n_k = 6/(s0 s1) u_k u_{k+1}: a sigma whose 6/(s0 s1) does not divide
    # n is never walked, and no sigma is walked unless sqrt(tau) = (n-1)/n
    walked = []
    b_indices = families._b_indices

    def counted(sigma, n):
        walked.append(sigma)
        return b_indices(sigma, n)

    monkeypatch.setattr(families, "_b_indices", counted)
    family_lookup(Fraction(24, 25) ** 2)  # n = 25: only 6/(s0 s1) = 1
    assert sorted(walked) == [(2, 3), (3, 2)]
    walked.clear()
    family_lookup(Fraction(9, 25))  # 3/5 is not (n-1)/n
    assert walked == []


def test_lookup_walks_d_and_e_members_once_at_their_own_sign(monkeypatch):
    # tau = t + X_{k-1}/X_k (t = 2 for D, 3 for E) is >= t for k > 0 and
    # <= 1 for k < 0, so the lookup builds only the member with the sign of k
    # that can match, not k = m and k = -m
    built = []
    member = families._member

    def counted(family, k, sigma=None, x=None):
        built.append((family, k))
        return member(family, k, sigma, x)

    taus = {(fam, k): family_tau(fam, k) for fam in ("D", "E") for k in (40, -40)}
    monkeypatch.setattr(families, "_member", counted)
    for (fam, k), tau in taus.items():
        built.clear()
        assert (fam, k) in {(i.family, i.k) for i in family_lookup(tau)}
        assert [b for b in built if b[0] == fam] == [(fam, k)]


def test_lookup_results_verify():
    for tau in [Fraction(5, 2), Fraction(41, 12), Fraction(9, 4),
                Fraction(16, 25), Fraction(3)]:
        for inst in family_lookup(tau):
            assert inst.tau == tau


def test_mirrored_witness_evaluates_two_words_at_minus_tau(monkeypatch):
    # the member's words are conjugated directly; the mirrored witness's
    # own check at -tau is the one proof
    inst = family_lookup(Fraction(5, 2))[0]
    evaluated = []

    def spy(word, tau):
        evaluated.append((word, tau))
        return scaled_product(word, tau)

    monkeypatch.setattr(halfrel, "scaled_product", spy)
    w = freeness._mirrored_witness(inst)
    assert evaluated == [(w.lhs, Fraction(-5, 2)), (w.rhs, Fraction(-5, 2))]
    monkeypatch.undo()
    member = instance_witness(inst)
    assert (w.lhs, w.rhs) == (minus_tau_transform(member.lhs), minus_tau_transform(member.rhs))
    exceptional = family_instance("D", 1)
    w = freeness._mirrored_witness(exceptional)
    assert (w.lhs, w.rhs) == (minus_tau_transform(exceptional.identity_word), ExpWord(G, (0,)))
    assert w.tau == -2 and w.check()


def test_a_failed_mirror_is_raised(monkeypatch):
    # the member's words unchanged are no relation at -tau, and the mirror's
    # own check says so
    monkeypatch.setattr(freeness, "minus_tau_transform", lambda word: word)
    with pytest.raises(AssertionError, match="minus-tau rewrite failed to verify"):
        freeness._mirrored_witness(family_lookup(Fraction(5, 2))[0])


def test_every_emitted_witness_proves_a_nontrivial_relation():
    # RelationWitness.check() also requires lhs * rhs^{-1} to freely reduce
    # to a nonempty word; every witness the builders emit passes it
    insts = [family_instance(fam, k) for fam in ("A", "C_general", "C_even", "C_quad", "D", "E")
             for k in range(-40, 41) if _is_member(fam, k, None)]
    insts += [family_instance("B", k, sigma=sigma) for sigma in SIGMA_PAIRS
              for k in range(-10, 11) if _is_member("B", k, sigma)]
    assert {(i.family, i.k) for i in insts if i.identity_word is not None} == {("D", 1), ("E", 1)}
    for inst in insts:
        assert instance_witness(inst).check(), (inst.family, inst.k, inst.sigma)
        assert freeness._mirrored_witness(inst).check(), (inst.family, inst.k, inst.sigma)
    witnesses = 0
    for q in range(1, 21):
        for p in range(-4 * q + 1, 4 * q):
            if p == 0 or gcd(p, q) != 1:
                continue
            cls = classify_tau(Fraction(p, q))
            for w in (cls.group_witness, cls.semigroup_witness):
                if w is not None:
                    assert w.check(), (p, q, w)
                    witnesses += 1
    assert witnesses > 100


def _is_member(family, k, sigma):
    try:
        family_tau(family, k, sigma)
    except ValueError:
        return False
    return True


def test_classify_thresholds():
    for tau in [Fraction(4), Fraction(-4), Fraction(9, 2), Fraction(-100)]:
        cls = classify_tau(tau)
        assert cls.group_status == FREE_SCHOTTKY
        assert cls.group_witness is None
        assert cls.semigroup_status == FREE_SCHOTTKY
    assert classify_tau(Fraction(1)).semigroup_status == FREE_SCHOTTKY


def test_classify_thresholds_at_their_edges():
    # the thresholds are read off p and q: each edge and its neighbours at
    # +-1/q fall on the side the rational comparison puts them
    edges = [Fraction(e) for e in (4, -4, 1, -1)]
    taus = edges + [e + s * Fraction(1, q) for e in edges for q in (1, 2, 7) for s in (1, -1)]
    for tau in taus:
        cls = classify_tau(tau, SearchEffort(3, 2))
        assert (cls.group_status == FREE_SCHOTTKY) == (abs(tau) >= 4), tau
        assert (cls.semigroup_status == FREE_SCHOTTKY) == (tau >= 1 or tau <= -4), tau


def test_classify_tau_zero_is_unknown():
    cls = classify_tau(Fraction(0))
    assert cls.group_status == UNKNOWN
    assert cls.semigroup_status == UNKNOWN


def spy_searches(monkeypatch):
    """Record the sign mode of every search classify runs: each is one
    walk of `least_hits_by_length`."""
    modes = []

    def spy(tau, lengths, bound, mode, workers=1):
        modes.append(mode)
        return least_hits_by_length(tau, lengths, bound, mode, workers)

    monkeypatch.setattr(freeness, "least_hits_by_length", spy)
    return modes


def test_classify_tau_zero_runs_no_search(monkeypatch):
    modes = spy_searches(monkeypatch)
    cls = classify_tau(Fraction(0))
    assert (cls.group_status, cls.semigroup_status) == (UNKNOWN, UNKNOWN)
    assert modes == []


def positive_search_witness(tau, effort):
    report = search_half_relations(SearchQuery(tau, effort.max_len, effort.bound,
                                               SignMode.ALL_POSITIVE))
    return build_semigroup_witness(report.hits[0], tau)


def test_semigroup_witness_read_from_the_group_search(monkeypatch):
    # in no family at +-tau, with all-positive hits at effort (4, 8)
    effort = SearchEffort()
    for tau in (Fraction(2, 3), Fraction(-4, 3), Fraction(5, 7), Fraction(1, 10)):
        modes = spy_searches(monkeypatch)
        cls = classify_tau(tau, effort)
        assert modes == [SignMode.NONZERO_ANY]  # no ALL_POSITIVE search ran
        assert cls.semigroup_status == NON_SEMIGROUP_FREE
        assert cls.semigroup_witness == positive_search_witness(tau, effort)


def test_over_limit_group_search_still_gives_the_semigroup_witness(monkeypatch):
    # 1,146 hits at effort (5, 8), past the default result limit of 1,000:
    # the group's walk applies no limit, so no second search is needed
    effort = SearchEffort(max_len=5, bound=8)
    tau = Fraction(2, 3)
    modes = spy_searches(monkeypatch)
    cls = classify_tau(tau, effort)
    assert modes == [SignMode.NONZERO_ANY]
    assert cls.group_status == NON_FREE
    assert cls.semigroup_status == NON_SEMIGROUP_FREE
    assert cls.semigroup_witness == positive_search_witness(tau, effort)


small_tau = st.builds(Fraction, st.integers(-23, 23).filter(bool),
                      st.integers(1, 6)).filter(lambda t: abs(t) < 4)


@settings(max_examples=100, deadline=None)
@given(tau=small_tau, max_len=st.integers(1, 6), bound=st.integers(1, 5))
def test_even_alternating_hits_at_minus_tau_are_positive_hits_at_tau(tau, max_len, bound):
    # diag(1,-1) conjugation: why classify's ALTERNATING search skips even
    # lengths once the ALL_POSITIVE hits at tau came out empty
    alt = search_half_relations(
        SearchQuery(-tau, max_len, bound, SignMode.ALTERNATING, None))
    pos = search_half_relations(
        SearchQuery(tau, max_len, bound, SignMode.ALL_POSITIVE, None))
    assert ({tuple(map(abs, h)) for h in alt.hits if len(h) % 2 == 0}
            == {h for h in pos.hits if len(h) % 2 == 0})


def test_alternating_search_at_odd_lengths_gives_the_same_classification(monkeypatch):
    effort = SearchEffort(4, 8)
    alternating_lengths = []

    def odd_only(tau, lengths, bound, mode, workers=1):
        if mode is SignMode.ALTERNATING:
            alternating_lengths.append(tuple(lengths))
        return least_hits_by_length(tau, lengths, bound, mode, workers)

    def gate_lengths(tau):
        return lengths_to_walk(tau.numerator, tau.denominator, effort.max_len, effort.bound)

    # the full-length run passes the alternating search every length the
    # gate leaves, even lengths included
    def full_length(tau, lengths, bound, mode, workers=1):
        if mode is SignMode.ALTERNATING:
            lengths = gate_lengths(tau)
        return least_hits_by_length(tau, lengths, bound, mode, workers)

    taus = {Fraction(p, q) for q in range(1, 41) for p in range(-4 * q + 1, 4 * q) if p}
    compared = even_only = 0
    for tau in sorted(taus):
        ran = len(alternating_lengths)
        monkeypatch.setattr(freeness, "least_hits_by_length", odd_only)
        got = classify_tau(tau, effort)
        monkeypatch.setattr(freeness, "least_hits_by_length", full_length)
        assert classify_tau(tau, effort) == got, tau
        monkeypatch.undo()
        compared += len(alternating_lengths) > ran
        if tau < 0 and got.semigroup_status == UNKNOWN and len(alternating_lengths) == ran:
            # no odd length left, so neither run walks: the full-length
            # walk would have found nothing at the even ones either
            even = gate_lengths(-tau)
            assert not any(hits_by_length(-tau, even, effort.bound, SignMode.ALTERNATING)), tau
            even_only += bool(even)
    assert compared > 0 and set(alternating_lengths) == {(3,)}
    assert even_only > 0


def test_no_alternating_search_for_positive_tau(monkeypatch):
    # an odd alternating hit at -tau would give a nonempty positive word in
    # g and h_tau equal to the identity, and for tau > 0 every such product
    # has a positive off-diagonal entry: the search could find nothing
    taus = [Fraction(p, q) for q in range(1, 21) for p in range(1, 4 * q) if gcd(p, q) == 1]
    for tau in taus:
        report = search_half_relations(SearchQuery(-tau, 5, 8, SignMode.ALTERNATING, None))
        assert not [h for h in report.hits if len(h) % 2], tau
    modes = spy_searches(monkeypatch)
    for tau in taus:
        classify_tau(tau)
    assert modes and SignMode.ALTERNATING not in modes
    classify_tau(Fraction(-3, 25))  # settled by the alternating search
    assert modes[-1] is SignMode.ALTERNATING


def reference_classification(tau, effort):
    """classify_tau from unlimited searches: the witness stream of the
    freeness module, with each search taken whole from
    `search_half_relations` (its first NONZERO_ANY hit, its first
    all-positive hit, and for tau < 0 the first hit of the odd-length
    ALTERNATING search at -tau), read by the same first-witness rule."""
    minus, max_len, bound = -tau, effort.max_len, effort.bound
    stream = [instance_witness(inst) for inst in family_lookup(tau)]
    for inst in family_lookup(minus):
        stream.append(freeness._mirrored_witness(inst))
        if inst.kind is RelationKind.SEMIGROUP_AT_MINUS_TAU:
            stream.append(build_semigroup_witness(inst.candidate, minus))
    hits = search_half_relations(
        SearchQuery(tau, max_len, bound, SignMode.NONZERO_ANY, None)).hits
    positive = [h for h in hits if min(h) > 0]
    stream += [build_relation(h, tau) for h in [*hits[:1], *positive[:1]]]
    if tau < 0:
        odd = max_len - (1 - max_len % 2)
        alt = search_half_relations(
            SearchQuery(minus, odd, bound, SignMode.ALTERNATING, None)).hits
        stream += [build_semigroup_witness(h, minus) for h in alt[:1]]
    group_free, semi_free = abs(tau) >= 4, tau >= 1 or tau <= -4
    group = None if group_free else next(iter(stream), None)
    semi = None if semi_free else next(
        (w for w in stream if w.kind is not RelationKind.GROUP_NONTRIVIAL), None)
    return TauClassification(
        tau,
        FREE_SCHOTTKY if group_free else UNKNOWN if group is None else NON_FREE,
        group,
        FREE_SCHOTTKY if semi_free else UNKNOWN if semi is None else NON_SEMIGROUP_FREE,
        semi,
        effort,
    )


def test_classify_matches_the_unlimited_searches():
    # the walk stops once both sides are settled, and a gated tau builds
    # no query: neither may change a status or a witness
    taus = {Fraction(p, q) for q in range(1, 41) for p in range(-4 * q + 1, 4 * q) if p}
    for effort in (SearchEffort(4, 8), SearchEffort(3, 4)):
        for tau in sorted(taus):
            assert classify_tau(tau, effort) == reference_classification(tau, effort), tau


@settings(max_examples=100, deadline=None)
@given(tau=small_tau, max_len=st.integers(3, 6), bound=st.integers(1, 6))
def test_classify_matches_the_unlimited_searches_at_random(tau, max_len, bound):
    effort = SearchEffort(max_len, bound)
    assert classify_tau(tau, effort) == reference_classification(tau, effort)


def test_an_abandoned_walk_shuts_its_pool_down():
    # 1/10 is settled at length 4, so its walk at workers=2 is closed
    # before length 5; -3/25 walks at tau, then the alternating search at
    # 3/25, which settles both sides
    for tau, effort in ((Fraction(1, 10), SearchEffort(5, 8, 2)),
                        (Fraction(-3, 25), SearchEffort(4, 8, 2))):
        cls = classify_tau(tau, effort)
        assert (cls.group_status, cls.semigroup_status) == (NON_FREE, NON_SEMIGROUP_FREE)
        assert cls == reference_classification(tau, effort)
        assert multiprocessing.active_children() == []


def test_classify_family_values():
    cls = classify_tau(Fraction(5, 2))
    assert cls.group_status == NON_FREE
    assert cls.group_witness.check()
    assert cls.semigroup_status == FREE_SCHOTTKY

    cls = classify_tau(Fraction(17, 5))
    assert cls.group_status == NON_FREE
    assert cls.group_witness.check()


def test_classify_reads_both_sides_from_the_first_family_lookups(monkeypatch):
    # a family member at tau settles the group (5/2 is semigroup-free by
    # threshold), and at -5/2 the mirrored member and its alternating
    # candidate settle both sides: no further lookup, no gate and no search
    # runs; every family tau is positive, so -5/2 is looked up at 5/2 only
    lookups = []

    def counted(tau):
        lookups.append(tau)
        return family_lookup(tau)

    def no_search(*args, **kwargs):
        raise AssertionError(f"search ran: {args}")

    monkeypatch.setattr(freeness, "family_lookup", counted)
    monkeypatch.setattr(freeness, "lengths_to_walk", no_search)
    monkeypatch.setattr(freeness, "least_hits_by_length", no_search)
    cls = classify_tau(Fraction(5, 2))
    assert lookups == [Fraction(5, 2)]
    assert cls.group_status == NON_FREE
    assert cls.group_witness == instance_witness(family_instance("C_general", 2))
    assert cls.semigroup_status == FREE_SCHOTTKY
    lookups.clear()
    cls = classify_tau(Fraction(-5, 2))
    assert lookups == [Fraction(5, 2)]
    assert cls.group_witness == freeness._mirrored_witness(family_instance("C_general", 2))
    candidate = family_instance("C_general", 2).candidate
    assert cls.semigroup_witness == build_semigroup_witness(candidate, Fraction(5, 2))
    assert (cls.group_status, cls.semigroup_status) == (NON_FREE, NON_SEMIGROUP_FREE)


def test_a_threshold_settled_semigroup_is_not_searched(monkeypatch):
    # 12/7 >= 1 is semigroup-free and the group stays unknown at (4, 8):
    # only the group's search runs, not the semigroup's at -tau
    modes = spy_searches(monkeypatch)
    cls = classify_tau(Fraction(12, 7))
    assert (cls.group_status, cls.semigroup_status) == (UNKNOWN, FREE_SCHOTTKY)
    assert modes == [SignMode.NONZERO_ANY]


def test_a_gated_tau_builds_no_query(monkeypatch):
    # 7/13 and -7/13: 13 is a prime above the bound 8, at tau and at -tau;
    # 12/5: |tau| > 2 drops lengths 3 and 4, the only ones at (4, 8); and a
    # walked tau builds none either: 1/10 at tau, -3/25 at tau and at 3/25.
    # Every SearchQuery is counted, whichever module builds it
    effort = SearchEffort(4, 8)
    built = []
    check = SearchQuery.__post_init__

    def counted(query):
        built.append(query)
        check(query)

    monkeypatch.setattr(SearchQuery, "__post_init__", counted)
    modes = spy_searches(monkeypatch)
    # no family candidate at |tau| and no length: the three gated tau are
    # settled before any family lookup or walk (`modes` records each
    # least_hits_by_length call); the walked ones look up families first
    looked_up = []

    def lookup_spy(tau):
        looked_up.append(tau)
        return family_lookup(tau)

    monkeypatch.setattr(freeness, "family_lookup", lookup_spy)
    for tau, group, semigroup, walked in (
            (Fraction(7, 13), UNKNOWN, UNKNOWN, []),
            (Fraction(-7, 13), UNKNOWN, UNKNOWN, []),
            (Fraction(12, 5), UNKNOWN, FREE_SCHOTTKY, []),
            (Fraction(1, 10), NON_FREE, NON_SEMIGROUP_FREE, [SignMode.NONZERO_ANY]),
            (Fraction(-3, 25), NON_FREE, NON_SEMIGROUP_FREE,
             [SignMode.NONZERO_ANY, SignMode.ALTERNATING])):
        modes.clear()
        looked_up.clear()
        cls = classify_tau(tau, effort)
        assert (cls.group_status, cls.semigroup_status) == (group, semigroup), tau
        assert modes == walked, tau
        assert looked_up == ([abs(tau)] if walked else []), tau
    assert built == []


def test_the_early_return_loses_nothing(monkeypatch):
    # wherever classify_tau decides from p and q that no phase can yield
    # and builds no stream, the stream is empty
    streamed = []
    real_witnesses = freeness._witnesses

    def spy(tau, *args):
        streamed.append(tau)
        return real_witnesses(tau, *args)

    taus = sorted({Fraction(p, q) for q in range(1, 41) for p in range(-4 * q + 1, 4 * q) if p})
    settled = 0
    for effort in (SearchEffort(4, 8), SearchEffort(5, 4), SearchEffort(3, 8)):
        monkeypatch.setattr(freeness, "_witnesses", spy)
        streamed.clear()
        classifications = [classify_tau(tau, effort) for tau in taus]
        monkeypatch.undo()
        built = set(streamed)
        for tau, cls in zip(taus, classifications):
            if tau in built:
                continue
            settled += 1
            assert (cls.group_witness, cls.semigroup_witness) == (None, None), tau
            assert list(freeness._witnesses(tau, effort)) == [], tau
    assert settled > len(taus)


def test_the_stream_builds_only_witnesses_that_can_settle_a_side(monkeypatch):
    # the first witness settles the group, so every later build is of
    # positive words, the only ones that can still settle the semigroup
    events = []

    def spy(name, real):
        def recorded(*args):
            events.append((name, args))
            return real(*args)
        return recorded

    monkeypatch.setattr(freeness, "build_relation", spy("build", build_relation))
    monkeypatch.setattr(freeness, "_mirrored_witness", spy("mirror", freeness._mirrored_witness))
    monkeypatch.setattr(freeness, "least_hits_by_length", spy("walk", least_hits_by_length))
    effort, nonzero = SearchEffort(4, 8), SignMode.NONZERO_ANY
    # 2/15: one build of the walk's 300 hits, none of them positive
    tau = Fraction(2, 15)
    cls = classify_tau(tau, effort)
    assert (cls.group_status, cls.semigroup_status) == (NON_FREE, UNKNOWN)
    assert [name for name, _ in events] == ["walk", "build"]
    assert sum(map(len, hits_by_length(tau, [3, 4], 8, nonzero))) == 300
    # 2/3 and -4/3: the first hit settles the group, the first positive
    # one the semigroup
    for tau in (Fraction(2, 3), Fraction(-4, 3)):
        events.clear()
        cls = classify_tau(tau, effort)
        assert (cls.group_status, cls.semigroup_status) == (NON_FREE, NON_SEMIGROUP_FREE)
        builds = [args[0] for name, args in events if name == "build"]
        assert len(builds) > 1 and all(min(hit) > 0 for hit in builds[1:]), tau
    # -2: the member at 2 mirrored settles the group before the walk,
    # which is then ALL_POSITIVE only
    events.clear()
    cls = classify_tau(Fraction(-2), effort)
    assert (cls.group_status, cls.semigroup_status) == (NON_FREE, NON_SEMIGROUP_FREE)
    assert [name for name, _ in events] == ["mirror", "walk", "build"]
    assert events[1][1] == (Fraction(-2), [3, 4], 8, SignMode.ALL_POSITIVE, 1)
    assert cls.semigroup_witness.kind is RelationKind.SEMIGROUP_AT_TAU


def test_odd_lengths_at_minus_tau_lie_among_the_lengths_at_tau():
    # the gates read |p| only, so classify_tau tests no phase past the
    # lengths at tau: the alternating search at -tau walks their odd ones
    for q in range(1, 31):
        for p in range(1, 4 * q + 2):
            for max_len in range(3, 9):
                for bound in range(1, 11):
                    assert lengths_to_walk(p, q, max_len, bound) == \
                        lengths_to_walk(-p, q, max_len, bound), (p, q, max_len, bound)


def test_the_stream_reads_the_lengths_once(monkeypatch):
    # the walk at tau and the alternating walk at -tau share one
    # `lengths_to_walk` call, whose odd lengths the latter walks
    calls, alternating = [], []

    def lengths_spy(*args):
        calls.append(args)
        return lengths_to_walk(*args)

    def walk_spy(tau, lengths, bound, mode, workers=1):
        if mode is SignMode.ALTERNATING:
            alternating.append(tuple(lengths))
        return least_hits_by_length(tau, lengths, bound, mode, workers)

    monkeypatch.setattr(freeness, "lengths_to_walk", lengths_spy)
    monkeypatch.setattr(freeness, "least_hits_by_length", walk_spy)
    for tau, effort, odd in ((Fraction(-3, 25), SearchEffort(4, 8), (3,)),
                             (Fraction(-9, 5), SearchEffort(5, 6), (5,)),
                             (Fraction(-7, 18), SearchEffort(5, 4), (3, 5))):
        calls.clear()
        alternating.clear()
        list(freeness._witnesses(tau, effort))  # read to the end
        assert calls == [(tau.numerator, tau.denominator, effort.max_len, effort.bound)]
        assert alternating == [odd], tau


def witness_key(w):
    """A witness's words, start letters and kind as one string."""
    if w is None:
        return "-"
    return (f"{w.lhs.start}{list(w.lhs.exponents)}={w.rhs.start}{list(w.rhs.exponents)}"
            f":{w.kind.value}")


@cache
def classified_pool():
    """Every tau = p/q with q <= 128 and 0 < |tau| < 4, as the
    classify-batch benchmark draws them, in sorted order, each with its
    classification at (4, 8); computed once for the tests that read it."""
    taus = sorted({Fraction(p, q) for q in range(1, 129) for p in range(-4 * q + 1, 4 * q) if p})
    return tuple(classify_tau(tau, SearchEffort(4, 8)) for tau in taus)


def test_the_classify_batch_pool_is_pinned():
    # the statuses and the witnesses' words, start letters and kinds of
    # the whole pool, against the digest taken before the gate-first
    # return and the cached cut table, which change no result
    pool = classified_pool()
    digest = hashlib.sha256()
    for cls in pool:
        digest.update(f"{cls.tau} {cls.group_status} {cls.semigroup_status} "
                      f"{witness_key(cls.group_witness)} "
                      f"{witness_key(cls.semigroup_witness)}\n".encode())
    assert len(pool) == 40174
    assert digest.hexdigest() == (
        "b8f4ed53d55005d87f237ab5b7536952917560e582c712af1d5632ff7bbb1a94")


def test_the_pool_matches_the_root_atlas():
    # an oracle that shares no code with the walk (`atlas.atlas`): every
    # tuple of length 3 or 4 with entries in [-8, 8] \ {0}, one per orbit
    # of reversal and negation (a1 > 0, a1 <= |a_l|), whose defect
    # polynomial P is linear there, so its one root is read off
    # `symbolic_defect`; with the family members at |tau|, these roots are
    # what classify settles on the pool at (4, 8), each side at each sign
    pool = classified_pool()
    non_free, non_semigroup_free = atlas([cls.tau for cls in pool], 4)
    assert {cls.tau for cls in pool if cls.group_status == NON_FREE} == non_free
    assert {cls.tau for cls in pool
            if cls.semigroup_status == NON_SEMIGROUP_FREE} == non_semigroup_free
    assert (len(non_free), len(non_semigroup_free)) == (1414, 652)


def test_the_alternating_search_walks_odd_lengths_only(monkeypatch):
    # the search at tau leaves the semigroup open, and the alternating
    # search at -tau walks the odd lengths the gate leaves: 5 of 4 and 5 at
    # -9/5, (5, 6), whose 5 splits into three factors <= 6 only as 5*1*1,
    # so cap_3 = 7 < 9; 3 and 5 of 3, 4 and 5 at -7/18, (5, 4)
    walked = []
    real_branch = search_module._search_branch

    def spy(args):
        p, q, _, positions, _ = args
        walked.append((Fraction(p, q), len(positions) - 1))
        return real_branch(args)

    monkeypatch.setattr(search_module, "_search_branch", spy)
    for tau, effort, lengths, odd in ((Fraction(-9, 5), SearchEffort(5, 6), [4, 5], [5]),
                                      (Fraction(-7, 18), SearchEffort(5, 4), [3, 4, 5], [3, 5])):
        walked.clear()
        cls = classify_tau(tau, effort)
        assert cls.group_status == NON_FREE and cls.semigroup_status == UNKNOWN
        assert lengths_to_walk(-tau.numerator, tau.denominator, effort.max_len, effort.bound) == lengths
        assert list(dict.fromkeys(l for at, l in walked if at > 0)) == odd
    # the length the gate drops at +-9/5 holds no hit in any mode, by brute force
    values = [a for a in range(-6, 7) if a]
    assert not any(halfrel.is_half_relation(a, tau) for a in product(values, repeat=3)
                   for tau in (Fraction(9, 5), Fraction(-9, 5)))


def test_semigroup_witness_settles_the_group():
    # no family at +-tau and no NONZERO_ANY hit at tau at effort (4, 8), but
    # the alternating search at -tau gives (g^5 h^5)^3 g = g at -3/25 and
    # (g^7 h^7)^3 g = g at -3/49: positive words are a group relation too
    for tau in (Fraction(-3, 25), Fraction(-3, 49)):
        cls = classify_tau(tau, SearchEffort(4, 8))
        assert cls.group_status == NON_FREE
        assert cls.semigroup_status == NON_SEMIGROUP_FREE
        assert cls.group_witness is cls.semigroup_witness
        assert cls.group_witness.check() and cls.group_witness.word_tau == tau


def test_a_non_free_semigroup_means_a_non_free_group():
    taus = [Fraction(p, q) for q in range(1, 41) for p in range(-4 * q + 1, 4 * q)
            if p and gcd(p, q) == 1]
    for effort in (SearchEffort(4, 8), SearchEffort(3, 4)):
        for tau in taus:
            cls = classify_tau(tau, effort)
            if cls.semigroup_status == NON_SEMIGROUP_FREE:
                assert cls.group_status == NON_FREE, (tau, effort)


def test_classify_mirror_value():
    # -5/2 has no family instance itself, but 5/2 does; the witness is
    # rewritten to live at -5/2 and must re-verify there
    cls = classify_tau(Fraction(-5, 2))
    assert cls.group_status == NON_FREE
    assert cls.group_witness.word_tau == Fraction(-5, 2)
    assert cls.group_witness.check()
    # semigroup: alternating relation at 5/2 gives positive words at -5/2
    assert cls.semigroup_status == NON_SEMIGROUP_FREE
    assert cls.semigroup_witness.lhs.is_positive
    assert cls.semigroup_witness.check()


def test_classify_semigroup_family_b():
    cls = classify_tau(Fraction(64, 81))  # (8/9)^2, family B
    assert cls.group_status == NON_FREE
    assert cls.semigroup_status == NON_SEMIGROUP_FREE
    w = cls.semigroup_witness
    assert w.kind is RelationKind.SEMIGROUP_AT_TAU
    assert w.lhs.is_positive and w.rhs.is_positive and w.check()


def test_classify_search_fallback():
    # 7/10 is in no family; a short generic half-relation still exists
    # ((1,-2,-5,4) has factored defect 40*tau - 28), so the search finds it
    cls = classify_tau(Fraction(7, 10))
    assert cls.group_status == NON_FREE
    assert cls.group_witness.check()


def test_classify_small_unknown():
    # with a tiny effort budget nothing is found for 7/10; the status must
    # honestly degrade to unknown, never to a freeness claim
    cls = classify_tau(Fraction(7, 10), SearchEffort(max_len=2, bound=2))
    assert cls.group_status in (UNKNOWN, NON_FREE)
    if cls.group_status == UNKNOWN:
        assert cls.group_witness is None


def test_no_contradictions_on_small_grid():
    seen = set()
    for q in range(1, 6):
        for p in range(-4 * q + 1, 4 * q):
            tau = Fraction(p, q)
            if tau in seen or tau == 0:
                continue
            seen.add(tau)
            cls = classify_tau(tau, SearchEffort(max_len=3, bound=4))
            if cls.group_status == FREE_SCHOTTKY:
                assert cls.group_witness is None
            if cls.group_witness is not None:
                assert cls.group_status == NON_FREE
                assert cls.group_witness.check()
            if cls.semigroup_status == FREE_SCHOTTKY:
                assert cls.semigroup_witness is None
            if cls.semigroup_witness is not None:
                assert cls.semigroup_status == NON_SEMIGROUP_FREE
                assert cls.semigroup_witness.check()
                assert cls.semigroup_witness.lhs.is_positive
                assert cls.semigroup_witness.rhs.is_positive


def test_monotonic_effort():
    taus = [Fraction(7, 10), Fraction(2, 3), Fraction(-1, 2)]
    for tau in taus:
        small = classify_tau(tau, SearchEffort(max_len=3, bound=3))
        large = classify_tau(tau, SearchEffort(max_len=4, bound=8))
        if small.group_status == NON_FREE:
            assert large.group_status == NON_FREE
        if small.semigroup_status == NON_SEMIGROUP_FREE:
            assert large.semigroup_status == NON_SEMIGROUP_FREE


def test_classify_tau_rejects_a_bool():
    # classify_tau(True) returned a classification whose tau was True while
    # its witness's tau was Fraction(1)
    for tau in (True, False):
        with pytest.raises(TypeError, match="tau must be an int or a Fraction"):
            classify_tau(tau, SearchEffort(4, 8))
    assert classify_tau(1, SearchEffort(4, 8)).tau == 1
