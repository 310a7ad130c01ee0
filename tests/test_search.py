"""Tests for the pruned half-relation search, including a comparison
against a naive no-pruning oracle."""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import parafree.search as search_module
from parafree.families import enumerate_n_values, family_instance, family_n
from parafree.exact import UniPoly, eval_word_symbolic, scaled_product, word_from_exponents
from parafree.freeness import SearchEffort, classify_tau
from parafree.halfrel import build_relation, defect, is_half_relation, negate, poly_hr
from parafree.search import (
    SearchQuery,
    SignMode,
    hits_by_length,
    least_hits_by_length,
    lengths_to_walk,
    search_half_relations,
    search_len4_positive,
)


def sign_pools(length, bound, mode):
    """The mode's allowed values at positions 1..length, within the bound."""
    pools = []
    for i in range(1, length + 1):
        if mode is SignMode.ALL_POSITIVE:
            pools.append(range(1, bound + 1))
        elif mode is SignMode.ALTERNATING:
            pools.append(range(-bound, 0) if i % 2 == 1
                         else range(1, bound + 1))
        else:
            pools.append([a for a in range(-bound, bound + 1) if a != 0])
    return pools


def naive_search(tau, max_len, bound, mode):
    """Brute-force enumeration of every tuple; the correctness oracle."""
    hits = []
    for l in range(1, max_len + 1):
        for cand in itertools.product(*sign_pools(l, bound, mode)):
            if defect(cand, tau) == 0:
                hits.append(cand)
    return sorted(set(hits), key=lambda c: (len(c), c))


def test_query_validation():
    tau = Fraction(2)
    with pytest.raises(ValueError):
        SearchQuery(tau, 0, 5)
    with pytest.raises(ValueError):
        SearchQuery(tau, 13, 5)
    with pytest.raises(ValueError):
        SearchQuery(tau, 3, 0)
    with pytest.raises(ValueError):
        SearchQuery(tau, 3, 5, result_limit=0)


def test_search_rejects_fewer_than_one_worker():
    # both ran serially without a word before, in the search and in the
    # walk that it and classify read, with or without lengths
    tau, mode = Fraction(1, 4), SignMode.NONZERO_ANY
    query = SearchQuery(tau, 4, 8, mode)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            search_half_relations(query, workers=workers)
        for lengths in ([3, 4], []):
            with pytest.raises(ValueError, match="workers must be >= 1"):
                next(hits_by_length(tau, lengths, 8, mode, workers))
    hits = search_half_relations(query, workers=1).hits
    assert len(hits) == 736
    assert [h for block in hits_by_length(tau, [3, 4], 8, mode, 1) for h in block] == list(hits)


def test_the_walk_rejects_tau_zero():
    # every tuple is a half-relation at 0: the walk yielded all 4,096 of
    # length 3 and then divided by p = 0 at length 4
    for lengths in ([3, 4], []):
        with pytest.raises(ValueError, match="tau must be nonzero"):
            next(hits_by_length(Fraction(0), lengths, 8, SignMode.NONZERO_ANY))
    with pytest.raises(ValueError, match="tau must be nonzero"):
        SearchQuery(Fraction(0), 4, 8)


def test_effort_values_are_integers():
    # 8.0 == 8 used to hit the cached walk tables of bound 8, so a float
    # effort passed or failed with the cache; one search at bound 8 first
    # fills them, so the result holds in any test order
    tau, mode = Fraction(1, 4), SignMode.NONZERO_ANY
    assert len(search_half_relations(SearchQuery(tau, 4, 8)).hits) == 736
    for max_len, bound in ((4, 8.0), (4.0, 8), (4.5, 8), (4, Fraction(8))):
        with pytest.raises(TypeError):
            SearchQuery(tau, max_len, bound)
        with pytest.raises(TypeError):
            SearchEffort(max_len, bound)
    for workers in (1.0, 2.5):
        with pytest.raises(TypeError):
            next(hits_by_length(tau, [3, 4], 8, mode, workers))
        with pytest.raises(TypeError):
            SearchEffort(4, 8, workers)
    with pytest.raises(TypeError):
        next(hits_by_length(tau, [3, 4], 8.0, mode))
    with pytest.raises(TypeError):
        SearchQuery(tau, 4, 8, mode, result_limit=2.5)
    assert SearchQuery(tau, 4, 8, mode, result_limit=None).result_limit is None


def test_a_tau_that_is_not_an_int_or_a_fraction_is_rejected():
    # a float would be read as a ring element and evaluated inexactly, so
    # every entry that takes a tau rejects it before any arithmetic
    word = word_from_exponents((-6, -2, 1))
    for tau in (0.25, 2.0, "1/4"):
        with pytest.raises(TypeError, match="tau must be an int or a Fraction"):
            SearchQuery(tau, 4, 8)
        with pytest.raises(TypeError):
            next(hits_by_length(tau, [3, 4], 8, SignMode.NONZERO_ANY))
        with pytest.raises(TypeError):
            classify_tau(tau, SearchEffort(4, 8))
        with pytest.raises(TypeError):
            defect((-6, -2, 1), tau)
        with pytest.raises(TypeError):
            build_relation((-6, -2, 1), tau)
        with pytest.raises(TypeError):
            scaled_product(word, tau)
    with pytest.raises(TypeError):
        SearchQuery(UniPoly.var(), 4, 8)
    # an int and a Fraction are accepted, and the symbolic product keeps
    # its indeterminate
    assert build_relation((-6, -2, 1), Fraction(1, 4)).check()
    assert search_half_relations(SearchQuery(3, 3, 1)).hits == ((-1, 1, -1), (1, -1, 1))
    assert eval_word_symbolic(word).e21 == scaled_product(word, UniPoly.var())[2]


def test_a_sign_mode_that_is_not_a_member_is_rejected():
    # the string "all_positive" was walked as NONZERO_ANY: at 1/4, (4, 4),
    # the query returned those 136 hits, the first (-4, -4, 2, -4), under
    # the label "all_positive", where ALL_POSITIVE has none; the walk read
    # "alternating" the same way
    tau = Fraction(1, 4)
    assert search_half_relations(SearchQuery(tau, 4, 4, SignMode.ALL_POSITIVE, None)).hits == ()
    for mode in ("all_positive", "alternating", "nonzero_any", None):
        with pytest.raises(TypeError, match="sign_mode must be a SignMode"):
            SearchQuery(tau, 4, 4, mode, None)
        for lengths in ([3, 4], []):
            for reader in (hits_by_length, least_hits_by_length):
                with pytest.raises(TypeError, match="sign_mode must be a SignMode"):
                    next(reader(tau, lengths, 4, mode))


def test_the_walk_rejects_lengths_it_cannot_walk():
    # at 1/4, bound 4, the walk read [2, 3] as a first block of 8 length-3
    # tuples (+-1, +-1, +-1) to (+-4, +-4, +-4), none a half-relation;
    # [4, 3] as blocks [0, 0] where [3, 4] gives [0, 136]; and [4, 4] as
    # 136 hits twice
    tau, mode = Fraction(1, 4), SignMode.NONZERO_ANY
    for lengths in ([2, 3], [4, 3], [4, 4]):
        with pytest.raises(ValueError, match="strictly ascending"):
            next(hits_by_length(tau, lengths, 4, mode))
    assert [len(block) for block in hits_by_length(tau, [3, 4], 4, mode)] == [0, 136]
    assert list(hits_by_length(tau, [], 4, mode)) == []


def test_matches_naive_oracle():
    grid = [Fraction(2), Fraction(1, 4), Fraction(9, 4), Fraction(-3, 2)]
    for tau in grid:
        for mode in SignMode:
            # 1, 2 and 3 bracket the recursion guard: hits start at length 3
            for max_len in (1, 2, 3, 4):
                got = search_half_relations(SearchQuery(tau, max_len, 6, mode))
                assert got.exhausted
                assert list(got.hits) == naive_search(tau, max_len, 6, mode)


@given(st.lists(st.integers(-50, 50).filter(bool), min_size=1, max_size=2))
def test_no_half_relation_shorter_than_three(candidate):
    # the defect is tau*a_1 (length 1) or tau*a_1*a_2 (length 2): a nonzero
    # constant times tau, with no root tau != 0, so the search skips both
    assert poly_hr(candidate).degree() == 0


def test_all_hits_are_half_relations():
    report = search_half_relations(SearchQuery(Fraction(1, 4), 5, 4))
    assert report.hits
    for hit in report.hits:
        assert is_half_relation(hit, Fraction(1, 4))
        assert all(a != 0 for a in hit)


def test_recovers_known_candidate():
    report = search_half_relations(SearchQuery(Fraction(9, 4), 5, 14))
    assert (1, -1, 1, 14, 2) in report.hits


def test_schottky_regime_is_empty():
    report = search_half_relations(SearchQuery(Fraction(5), 4, 6))
    assert report.hits == () and report.exhausted


SCHOTTKY_TAUS = [Fraction(t) for t in (4, -4, "9/2", "17/4", "-13/3", 5, 7)]


def test_no_hit_at_or_past_the_schottky_threshold():
    # a hit is a nontrivial relation of <g, h_tau>, free at |tau| >= 4
    for tau in SCHOTTKY_TAUS:
        assert naive_search(tau, 5, 4, SignMode.NONZERO_ANY) == [], tau


def test_the_schottky_gate_walks_nothing(monkeypatch):
    walked = []
    monkeypatch.setattr(search_module, "_search_branch", walked.append)
    for tau in SCHOTTKY_TAUS:
        assert lengths_to_walk(tau.numerator, tau.denominator, 12, 10**6) == []
        for mode in SignMode:
            report = search_half_relations(SearchQuery(tau, 6, 6, mode))
            assert report.hits == () and report.exhausted, (tau, mode)
    assert walked == []


def test_sign_modes_restrict():
    tau = Fraction(4, 9)
    full = search_half_relations(SearchQuery(tau, 4, 27))
    pos = search_half_relations(SearchQuery(tau, 4, 27, SignMode.ALL_POSITIVE))
    alt = search_half_relations(SearchQuery(tau, 4, 27, SignMode.ALTERNATING))
    assert set(pos.hits) <= set(full.hits)
    assert (1, 27, 2, 1) in pos.hits
    for hit in pos.hits:
        assert all(a > 0 for a in hit)
    for hit in alt.hits:
        assert all(a < 0 if i % 2 == 0 else a > 0 for i, a in enumerate(hit))


def test_tau_zero_is_rejected():
    # every tuple has zero defect at 0, so the "search" would list all of them
    for mode in SignMode:
        with pytest.raises(ValueError, match="tau must be nonzero"):
            SearchQuery(Fraction(0), 5, 12, mode)


def test_worker_counts_agree():
    # -1/2 has hits in every sign mode; 2 has no all-positive ones
    # 7/12: q = 12 is above the bound, so the walk cuts pairs by divisibility
    queries = [SearchQuery(Fraction(2), 4, 5), SearchQuery(Fraction(7, 12), 5, 4)] + [
        SearchQuery(Fraction(-1, 2), 4, 5, mode) for mode in SignMode]
    for query in queries:
        base = search_half_relations(query, workers=1)
        assert base.hits
        # at bound 5, three workers split the 5 a_1 values 2/2/1
        for workers in (1, 2, 3, 8):
            assert search_half_relations(query, workers=workers) == base


class _SerialPool:
    """Stands in for `_process_pool` and records its pool sizes."""
    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_pool_is_clamped_to_branches(monkeypatch):
    monkeypatch.setattr(search_module, "_process_pool", _SerialPool)
    _SerialPool.sizes = []
    tau = Fraction(-1, 2)
    # NONZERO_ANY branches on a_1 > 0 only; the signed modes on B values
    for mode, bound, workers, size in (
        (SignMode.NONZERO_ANY, 3, 8, 3),
        (SignMode.ALL_POSITIVE, 3, 2, 2),
        (SignMode.ALTERNATING, 4, 8, 4),
    ):
        query = SearchQuery(tau, 4, bound, mode)
        report = search_half_relations(query, workers=workers)
        assert _SerialPool.sizes[-1] == size
        assert list(report.hits) == naive_search(tau, 4, bound, mode)
    # one branch runs in-process, without a pool
    search_half_relations(SearchQuery(tau, 4, 1), workers=8)
    assert len(_SerialPool.sizes) == 3


small_tau = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)]),
    st.builds(Fraction, st.integers(-23, 23).filter(bool), st.integers(1, 6)),
).filter(lambda t: abs(t) < 4)


@settings(max_examples=100, deadline=None)
@given(tau=small_tau, mode=st.sampled_from(SignMode),
       max_len=st.integers(1, 4), bound=st.integers(1, 4))
# the coeff == const == 0 branch, where a whole range of a_l is a hit
@example(tau=Fraction(1), mode=SignMode.NONZERO_ANY, max_len=4, bound=4)
@example(tau=Fraction(-1), mode=SignMode.NONZERO_ANY, max_len=4, bound=4)
@example(tau=Fraction(2), mode=SignMode.ALL_POSITIVE, max_len=4, bound=4)
@example(tau=Fraction(-2), mode=SignMode.ALTERNATING, max_len=4, bound=4)
# length-3 hits at q > 1, where the last two positions follow an h-letter
@example(tau=Fraction(-2, 3), mode=SignMode.ALL_POSITIVE, max_len=3, bound=4)
@example(tau=Fraction(1, 2), mode=SignMode.ALTERNATING, max_len=3, bound=4)
def test_matches_naive_oracle_at_random(tau, mode, max_len, bound):
    report = search_half_relations(SearchQuery(tau, max_len, bound, mode, None))
    assert report.exhausted
    assert list(report.hits) == naive_search(tau, max_len, bound, mode)
    if mode is SignMode.NONZERO_ANY:
        # diag(1,-1) conjugation: the hit set is closed under negation
        assert {negate(h) for h in report.hits} == set(report.hits)


def _in_domain(hit, bound, mode):
    """hit lies within the bound and the mode's sign pattern."""
    if not all(0 < abs(a) <= bound for a in hit):
        return False
    if mode is SignMode.ALL_POSITIVE:
        return all(a > 0 for a in hit)
    if mode is SignMode.ALTERNATING:
        return all(a < 0 if i % 2 == 0 else a > 0 for i, a in enumerate(hit))
    return True


@settings(max_examples=100, deadline=None)
@given(tau=small_tau, mode=st.sampled_from(SignMode),
       max_len=st.integers(1, 6), bound=st.integers(1, 5))
@example(tau=Fraction(1), mode=SignMode.ALTERNATING, max_len=6, bound=5)
@example(tau=Fraction(-1, 2), mode=SignMode.ALL_POSITIVE, max_len=6, bound=5)
def test_hits_are_closed_under_the_mode_symmetries(tau, mode, max_len, bound):
    # the search walks only a_1, a_l with |a_1| <= |a_l| (and a_1 > 0 for
    # NONZERO_ANY) and adds each hit's images, so every image must be a
    # half-relation in the mode's domain
    hits = set(search_half_relations(
        SearchQuery(tau, max_len, bound, mode, None)).hits)
    for hit in hits:
        assert _in_domain(hit, bound, mode)
        assert defect(hit, tau) == 0
        rev = hit[::-1]
        if mode is SignMode.ALTERNATING and len(hit) % 2 == 0:
            # reversal swaps the sign pattern; negated reversal keeps it
            assert negate(rev) in hits
        else:
            assert rev in hits
        if mode is SignMode.NONZERO_ANY:
            assert negate(hit) in hits and negate(rev) in hits


# (tau, mode, max_len, bound, limits beyond 1, 7, N - 1 and N); N is the
# unlimited hit count
LIMIT_QUERIES = [
    (Fraction(2), SignMode.NONZERO_ANY, 5, 4, ()),        # 6 / 56 / 90 hits
    (Fraction(3), SignMode.NONZERO_ANY, 5, 4, ()),        # 2 / 0 / 10
    (Fraction(-1, 2), SignMode.ALL_POSITIVE, 5, 4, ()),   # 2 / 23 / 20
    (Fraction(-2), SignMode.ALL_POSITIVE, 5, 4, ()),      # 0 / 7 / 6
    (Fraction(1, 4), SignMode.ALTERNATING, 5, 4, ()),     # 0 / 17 / 35
    (Fraction(2, 3), SignMode.ALTERNATING, 5, 4, (22,)),  # 6 / 16 / 25
]


def test_result_limit_stops_after_the_length_that_crosses_it(monkeypatch):
    walked = []
    real_branch = search_module._search_branch

    def spy(args):
        _, _, _, positions, _ = args
        walked.append(len(positions) - 1)  # the length of the branch
        return real_branch(args)

    crossed = set()
    # 1/4 at l6 b10 has 131,254 hits (48 / 1,048 / 4,650 / 125,508): limits
    # N - 1 and N would walk all of it at both worker counts
    queries = [(*q, True) for q in LIMIT_QUERIES]
    queries.append((Fraction(1, 4), SignMode.NONZERO_ANY, 6, 10, (1000,), False))
    for tau, mode, max_len, bound, extra, near_count in queries:
        full = search_half_relations(SearchQuery(tau, max_len, bound, mode, None))
        n = len(full.hits)
        limits = {1, 7, *extra} | ({n - 1, n} if near_count else set())
        for limit in sorted(l for l in limits if l >= 1):
            query = SearchQuery(tau, max_len, bound, mode, limit)
            for workers in (1, 2):
                report = search_half_relations(query, workers=workers)
                assert report.hits == full.hits[:limit]
                assert report.exhausted == (n <= limit)
            # no length past the one whose hits first exceed the limit
            monkeypatch.setattr(search_module, "_search_branch", spy)
            walked.clear()
            search_half_relations(query)
            monkeypatch.undo()
            stop = len(full.hits[limit]) if n > limit else max_len
            assert max(walked, default=max_len) == stop
            if n > limit:
                crossed.add(stop)
    assert crossed >= {3, 4, 5}


@settings(max_examples=100, deadline=None)
@given(tau=small_tau, mode=st.sampled_from(SignMode),
       max_len=st.integers(1, 6), bound=st.integers(1, 5))
@example(tau=Fraction(1, 2), mode=SignMode.NONZERO_ANY, max_len=6, bound=5)
def test_blocks_join_to_the_unlimited_hits(tau, mode, max_len, bound):
    # one sorted block per given length, in increasing length
    lengths = lengths_to_walk(tau.numerator, tau.denominator, max_len, bound)
    blocks = list(hits_by_length(tau, lengths, bound, mode))
    assert len(blocks) == len(lengths)
    for length, block in zip(lengths, blocks):
        assert block == sorted(block) and all(len(h) == length for h in block)
    query = SearchQuery(tau, max_len, bound, mode, None)
    assert tuple(itertools.chain.from_iterable(blocks)) == search_half_relations(query).hits
    # the walk walks what it is given: the odd lengths alone give their blocks
    odd = [l for l in lengths if l % 2]
    assert (list(hits_by_length(tau, odd, bound, mode))
            == [b for l, b in zip(lengths, blocks) if l % 2])


def least_of_block(block):
    """The block's first hit and its first all-positive hit, or None."""
    return (block[0] if block else None,
            next((hit for hit in block if min(hit) > 0), None))


@settings(max_examples=100, deadline=None)
@given(tau=small_tau, mode=st.sampled_from(SignMode),
       max_len=st.integers(1, 6), bound=st.integers(1, 5))
@example(tau=Fraction(1, 2), mode=SignMode.NONZERO_ANY, max_len=6, bound=5)
@example(tau=Fraction(-2), mode=SignMode.ALL_POSITIVE, max_len=6, bound=5)
def test_least_hits_are_the_first_of_each_block(tau, mode, max_len, bound):
    # read off the canonical hits with no set and no sort, the least orbit
    # image is the sorted block's first hit
    lengths = lengths_to_walk(tau.numerator, tau.denominator, max_len, bound)
    blocks = hits_by_length(tau, lengths, bound, mode)
    assert (list(least_hits_by_length(tau, lengths, bound, mode))
            == [least_of_block(block) for block in blocks])


def test_least_hits_at_two_workers_on_the_slowest_classify_taus():
    # three of the classify-batch pool's slowest tau at (4, 8): length 4,
    # where the cap does not apply, after length 3 at 5/32 and 1/28
    expected = {
        Fraction(5, 32): [((-8, 3, -4), None), ((-8, -5, 3, -4), (1, 4, 8, 2))],
        Fraction(1, 28): [(None, None), ((-8, -8, 7, -8), (1, 7, 2, 2))],
        Fraction(-9, 28): [(None, None), ((-7, -1, -6, -2), (2, 6, 1, 7))],
    }
    for tau, pairs in expected.items():
        lengths = lengths_to_walk(tau.numerator, tau.denominator, 4, 8)
        assert lengths == [3, 4], tau
        blocks = hits_by_length(tau, lengths, 8, SignMode.NONZERO_ANY)
        assert [least_of_block(block) for block in blocks] == pairs, tau
        for workers in (1, 2):
            assert list(least_hits_by_length(tau, lengths, 8, SignMode.NONZERO_ANY,
                                             workers)) == pairs, (tau, workers)


def test_one_branch_call_per_length_and_worker(monkeypatch):
    # each length is one `_search_branch` call per worker, on the
    # interleaved chunk firsts[i::workers] of the a_1 values
    calls = []
    real_branch = search_module._search_branch

    def spy(args):
        _, _, firsts, positions, _ = args
        calls.append((len(positions) - 1, firsts))
        return real_branch(args)

    tau = Fraction(5, 32)
    query = SearchQuery(tau, 4, 8, result_limit=None)
    hits = search_half_relations(query).hits
    monkeypatch.setattr(search_module, "_search_branch", spy)
    monkeypatch.setattr(search_module, "_process_pool", _SerialPool)
    for workers, chunks in ((1, [(1, 2, 3, 4, 5, 6, 7, 8)]),
                            (3, [(1, 4, 7), (2, 5, 8), (3, 6)])):
        calls.clear()
        assert search_half_relations(query, workers).hits == hits
        assert calls == [(l, chunk) for l in (3, 4) for chunk in chunks], workers


@settings(max_examples=100, deadline=None)
@given(tau=small_tau, mode=st.sampled_from(SignMode),
       max_len=st.integers(1, 4), bound=st.integers(1, 4), limit=st.integers(1, 60))
@example(tau=Fraction(2), mode=SignMode.NONZERO_ANY, max_len=4, bound=4, limit=6)
def test_result_limit_matches_naive_oracle_at_random(tau, mode, max_len, bound, limit):
    naive = naive_search(tau, max_len, bound, mode)
    report = search_half_relations(SearchQuery(tau, max_len, bound, mode, limit))
    assert list(report.hits) == naive[:limit]
    assert report.exhausted == (len(naive) <= limit)


def test_result_limit_truncates():
    query = SearchQuery(Fraction(2), 4, 6, result_limit=3)
    report = search_half_relations(query)
    assert len(report.hits) == 3 and not report.exhausted
    unlimited = search_half_relations(SearchQuery(Fraction(2), 4, 6))
    assert unlimited.exhausted
    assert list(report.hits) == list(unlimited.hits)[:3]


def test_monotone_in_effort():
    # raising the bound or the length never loses hits
    tau = Fraction(1, 4)
    small = search_half_relations(SearchQuery(tau, 4, 4))
    bigger = search_half_relations(SearchQuery(tau, 5, 6))
    assert set(small.hits) <= set(bigger.hits)


def test_canonical_order():
    report = search_half_relations(SearchQuery(Fraction(2), 4, 4))
    keys = [(len(h), h) for h in report.hits]
    assert keys == sorted(keys)


# --- rational-root prune -----------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-9, 9).filter(bool), min_size=1, max_size=9))
def test_poly_hr_degree_and_leading_coefficient(candidate):
    # the theorem behind the prune: a root p/q of P_l (lowest terms) has
    # q | a_1*...*a_l, so every prime factor of q is at most the bound
    poly = poly_hr(candidate)
    assert poly.degree() == (len(candidate) - 1) // 2
    assert poly.coeffs[-1] == math.prod(candidate)


def test_prune_edges_match_naive_oracle():
    # -8/5 at bound 5: q's largest prime equals the bound, so no prune;
    # -7/4 at bound 2: q exceeds the bound but is 2-smooth, so no prune
    for tau, bound in ((Fraction(-8, 5), 5), (Fraction(-7, 4), 2)):
        for mode in SignMode:
            report = search_half_relations(SearchQuery(tau, 4, bound, mode, None))
            assert report.exhausted
            assert list(report.hits) == naive_search(tau, 4, bound, mode)
            if mode is not SignMode.ALTERNATING:
                assert report.hits


@settings(max_examples=150, deadline=None)
@given(tau=st.builds(Fraction, st.integers(-119, 119).filter(bool), st.integers(1, 30))
       .filter(lambda t: abs(t) < 4),
       mode=st.sampled_from(SignMode),
       max_len=st.integers(1, 4), bound=st.integers(1, 4))
@example(tau=Fraction(-7, 4), mode=SignMode.ALL_POSITIVE, max_len=4, bound=2)
@example(tau=Fraction(-2, 9), mode=SignMode.NONZERO_ANY, max_len=4, bound=3)
def test_pruned_search_matches_naive_oracle_at_random(tau, mode, max_len, bound):
    report = search_half_relations(SearchQuery(tau, max_len, bound, mode, None))
    assert report.exhausted
    assert list(report.hits) == naive_search(tau, max_len, bound, mode)


def test_pruned_query_walks_nothing_and_starts_no_pool(monkeypatch):
    walked = []
    monkeypatch.setattr(search_module, "_process_pool", _SerialPool)
    monkeypatch.setattr(search_module, "_search_branch", walked.append)
    _SerialPool.sizes = []
    # 13 is a prime above the bound 10
    query = SearchQuery(Fraction(7, 13), 6, 10)
    report = search_half_relations(query, workers=2)
    assert report == search_module.SearchReport(query, (), True)
    assert walked == [] and _SerialPool.sizes == []


def test_smoothness_test_stops_at_the_bound_and_at_the_square_root():
    # the gate table is all 0 exactly when q has a prime factor above the
    # bound, and has cap_5 = 4q - 1 otherwise
    for q in range(1, 200):
        for bound in range(1, 15):
            factors = {}
            search_module._factorize(q, factors)
            caps = search_module._root_caps(q, bound)
            if all(p <= bound for p in factors):
                assert caps[2] == 4 * q - 1, (q, bound)
            else:
                assert caps == (0, 0, 0), (q, bound)
    # both stops are needed: without the bound the Mersenne prime would be
    # divided up to its square root, and without the square root the
    # smooth numbers would be divided up to the bound
    assert search_module._root_caps(2**127 - 1, 10) == (0, 0, 0)
    q = 2**100 * 3**50
    assert search_module._root_caps(q, 10**40)[2] == 4 * q - 1
    q = 1009 * 1013  # q*1*1 and q*1*1*1 are the lopsided factorisations
    assert search_module._root_caps(q, 10**40) == (q + 2, 2 * q, 4 * q - 1)
    report = search_half_relations(SearchQuery(Fraction(1, 2**127 - 1), 12, 10))
    assert report.hits == () and report.exhausted


@settings(max_examples=60, deadline=None)
@given(p=st.integers(-40, 40).filter(bool), q=st.integers(1, 30),
       max_len=st.integers(1, 5), bound=st.integers(1, 3))
@example(p=7, q=13, max_len=5, bound=3)  # q prime above the bound
@example(p=5, q=2, max_len=4, bound=3)  # |tau| > 2, not 3
@example(p=3, q=1, max_len=4, bound=1)  # tau = 3 keeps length 3
def test_the_gate_keeps_every_length_with_a_hit(p, q, max_len, bound):
    # checked against the oracle alone: wherever the gate leaves no
    # length, no mode has a hit; and a q with a prime above the bound
    # leaves none
    assume(math.gcd(p, q) == 1)
    tau, lengths = Fraction(p, q), lengths_to_walk(p, q, max_len, bound)
    assert lengths == sorted(set(lengths)) and set(lengths) <= set(range(3, max_len + 1))
    if max(naive_factorization(q), default=1) > bound:
        assert lengths == []
    for mode in SignMode:
        assert {len(h) for h in naive_search(tau, max_len, bound, mode)} <= set(lengths)
        if not lengths:
            assert search_half_relations(SearchQuery(tau, max_len, bound, mode, None)).hits == ()


# --- numerator gate at lengths 3 and 4 ---------------------------------

# the constant term c_0 of P_l bounds |p| for a root p/q at l = 3 and 4
C0_BOUND = {3: lambda b: 3 * b, 4: lambda b: 2 * b * b}


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(lambda b: st.tuples(
    st.just(b),
    st.lists(st.integers(-b, b).filter(bool), min_size=3, max_size=4))))
def test_constant_term_at_lengths_three_and_four(drawn):
    bound, a = drawn
    poly = poly_hr(a)
    assert poly.degree() == 1
    c0 = poly.coeffs[0]
    if len(a) == 3:
        assert c0 == a[0] - a[1] + a[2]
    else:
        assert c0 == a[0] * (a[1] + a[3]) + a[2] * (a[3] - a[1])
    assert abs(c0) <= C0_BOUND[len(a)](bound)


def test_constant_term_bounds_are_attained():
    for bound in (1, 2, 3):
        values = [a for a in range(-bound, bound + 1) if a]
        for length in (3, 4):
            top = max(abs(poly_hr(a).coeffs[0])
                      for a in itertools.product(values, repeat=length))
            assert top == C0_BOUND[length](bound)


def test_numerator_gate_edges_match_naive_oracle():
    # 3 at l3 b1 has |p| = 3*bound and hits; -2 and 2 at l4 b1 have
    # |p| = 2*bound^2 and length-4 hits; 4 at l3 b1 is gated.  A ">=" for
    # ">" drops the hits of the first two, a swapped bound those of 3
    for tau, max_len, has_hits in ((3, 3, True), (2, 4, True), (-2, 4, True),
                                   (4, 3, False)):
        tau = Fraction(tau)
        found = []
        for mode in SignMode:
            report = search_half_relations(SearchQuery(tau, max_len, 1, mode, None))
            assert report.exhausted
            assert list(report.hits) == naive_search(tau, max_len, 1, mode)
            found += [h for h in report.hits if len(h) == max_len]
        assert bool(found) == has_hits


@settings(max_examples=100, deadline=None)
@given(bound=st.integers(1, 4), length=st.sampled_from([3, 4]),
       offset=st.integers(-3, 3), sign=st.sampled_from([1, -1]),
       twos=st.integers(0, 3), threes=st.integers(0, 2),
       mode=st.sampled_from(SignMode), max_len=st.integers(3, 4))
@example(bound=1, length=3, offset=0, sign=1, twos=0, threes=0,
         mode=SignMode.NONZERO_ANY, max_len=3)
@example(bound=2, length=4, offset=0, sign=-1, twos=1, threes=0,
         mode=SignMode.NONZERO_ANY, max_len=4)
def test_gated_search_matches_naive_oracle_at_random(
        bound, length, offset, sign, twos, threes, mode, max_len):
    # a bound-smooth q and |p| near a constant-term bound
    q = (2 ** twos if bound >= 2 else 1) * (3 ** threes if bound >= 3 else 1)
    p = sign * (C0_BOUND[length](bound) + offset)
    assume(p != 0 and math.gcd(p, q) == 1)
    tau = Fraction(p, q)
    report = search_half_relations(SearchQuery(tau, max_len, bound, mode, None))
    assert report.exhausted
    assert list(report.hits) == naive_search(tau, max_len, bound, mode)


def test_gated_query_walks_nothing_and_starts_no_pool(monkeypatch):
    walked = []
    monkeypatch.setattr(search_module, "_process_pool", _SerialPool)
    monkeypatch.setattr(search_module, "_search_branch", walked.append)
    _SerialPool.sizes = []
    # 32 is 8-smooth, so only the numerator settles it: 129 > 3*32, past
    # both caps; 5/2: 2 splits into factors <= 8 only as 2*1*1 (*1), so
    # both caps are 4 < 5; 25/27: 27 splits into four factors <= 8 only as
    # 1*3*3*3 and its orderings, so cap_4 = 18 < 25 (and cap_3 = 9); 1/2^40:
    # no product of three or four numbers <= 8 reaches 2^40
    for tau in (Fraction(129, 32), Fraction(5, 2), Fraction(25, 27), Fraction(1, 2**40)):
        query = SearchQuery(tau, 4, 8)
        report = search_half_relations(query, workers=2)
        assert report == search_module.SearchReport(query, (), True)
    assert walked == [] and _SerialPool.sizes == []


def root_cases(top):
    """Every (root, bound, length) with bound <= top and length 3 or 4 for
    which some tuple with 0 < |a_i| <= bound has that nonzero root
    -c_0/(a_1*...*a_l), from c_0 in closed form: each root's least bound,
    and every bound above it up to top."""
    least = {}
    values = [a for a in range(-top, top + 1) if a]
    for l in (3, 4):
        for a in itertools.product(values, repeat=l):
            if l == 3:
                c0 = a[0] - a[1] + a[2]
            else:
                c0 = a[0] * (a[1] + a[3]) + a[2] * (a[3] - a[1])
            if c0:
                key = Fraction(-c0, math.prod(a)), l
                least[key] = min(least.get(key, top), max(map(abs, a)))
    return {(root, bound, l) for (root, l), low in least.items() for bound in range(low, top + 1)}


def test_the_root_caps_keep_every_root_at_lengths_three_and_four():
    # every nonzero root of a tuple of length 3 or 4 within the bound keeps
    # its length at that bound: a cap one too small drops the root that
    # attains it
    cases = root_cases(9)
    assert len(cases) == 7216
    for root, bound, l in cases:
        assert l in lengths_to_walk(root.numerator, root.denominator, 4, bound), (root, bound, l)


def test_the_root_caps_are_the_largest_root_numerators():
    # the caps are the largest |p| = floor(q*S(x)/P(x)) over every magnitude
    # tuple x with q | P(x), where S(x) is the largest |c_0| over the signs:
    # the exact factorisations of q reach it
    def s_of(x):
        if len(x) == 3:
            return sum(x)
        x1, x2, x3, x4 = x
        return max(x1, x3) * (x2 + x4) + min(x1, x3) * abs(x2 - x4)

    for bound in range(1, 13):
        top = {}  # per length and product P(x), the largest S(x)
        for l in (3, 4):
            for x in itertools.product(range(1, bound + 1), repeat=l):
                key = l, math.prod(x)
                top[key] = max(top.get(key, 0), s_of(x))
        for q in range(1, 201):
            brute = tuple(max((q * s // prod for (l, prod), s in top.items()
                               if l == length and prod % q == 0), default=0)
                          for length in (3, 4))
            assert search_module._root_caps(q, bound)[:2] == brute, (q, bound)

    # past the bounds a tuple brute force reaches: q = 2^a 3^b, its ordered
    # factorisations from the exponent tuples, at bounds with bound^2 >= q
    def compositions(n, l):
        # the ordered l-tuples of nonnegative integers with sum n
        for cuts in itertools.combinations(range(n + l - 1), l - 1):
            yield tuple(b - a - 1 for a, b in zip((-1, *cuts), (*cuts, n + l - 1)))

    for a, b in itertools.product(range(9), range(6)):
        q = 2**a * 3**b
        # per length, (max(x), S(x)) over the ordered factorisations q = P(x)
        tops = [[(max(x), s_of(x))
                 for twos, threes in itertools.product(compositions(a, l), compositions(b, l))
                 for x in [tuple(2**i * 3**j for i, j in zip(twos, threes))]]
                for l in (3, 4)]
        low = math.isqrt(q - 1) + 1
        for bound in {low, low + 1, 2 * low, q}:
            brute = tuple(max((s for top, s in top_l if top <= bound), default=0) for top_l in tops)
            assert search_module._root_caps(q, bound)[:2] == brute, (q, bound)


def test_the_gate_table_is_read_without_enumerating_factorisations():
    # q = 2^30 3^15 at bound 10^9: every ordered factorisation of q into
    # four factors <= 10^9 was enumerated, 9.6 s to return []; p = 2q + 5
    # and 2q - 7 are past cap_4 and under cap_5
    q = 2**30 * 3**15
    for p in (2 * q + 5, 2 * q - 7):
        assert lengths_to_walk(p, q, 4, 10**9) == []
        assert lengths_to_walk(p, q, 5, 10**9) == [5]


def test_the_root_caps_leave_the_pinned_lengths_on_the_classify_batch_pool():
    # at (4, 8), over every tau with q <= 128 and 0 < |tau| < 4: the walks
    # of length 3 and 4 that the caps leave, 214 and 852 of them with a hit
    taus = {Fraction(p, q) for q in range(1, 129) for p in range(-4 * q + 1, 4 * q) if p}
    lengths = [l for tau in taus for l in lengths_to_walk(tau.numerator, tau.denominator, 4, 8)]
    assert len(taus) == 40174
    assert (lengths.count(3), lengths.count(4)) == (582, 1872)


# --- |tau| bounds at lengths 3 and 4, and the divisibility cut -----------

@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-9, 9).filter(bool), min_size=3, max_size=4))
@example([1, -1, 1])
@example([-1, 1, -1])
@example([1, 1, 1, 1])
def test_root_bounds_at_lengths_three_and_four(a):
    c0, c1 = poly_hr(a).coeffs
    tau = Fraction(-c0, c1)  # the one root of P_l, possibly 0
    if len(a) == 4:
        low = min(abs(a[0]), abs(a[2])) * min(abs(a[1]), abs(a[3]))
        assert abs(tau) * low <= 2
    elif abs(tau) > 2:
        assert tau == 3 and tuple(a) in {(1, -1, 1), (-1, 1, -1)}


def test_root_bounds_are_attained():
    roots = {l: {Fraction(-c0, c1) for a in itertools.product((1, -1), repeat=l)
                 for c0, c1 in [poly_hr(a).coeffs]}
             for l in (3, 4)}
    assert max(roots[3]) == 3 and max(abs(t) for t in roots[3] - {3}) == 1
    assert max(abs(t) for t in roots[4]) == 2 and {2, -2} <= roots[4]


def test_root_bound_edges_match_naive_oracle():
    # |tau| = 2 and tau = 3 sit on the bounds; -3, +-5/2 and 2 + 1/q,
    # 3 - 1/q lie past them, where only lengths >= 5 can hold hits
    taus = [Fraction(t) for t in (2, -2, 3, -3)]
    taus += [Fraction(5, 2), Fraction(-5, 2)]
    taus += [2 + Fraction(1, q) for q in (3, 4)] + [3 - Fraction(1, q) for q in (3, 4)]
    long_hits = set()
    for tau in taus:
        for mode in SignMode:
            report = search_half_relations(SearchQuery(tau, 5, 4, mode, None))
            assert report.exhausted
            assert list(report.hits) == naive_search(tau, 5, 4, mode)
            if 2 < abs(tau) < 4:
                assert all(len(h) == 5 or h in {(1, -1, 1), (-1, 1, -1)}
                           for h in report.hits)
                long_hits |= {tau for h in report.hits if len(h) == 5}
    assert long_hits == {Fraction(3), Fraction(5, 2)}


def test_tau_three_walks_only_length_three(monkeypatch):
    walked = []
    real_branch = search_module._search_branch

    def spy(args):
        _, _, _, positions, _ = args
        walked.append(len(positions) - 1)  # the length of the branch
        return real_branch(args)

    monkeypatch.setattr(search_module, "_search_branch", spy)
    for mode in SignMode:
        report = search_half_relations(SearchQuery(Fraction(3), 4, 8, mode, None))
        assert list(report.hits) == naive_search(Fraction(3), 4, 8, mode)
    assert set(walked) == {3}


def test_divisibility_cut_reaches_the_solve_loop(monkeypatch):
    # 1/12 at l5 b8: q = 12 is 8-smooth and above the bound, so the walk
    # cuts at r = 12; a branch that starts at r = 1 would never cut
    leaves, tables = [], []
    real_dfs, real_table = search_module._dfs, search_module._cut_table

    def spy(p, q, r, exps, n11, n12, n21, n22, positions, bound, out):
        l = len(positions) - 1
        if len(exps) + 1 >= l - 2:  # the call that runs the solve loop
            leaves.append(r)
        real_dfs(p, q, r, exps, n11, n12, n21, n22, positions, bound, out)

    def table_spy(r, bound, middles):
        table = real_table(r, bound, middles)
        tables.append((r, middles, table))
        return table

    monkeypatch.setattr(search_module, "_dfs", spy)  # _dfs recurses through it
    monkeypatch.setattr(search_module, "_cut_table", table_spy)
    tau = Fraction(1, 12)
    search_half_relations(SearchQuery(tau, 5, 8, SignMode.NONZERO_ANY, None))
    assert 12 in leaves
    # the solve loop reads the r = 12 table, and for some end value c it
    # leaves fewer a than the full list: 12 / gcd(12, c) > 8 at c = +-1
    cut = [(middles, table) for r, middles, table in tables if r == 12]
    assert cut
    assert any(len(a_values) < len(middles) for middles, table in cut for a_values in table)


def test_the_cut_table_is_the_naive_filter():
    # at |c| for each end value c: the a with s = r // gcd(r, c) <= bound or
    # s // gcd(s, a) <= bound, in the order of the middles; ends and middles
    # are both +-, both positive (ALL_POSITIVE at l = 4) or both negative
    # (ALTERNATING at l = 5)
    build = search_module._cut_table.__wrapped__  # uncached
    for bound in range(1, 9):
        for mode, l in ((SignMode.NONZERO_ANY, 4), (SignMode.ALL_POSITIVE, 4),
                        (SignMode.ALTERNATING, 5)):
            positions = search_module._positions(l, bound, mode)
            ends, middles = positions[l][0], positions[l - 2][0]
            for r in range(1, 301):
                table = build(r, bound, middles)
                assert len(table) == bound + 1
                for c in ends:
                    s = r // math.gcd(r, c)
                    naive = [a for a in middles if s <= bound or s // math.gcd(s, a) <= bound]
                    assert list(table[abs(c)]) == naive, (r, bound, mode, c)


def test_the_capped_table_is_the_naive_filter():
    # with a cap below the bound, the list at |c| is the naive cut list, and
    # past |c| > cap only its a with |a| <= cap, for the ends and middles of
    # the naive-filter test above
    build = search_module._cut_table.__wrapped__  # uncached
    for bound in range(1, 9):
        for mode, l in ((SignMode.NONZERO_ANY, 4), (SignMode.ALL_POSITIVE, 4),
                        (SignMode.ALTERNATING, 5)):
            positions = search_module._positions(l, bound, mode)
            ends, middles = positions[l][0], positions[l - 2][0]
            for r in range(1, 301):
                for cap in range(1, bound):
                    table = build(r, bound, middles, cap)
                    assert len(table) == bound + 1
                    for c in ends:
                        s = r // math.gcd(r, c)
                        naive = [a for a in middles if s <= bound or s // math.gcd(s, a) <= bound]
                        if abs(c) > cap:
                            naive = [a for a in naive if abs(a) <= cap]
                        assert list(table[abs(c)]) == naive, (r, bound, mode, c, cap)


def test_no_cut_table_is_cached_where_no_cut_applies(monkeypatch):
    # the cache holds uncapped tables only for l >= 4 and r > bound, and
    # capped ones only at l = 4 with 2q//|p| below the bound: length 3 walks
    # its ends and middles directly even at q = 96 > 50, and so does length
    # 4 at 1/24 with bound 40 (q <= bound, 2q//|p| = 48 >= bound); the other
    # length-4 queries have q <= bound and 2q//|p| below it, so each of
    # their tables is capped and keyed by r = 1
    tables = search_module._cut_table
    keys = []

    def spy(*args):
        keys.append(args)
        return tables(*args)

    monkeypatch.setattr(search_module, "_cut_table", spy)
    tables.cache_clear()
    for mode in SignMode:
        search_half_relations(SearchQuery(Fraction(1, 96), 3, 50, mode, None))
    assert tables.cache_info().currsize == 0
    for mode in SignMode:
        search_half_relations(SearchQuery(Fraction(1, 24), 4, 40, mode, None))
    assert tables.cache_info().currsize == 0 and keys == []
    for mode in SignMode:
        for tau, bound in ((Fraction(1, 2), 40), (Fraction(7, 12), 12), (Fraction(-5, 8), 8)):
            search_half_relations(SearchQuery(tau, 4, bound, mode, None))
    assert keys and all(len(key) == 4 and key[0] == 1 and key[3] < key[1] for key in keys)
    capped = tables.cache_info().currsize
    search_half_relations(SearchQuery(Fraction(1, 12), 4, 8))  # 12 > 8: cut
    assert (12, 8, search_module._positions(4, 8, SignMode.NONZERO_ANY)[2][0]) in keys
    assert tables.cache_info().currsize > capped


def test_the_cut_cache_stays_bounded_over_a_sweep(monkeypatch):
    # a table is keyed by (r, bound, middles), and at l = 4 also by the
    # cap, not by p, a_1 or the end values: a sweep of every tau with these
    # q at (4, 8), in all three modes, keeps at most one uncapped table per
    # divisor r > 8 of a q and per middle list (the +- one, or the positive
    # one), at most one capped table per such r or r = 1, per middle list
    # and per cap 1..7, and the cache never holds more than CUT_CACHE_SIZE
    tables = search_module._cut_table
    keys = set()

    def spy(*args):
        keys.add(args)
        return tables(*args)

    monkeypatch.setattr(search_module, "_cut_table", spy)
    tables.cache_clear()
    qs, bound = (12, 16, 24, 36, 48, 72, 96), 8
    for q in qs:
        for p in range(-4 * q + 1, 4 * q):
            if p and math.gcd(p, q) == 1:
                for mode in SignMode:
                    search_half_relations(SearchQuery(Fraction(p, q), 4, bound, mode, None))
    divisors = {r for q in qs for r in range(bound + 1, q + 1) if q % r == 0}
    uncapped = [key for key in keys if len(key) == 3]
    capped = [key for key in keys if len(key) == 4]
    assert 0 < len(uncapped) <= 2 * len(divisors)
    assert {r for r, *_ in uncapped} <= divisors
    assert 0 < len(capped) <= 2 * (len(divisors) + 1) * (bound - 1)
    assert {r for r, *_ in capped} <= divisors | {1}
    assert {cap for *_, cap in capped} <= set(range(1, bound))
    info = tables.cache_info()
    assert info.currsize == len(keys)
    assert info.maxsize == search_module.CUT_CACHE_SIZE


def test_the_length_four_cap_reaches_the_solve_loop(monkeypatch):
    # the cap min(|a_2|, |a_4|) <= 2q/|p| prunes only pairs with no hit, so
    # no oracle sees it: at 3/2 (cap 1) the leaf reads capped tables whose
    # lists past |c| > 1 hold only +-1, and at 1/12 (2q/|p| = 24 >= 8) none
    tables = []
    real_table = search_module._cut_table

    def spy(r, bound, middles, cap=None):
        if cap is None:
            return real_table(r, bound, middles)
        table = real_table(r, bound, middles, cap)
        tables.append((cap, table))
        return table

    monkeypatch.setattr(search_module, "_cut_table", spy)
    search_half_relations(SearchQuery(Fraction(3, 2), 4, 8, SignMode.NONZERO_ANY, None))
    assert tables and {cap for cap, _ in tables} == {1}
    past_cap = [a for _, table in tables for a_values in table[2:] for a in a_values]
    assert past_cap and set(past_cap) == {1, -1}
    tables.clear()
    search_half_relations(SearchQuery(Fraction(1, 12), 4, 8, SignMode.NONZERO_ANY, None))
    assert tables == []
    assert real_table.cache_info().maxsize == search_module.CUT_CACHE_SIZE


def test_lengths_three_and_four_match_the_root_atlas():
    # at lengths 3 and 4, P_l = a_1*...*a_l * tau + c_0 is linear, so each
    # tuple of the sign pools has one root -c_0/(a_1*...*a_l), read off
    # `poly_hr`; at every tau with q <= 16 and 0 < |tau| < 4, every bound
    # to 8 and each mode, the walk's blocks are the tuples with root tau,
    # sorted: every cap 2q/|p| below the bound and every cut table of q
    atlas = {}
    for mode in SignMode:
        for l in (3, 4):
            for cand in itertools.product(*sign_pools(l, 8, mode)):
                c0, c1 = poly_hr(cand).coeffs
                assert c1 == math.prod(cand), cand
                if c0:
                    atlas.setdefault((mode, l, Fraction(-c0, c1)), []).append(cand)
    taus = sorted({Fraction(p, q) for q in range(1, 17) for p in range(-4 * q + 1, 4 * q) if p})
    for tau in taus:
        for mode in SignMode:
            at_tau = [sorted(atlas.get((mode, l, tau), [])) for l in (3, 4)]
            for bound in range(1, 9):
                expected = [[c for c in block if max(map(abs, c)) <= bound] for block in at_tau]
                assert list(hits_by_length(tau, [3, 4], bound, mode)) == expected, (
                    tau, bound, mode)


@st.composite
def composite_q_queries(draw):
    """(tau, max_len, bound, mode) with q above the bound and bound-smooth,
    so composite; NONZERO_ANY reaches length 5 at bound 4 only, where the
    oracle stays fast."""
    bound = draw(st.integers(4, 6))
    q = draw(st.sampled_from([q for q in range(bound + 1, 241)
                              if max(naive_factorization(q)) <= bound]))
    p = draw(st.integers(1, 4 * q - 1).filter(lambda p: math.gcd(p, q) == 1))
    mode = draw(st.sampled_from(SignMode))
    top = 5 if bound == 4 or mode is not SignMode.NONZERO_ANY else 4
    return Fraction(draw(st.sampled_from([p, -p])), q), draw(st.integers(3, top)), bound, mode


@settings(max_examples=60, deadline=None)
@given(composite_q_queries())
@example((Fraction(7, 120), 4, 5, SignMode.NONZERO_ANY))
@example((Fraction(-5, 12), 5, 4, SignMode.NONZERO_ANY))  # length-5 hits only
@example((Fraction(-1, 36), 5, 4, SignMode.NONZERO_ANY))  # q > bound^2
def test_composite_q_matches_naive_oracle_at_random(drawn):
    # the walk cuts the pairs (a, c) whose solved b would have to be a
    # multiple of more than the bound
    tau, max_len, bound, mode = drawn
    report = search_half_relations(SearchQuery(tau, max_len, bound, mode, None))
    assert report.exhausted
    assert list(report.hits) == naive_search(tau, max_len, bound, mode)


# --- length-4 positive scan --------------------------------------------

def test_len4_positive_against_brute_force():
    got = search_len4_positive(2, 40, 100)
    for n in range(2, 41):
        tau = Fraction((n - 1) ** 2, n * n)
        # printed length-4 form of the factored defect, cleared of
        # denominators: a1 a2 a3 a4 (n-1)^2 + (sum of pair terms) n^2
        m2, n2 = (n - 1) ** 2, n * n
        # grouped by a3 as a3*coef + const, every a3 < 2000 still tried
        brute = sorted({
            (a1, a2, a3, a4)
            for a1 in range(1, 4) for a4 in range(1, 4) for a2 in range(1, 101)
            for coef, const in [(a1 * a2 * a4 * m2 + (a4 - a2) * n2,
                                 (a1 * a2 + a1 * a4) * n2)]
            for a3 in range(1, 2000) if a3 * coef + const == 0
        })
        # the solver bounds a2 but leaves a3 free, so compare the slice
        # with a3 under the brute ceiling
        solver = sorted(h for h in got.get(n, []) if h[2] < 2000)
        assert solver == brute, f"n={n}"
        for hit in brute:
            assert defect(hit, tau) == 0


def test_len4_positive_known_keys():
    got = search_len4_positive(2, 100, 2000)
    assert set(got) >= {2, 3, 5, 9, 10, 45, 51, 90, 95}
    assert (1, 6, 27, 1) in got[9]
    assert (1, 50, 1083, 1) in got[95]


def len4_brute(n, bound, a3_cap):
    """Every all-positive length-4 tuple with a2 <= bound and a3 < a3_cap
    whose defect at ((n-1)/n)^2 vanishes, by exhaustion (a1*a4 < 4 is
    forced for n >= 2).  The cleared defect a1 a2 a3 a4 (n-1)^2 + (a1 a2 -
    a2 a3 + a3 a4 + a1 a4) n^2 is grouped by a3 as a3*coef + const."""
    m2, n2 = (n - 1) ** 2, n * n
    return sorted(
        (a1, a2, a3, a4)
        for a1 in range(1, 4) for a4 in range(1, 4) for a2 in range(1, bound + 1)
        for coef, const in [(a1 * a2 * a4 * m2 + (a4 - a2) * n2,
                             (a1 * a2 + a1 * a4) * n2)]
        for a3 in range(1, a3_cap) if a3 * coef + const == 0
    )


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 120), bound=st.integers(1, 30))
def test_len4_positive_matches_brute_force_at_random(n, bound):
    a3_cap = 300
    got = search_len4_positive(n, n, bound).get(n, [])
    assert all(1 <= h[1] <= bound for h in got)
    assert [h for h in got if h[2] < a3_cap] == len4_brute(n, bound, a3_cap)


def test_len4_positive_complete_census():
    # a2 above 1e4: missed by a scan over a2, found by the divisor pairs;
    # each is the reversal of a hit with small a2
    assert (1, 12675, 578, 1) in search_len4_positive(1105, 1105, None)[1105]
    assert (1, 23762, 1083, 1) in search_len4_positive(2071, 2071, None)[2071]
    complete = search_len4_positive(2, 3000, None)
    assert set(complete) == {2, 3, 5, 9, 10, 45, 51, 90, 95, 255,
                             882, 1105, 1479, 2071}
    for n, hits in complete.items():
        # reversing a half-relation gives a half-relation
        assert all(hit[::-1] in hits for hit in hits), f"n={n}"
    # the bounded census is the complete one cut at a2 <= bound
    bounded = search_len4_positive(2, 3000, 10**4)
    assert bounded == {n: [h for h in hits if h[1] <= 10**4]
                       for n, hits in complete.items()}


def test_len4_positive_validation():
    with pytest.raises(ValueError):
        search_len4_positive(5, 2, 10)
    with pytest.raises(ValueError):
        search_len4_positive(1, 10, 10)
    with pytest.raises(ValueError):
        search_len4_positive(2, 10, 0)


def test_len4_positive_takes_integers():
    # a bound of 10.5 ran as 10, its limits floats; every value goes
    # through operator.index, as the effort values do
    for args in ((2, 300, 10.5), (2, 300, 10.0), (2, 300, Fraction(10)), (2.0, 300, 10),
                 (2, 300.0, 10)):
        with pytest.raises(TypeError):
            search_len4_positive(*args)
    assert len(search_len4_positive(2, 300, 10)) == 5


def test_a_bad_len4_hit_is_raised(monkeypatch):
    # every census hit is re-checked, and one that fails is an error
    monkeypatch.setattr(search_module, "is_half_relation", lambda seq, tau: False)
    with pytest.raises(AssertionError, match="solver produced a bad hit"):
        search_len4_positive(2, 10, None)


def test_len4_positive_complete_census_beyond_criterion_8():
    # the B-family n-values in (3000, 20000], over all six sigma pairs
    expected = {n for sigma in [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
                for n in enumerate_n_values(sigma, range(-12, 13))
                if 3001 <= n <= 20000}
    assert expected == {8613, 8722}
    complete = search_len4_positive(3001, 20000, None)
    assert set(complete) == expected
    for n, hits in complete.items():
        tau = Fraction((n - 1) ** 2, n * n)
        assert all(defect(hit, tau) == 0 for hit in hits), f"n={n}"
        assert all(hit[::-1] in hits for hit in hits), f"n={n}"
    bounded = search_len4_positive(3001, 20000, 10**4)
    assert bounded == {n: [h for h in hits if h[1] <= 10**4]
                       for n, hits in complete.items()}


# --- the census's integer kernel -----------------------------------------

def naive_factorization(m):
    """Trial division by every d >= 2; the correctness oracle."""
    factors, d = {}, 2
    while d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


def factorize(m, pm1=False):
    factors = {}
    search_module._factorize(m, factors, pm1)
    return factors


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**12))
@example(999999999989)  # the largest prime below 10^12
@example(999983 * 1000003)  # primes either side of 10^6
def test_factorize_matches_naive_trial_division(m):
    assert factorize(m) == naive_factorization(m)


def test_factorize_edge_cases():
    def is_prime(p):
        return p >= 2 and naive_factorization(p) == {p: 1}

    ceiling = search_module.PRIME_TABLE_CEILING
    below = next(p for p in range(ceiling - 1, 1, -1) if is_prime(p))  # the table's last prime
    above = next(p for p in itertools.count(ceiling) if is_prime(p))
    after = next(p for p in itertools.count(above + 1) if is_prime(p))
    assert below < ceiling < above < after
    big = next(p for p in itertools.count(2**32 + 1, 2) if is_prime(p))
    cases = [1, below, above, below**2, above**2, below * above, above * after,
             big, 2 * big, below * big]
    cases += [2**k for k in range(1, 80)]
    for m in cases:
        assert factorize(m) == naive_factorization(m), m
    assert factorize(1) == {}
    assert factorize(above * after) == {above: 1, after: 1}  # found in the odd tail
    assert factorize(big) == {big: 1}
    factors = {2: 1, 7: 2}  # the census adds to n's doubled factorisation
    search_module._factorize(2**3 * 5 * 7, factors)
    assert factors == {2: 4, 5: 1, 7: 3}


def test_first_factoring_sieves_every_prime_below_the_ceiling():
    ceiling = search_module.PRIME_TABLE_CEILING
    search_module._prime_tables.cache_clear()
    factorize(1)
    primes, pm1 = search_module._prime_tables()
    assert primes == [p for p in range(ceiling) if naive_factorization(p) == {p: 1}]
    assert len(primes) == 6542  # pi(2^16)
    assert pm1 == [p for p in primes if p % 8 in (1, 7)]
    factorize(65537**2)  # root above the ceiling: sieved once all the same
    factorize(7 * 17, pm1=True)
    assert search_module._prime_tables.cache_info().misses == 1


def run_fresh(code):
    src = os.path.dirname(os.path.dirname(search_module.__file__))
    subprocess.run([sys.executable, "-c", "import parafree.search as s; " + code],
                   check=True, env={**os.environ, "PYTHONPATH": src})


def test_prime_table_is_empty_after_import():
    run_fresh("assert s._prime_tables.cache_info().currsize == 0")


def test_import_leaves_the_pool_stack_unimported():
    # the pool's modules are imported on the first walk with workers > 1
    run_fresh("import sys, parafree, parafree.cli; "
              "assert not {'concurrent.futures', 'multiprocessing'} & set(sys.modules)")


@settings(max_examples=200, deadline=None)
@given(st.one_of(
           st.integers(1, 10**9),
           st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 97]), max_size=20)
           .map(math.prod).filter(lambda m: m <= 10**9)),
       st.one_of(st.none(), st.integers(1, 10**6)))
def test_divisors_match_brute_force(m, limit):
    pairs = [(d, m // d) for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    brute = {d for pair in pairs for d in pair if limit is None or d <= limit}
    got = search_module._divisors(naive_factorization(m), limit)
    assert len(got) == len(set(got))
    assert set(got) == brute


# --- the census's factor of f = (n+1)^2 - 2 and its divisor pairs ----------

def factorize_f(n):
    """f = (n+1)^2 - 2 factored as the census does at a1*a4 = 1: its one 2
    for odd n, then the table primes = +-1 (mod 8) and the odd tail."""
    f, factors = (n + 1) ** 2 - 2, {}
    if n % 2:
        factors[2] = 1
    search_module._factorize(f >> (n % 2), factors, pm1=True)
    return factors


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 2 * 10**5))
@example(2)
@example(3)
@example(9)  # f = 98 = 2 * 7^2
@example(65535)  # n + 1 = 2^16: sqrt(f) is just below the table's ceiling
@example(65536)  # sqrt(f) passes the ceiling, and the odd tail runs
@example(65537)
def test_factorize_f_with_the_primes_pm1_mod_8(n):
    f = (n + 1) ** 2 - 2
    naive = naive_factorization(f)
    assert naive.get(2, 0) == n % 2  # 2 exactly once for odd n
    assert all(p % 8 in (1, 7) for p in naive if p > 2)
    assert factorize_f(n) == naive


def test_factorize_f_edge_cases():
    assert factorize_f(9) == {2: 1, 7: 2}
    assert factorize_f(2) == {7: 1}
    assert factorize_f(3) == {2: 1, 7: 1}
    ceiling = search_module.PRIME_TABLE_CEILING
    assert factorize_f(65535) == {2: 1, 2**31 - 1: 1}  # (2^16)^2 - 2
    # both primes above the table: the smaller is found in the odd tail
    assert 66103 * 68041 == 67065**2 - 2 and ceiling < 66103
    assert factorize_f(67064) == {66103: 1, 68041: 1}


def test_prime_table_pm1_is_empty_after_import_and_follows_the_table():
    # a first factoring with pm1=True sieves the one table its list is read off
    run_fresh("assert s._prime_tables.cache_info().currsize == 0; "
              "s._factorize(7, {}, pm1=True); primes, pm1 = s._prime_tables(); "
              "assert s._prime_tables.cache_info().misses == 1; "
              "assert pm1 == [p for p in primes if p % 8 in (1, 7)]")


def census_pairs(n):
    """The (a1, a4) with c = n^2 - a1*a4*(n-1)^2 > 0."""
    m2 = (n - 1) ** 2
    return [(a1, a4) for a1 in range(1, 4) for a4 in range(1, 4)
            if n * n - a1 * a4 * m2 > 0]


@st.composite
def congruent_divisor_cases(draw):
    n = draw(st.integers(2, 10**4))
    a1, a4 = draw(st.sampled_from(census_pairs(n)))
    c = n * n - a1 * a4 * (n - 1) ** 2
    limit = draw(st.one_of(st.none(), st.integers(1, 10**4 * c - a4 * n * n)))
    return n, a1, a4, limit


@settings(max_examples=300, deadline=None)
@given(congruent_divisor_cases())
@example((2, 1, 2, None))  # c = 2 shares its prime with n
@example((2, 2, 1, 5))
@example((2, 1, 3, None))  # c = 1
@example((2, 3, 1, 7))
@example((3, 1, 2, None))  # c = 1
@example((3, 2, 1, 4))
def test_congruent_divisors_match_the_flat_filter(drawn):
    n, a1, a4, limit = drawn
    n2 = n * n
    c = n2 - a1 * a4 * (n - 1) ** 2
    rest = naive_factorization(a1 * a4 * (n2 + c))
    factors = dict(rest)
    for p, e in naive_factorization(n).items():
        factors[p] = factors.get(p, 0) + 2 * e
    flat = [x for x in search_module._divisors(factors, limit) if (x + a4 * n2) % c == 0]
    got = search_module._congruent_divisors(n2, naive_factorization(n), rest, c, a4, limit)
    assert sorted(got) == sorted(flat)


def len4_divisor_oracle(n, bound):
    """The census at one n by the flat divisor filter over
    naive_factorization: every divisor X of a1*a4*n^2*f up to the limit,
    both congruences tested on each."""
    n2, hits = n * n, []
    for a1, a4 in census_pairs(n):
        c = n2 - a1 * a4 * (n - 1) ** 2
        limit = None if bound is None else bound * c - a4 * n2
        if limit is not None and limit < 1:
            continue
        xy = a1 * a4 * n2 * (n2 + c)
        factors = naive_factorization(a1 * a4 * (n2 + c))
        for p, e in naive_factorization(n).items():
            factors[p] = factors.get(p, 0) + 2 * e
        for x in search_module._divisors(factors, limit):
            if (x + a4 * n2) % c == 0 and (xy // x + a1 * n2) % c == 0:
                hits.append((a1, (x + a4 * n2) // c, (xy // x + a1 * n2) // c, a4))
    return sorted(hits)


def test_len4_positive_past_the_prime_table():
    sigmas = [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
    members = {}
    for sigma in sigmas:
        for k in range(-14, 15):
            n = family_n(sigma, k)
            if n in (86330, 292539, 532271):
                members.setdefault(n, set()).add(family_instance("B", k, sigma).candidate)
    assert set(members) == {86330, 292539, 532271}
    assert members.keys() <= {n for sigma in sigmas
                              for n in enumerate_n_values(sigma, range(-14, 15))}
    for n, candidates in members.items():
        tau = Fraction((n - 1) ** 2, n * n)
        hits = search_len4_positive(n, n, None)[n]
        assert hits == len4_divisor_oracle(n, None)
        for cand in candidates:
            for hit in (cand, cand[::-1]):
                assert hit in hits and defect(hit, tau) == 0, (n, hit)
    # f = (n+1)^2 - 2 above 2^32: sqrt(f) passes the table's ceiling
    for bound in (None, 10**4):
        oracle = {n: hits for n in range(65500, 65601)
                  if (hits := len4_divisor_oracle(n, bound))}
        assert search_len4_positive(65500, 65600, bound) == oracle
