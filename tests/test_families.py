"""Tests for the parametric families, their integer sequences, and the
accumulation-point reports."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parafree.families as families
from parafree.cli import main
from parafree.exact import ExpWord, G, eval_word
from parafree.families import (
    EXCEPTIONAL_TAU2_WORD,
    EXCEPTIONAL_TAU3_WORD,
    FAMILIES,
    _b_indices,
    _b_terms,
    _lucas,
    accumulation_report,
    accumulation_target,
    enumerate_n_values,
    family_instance,
    family_lookup,
    family_n,
    family_tau,
    fib,
    instance_witness,
    markov_poly,
    pell,
    sqrt_fraction,
    u_seq,
    validate_sigma,
)
from parafree.halfrel import RelationKind, is_half_relation


# --- integer sequences -------------------------------------------------

# u_k for k = -6..7, from the recurrence run by hand in both directions
U_GOLDEN = {
    (1, 2): [99, 29, 17, 5, 3, 1, 1, 1, 3, 5, 17, 29, 99, 169],
    (1, 3): [485, 89, 49, 9, 5, 1, 1, 1, 5, 9, 49, 89, 485, 881],
    (2, 3): [8189, 1427, 373, 65, 17, 3, 1, 1, 5, 19, 109, 417, 2393, 9155],
}
U_GOLDEN_KS = range(-6, 8)


def test_u_seq_golden_values():
    for sigma, values in U_GOLDEN.items():
        assert [u_seq(sigma, k) for k in U_GOLDEN_KS] == values


def test_u_seq_recurrence_both_directions():
    for sigma in [(1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2)]:
        for k in range(-10, 10):
            assert u_seq(sigma, k - 1) - 2 * sigma[k % 2] * u_seq(sigma, k) \
                + u_seq(sigma, k + 1) == 0


def test_family_n_from_the_golden_u_values():
    # all six sigma and k in -5..6; for the swapped pair u'_k = u_{1-k},
    # which is the walk family_n takes for negative k
    for (s0, s1), values in U_GOLDEN.items():
        u = dict(zip(U_GOLDEN_KS, values))
        swapped = {k: u[1 - k] for k in U_GOLDEN_KS}
        for sigma, seq in (((s0, s1), u), ((s1, s0), swapped)):
            for k in range(-5, 7):
                assert family_n(sigma, k) == (6 // (s0 * s1)) * seq[k] * seq[k + 1]


# --- matrix powers against the naive walks ----------------------------

SIGMAS = [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
ORACLE_KS = [*range(-400, 401), -2000, 2000]


def walk_both_ways(start: dict, step, back, lo: int, hi: int) -> dict:
    """The sequence on lo..hi from two adjacent start terms, by the naive
    O(|k|) walk: step(k, x_{k-1}, x_k) = x_{k+1}, back(k, x_k, x_{k+1}) = x_{k-1}."""
    seq = dict(start)
    for k in range(max(start), hi):
        seq[k + 1] = step(k, seq[k - 1], seq[k])
    for k in range(min(start), lo, -1):
        seq[k - 1] = back(k, seq[k], seq[k + 1])
    return seq


def naive_lucas(c: int) -> dict:
    return walk_both_ways({0: 0, 1: 1}, lambda k, a, b: c * b + a,
                          lambda k, b, a: a - c * b, -2002, 2002)


def naive_u(s) -> dict:
    return walk_both_ways({0: 1, 1: 1}, lambda k, a, b: 2 * s[k % 2] * b - a,
                          lambda k, b, a: 2 * s[k % 2] * b - a, -2002, 2002)


def test_lucas_fib_and_pell_match_the_naive_walk():
    for c in (1, 2):
        x = naive_lucas(c)
        for k in ORACLE_KS:
            assert _lucas(c, k) == (x[k - 1], x[k]), (c, k)
    f, p = naive_lucas(1), naive_lucas(2)
    for k in ORACLE_KS:
        assert fib(k) == f[k]
        assert pell(k) == (p[k] + p[k - 1], p[k])


def test_b_terms_match_the_naive_walk():
    for s in SIGMAS:
        u, c = naive_u(s), 6 // (s[0] * s[1])
        for k in ORACLE_KS:
            n = c * u[k] * u[k + 1]
            assert _b_terms(s, k) == (n, u[k], u[k + 1]), (s, k)
            assert u_seq(s, k) == u[k] and family_n(s, k) == n


def test_b_indices_match_brute_force():
    # every n_k and n_k +- 1 for k <= 400, random n < 10^30, and n in 1..5000,
    # against the k of the naive forward walk of n_k
    local = random.Random(3141)
    for s in SIGMAS:
        u, c = naive_u(s), 6 // (s[0] * s[1])
        ns = [c * u[k] * u[k + 1] for k in range(402)]
        where: dict[int, list[int]] = {}
        for k, n_k in enumerate(ns):
            where.setdefault(n_k, []).append(k)
        tests = {n + d for n in ns[:401] for d in (-1, 0, 1)}
        tests |= {local.randrange(1, 10**30) for _ in range(200)} | set(range(1, 5001))
        for n in tests:
            assert ns[-1] > n
            assert _b_indices(s, n) == where.get(n, []), (s, n)


def test_validate_sigma():
    assert validate_sigma([2, 3]) == (2, 3)
    for bad in [(1, 1), (2, 2), (4, 1), (1,), (1, 2, 3), (0, 6)]:
        with pytest.raises(ValueError):
            validate_sigma(bad)


def test_sigma_takes_integral_values_only():
    # int() truncated (1.9, 2.2) to (1, 2) and read "1" as 1, so a float
    # sigma named another member without a word
    for bad in ((1.9, 2.2), (1.5, 2.9), (Fraction(3, 2), 2), ("1", "3"), (1, Fraction(2))):
        with pytest.raises(TypeError):
            validate_sigma(bad)
    with pytest.raises(TypeError):
        family_instance("B", 3, sigma=(1.5, 2.9))
    with pytest.raises(TypeError):
        u_seq((Fraction(3, 2), 2), 4)
    assert u_seq((1, 2), 4) == 17


def test_fib_doubly_infinite():
    assert [fib(k) for k in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    for n in range(1, 15):
        assert fib(-n) == (-1) ** (n + 1) * fib(n)
    for k in range(-10, 10):
        assert fib(k + 1) == fib(k) + fib(k - 1)


def test_pell_golden_and_negative():
    assert [pell(k) for k in range(6)] == \
        [(1, 0), (1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]
    for k in range(-8, 8):
        h, p = pell(k)
        h1, p1 = pell(k + 1)
        assert (h1, p1) == (h + 2 * p, h + p)
    for k in range(1, 10):
        hk, pk = pell(k)
        hm, pm = pell(-k)
        assert hm == (-1) ** k * hk
        assert pm == (-1) ** (k + 1) * pk


def test_markov_poly_roots():
    # consecutive u values are integer points of the Markov-like quadric,
    # with the sigma components swapped for odd k
    for sigma in [(1, 2), (1, 3), (2, 3)]:
        swapped = (sigma[1], sigma[0])
        assert markov_poly(sigma, 1, 1) == 0
        for k in range(-6, 6):
            s = sigma if k % 2 == 0 else swapped
            assert markov_poly(s, u_seq(sigma, k), u_seq(sigma, k + 1)) == 0
    assert markov_poly((2, 3), 1, 2) != 0


# --- tau formulas ------------------------------------------------------

def test_family_d_tau_ladder():
    got = [family_tau("D", k) for k in range(1, 7)]
    assert got == [Fraction(2), Fraction(3), Fraction(5, 2), Fraction(8, 3),
                   Fraction(13, 5), Fraction(21, 8)]


def test_family_e_tau_ladder():
    got = [family_tau("E", k) for k in range(1, 7)]
    assert got == [Fraction(3), Fraction(7, 2), Fraction(17, 5),
                   Fraction(41, 12), Fraction(99, 29), Fraction(239, 70)]


def test_family_a_tau():
    assert family_tau("A", 1) == Fraction(1, 4)
    assert family_tau("A", 2) == Fraction(9, 16)
    assert family_tau("A", -1) == Fraction(9, 4)


def test_family_b_tau_and_n():
    assert family_n((2, 3), 1) == 5
    assert family_tau("B", 1, (2, 3)) == Fraction(16, 25)
    assert family_n((1, 2), 0) == 3
    assert family_n((1, 3), 0) == 2


def test_family_c_tau():
    assert family_tau("C_general", 1) == 3
    assert family_tau("C_general", -1) == 1
    assert family_tau("C_even", 2) == Fraction(5, 2)
    assert family_tau("C_quad", 2) == Fraction(5, 2)  # k = t(t+1)/2 - 1, t = 2


def test_family_tau_preconditions():
    for family in ["A", "C_general", "C_even", "C_quad", "D", "E"]:
        with pytest.raises(ValueError):
            family_tau(family, 0)
    with pytest.raises(ValueError):
        family_tau("B", 1)                    # sigma required
    with pytest.raises(ValueError):
        family_tau("B", 0, (2, 3))            # n = 1 gives tau = 0
    with pytest.raises(ValueError):
        family_tau("B", 0, (3, 2))
    with pytest.raises(ValueError):
        family_tau("D", -2)                   # F_0 = 0 gives tau = 0
    with pytest.raises(ValueError):
        family_tau("C_even", 3)
    with pytest.raises(ValueError):
        family_tau("C_quad", 3)               # 3 != t(t+1)/2 - 1
    with pytest.raises(ValueError):
        family_tau("Z", 1)
    with pytest.raises(ValueError):
        family_tau("A", 1, (1, 2))            # only B takes sigma


SIGMAS = [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]


def _or_none(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return None


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FAMILIES + ("Z",)), st.integers(-60, 60),
       st.sampled_from([None] + SIGMAS + [(1, 1), (4, 1)]))
def test_family_tau_and_instance_accept_the_same_inputs(family, k, sigma):
    tau = _or_none(family_tau, family, k, sigma)
    inst = _or_none(family_instance, family, k, sigma)
    assert (tau is None) == (inst is None)
    if inst is not None:
        assert inst.tau == tau


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(-10**4, 10**4),
       st.sampled_from([None] + SIGMAS))
@example("D", -1, None)
@example("D", -3, None)
@example("E", -1, None)
@example("E", -2, None)
@example("B", 0, (1, 2))
@example("B", -1, (3, 2))
@example("C_general", -1, None)
@example("A", -1, None)
def test_every_family_tau_is_positive(family, k, sigma):
    # classify looks a family member up at tau or -tau, whichever is positive
    tau = _or_none(family_tau, family, k, sigma)
    if tau is not None:
        assert tau > 0
        assert family_lookup(-tau) == []


# --- instances ---------------------------------------------------------

def test_family_instances_verify():
    for k in list(range(-8, 0)) + list(range(1, 9)):
        for family in ["A", "C_general", "D", "E"]:
            if family == "D" and k == -2:
                continue
            inst = family_instance(family, k)
            assert is_half_relation(inst.candidate, inst.tau)
        if k % 2 == 0:
            assert is_half_relation(family_instance("C_even", k).candidate,
                                    family_tau("C_even", k))
    for sigma in [(1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2)]:
        for k in range(-4, 5):
            try:
                inst = family_instance("B", k, sigma=sigma)
            except ValueError:
                continue  # n = 1 exclusions
            assert inst.kind is RelationKind.SEMIGROUP_AT_TAU


def test_family_e_free_exponent():
    # the trailing exponent is free: any nonzero x keeps the half-relation
    for x in [-3, -1, 1, 2, 17]:
        inst = family_instance("E", 3, x=x)
        assert inst.candidate[-1] == x
        assert is_half_relation(inst.candidate, inst.tau)


def test_exceptional_a_minus_one():
    inst = family_instance("A", -1)
    assert inst.exceptional
    assert inst.tau == Fraction(9, 4)
    assert inst.candidate == (1, -1, 1, 14, 2)


def test_exceptional_d_one():
    inst = family_instance("D", 1)
    assert inst.exceptional and inst.tau == 2
    assert inst.identity_word == EXCEPTIONAL_TAU2_WORD
    assert eval_word(inst.identity_word, Fraction(2)).is_identity()


def test_exceptional_e_one():
    inst = family_instance("E", 1)
    assert inst.exceptional and inst.tau == 3
    assert inst.identity_word == EXCEPTIONAL_TAU3_WORD
    assert eval_word(inst.identity_word, Fraction(3)).is_identity()


@pytest.mark.parametrize("exponents", [(0,), (2, 0, -2), (1, -1, -1, 1)])
def test_an_exceptional_word_must_be_a_nontrivial_relator(monkeypatch, exponents):
    # g^0 and g^2 h^0 g^-2 are trivial in the free group and evaluate to the
    # identity; g h^-1 g^-1 h is nontrivial but no relator at tau = 2
    monkeypatch.setattr(families, "EXCEPTIONAL_TAU2_WORD", ExpWord(G, exponents))
    with pytest.raises(AssertionError, match="exceptional word is not a relator"):
        family_instance("D", 1)
    with pytest.raises(AssertionError, match="exceptional word is not a relator"):
        family_lookup(Fraction(2))


def test_a_failed_candidate_check_is_raised_not_skipped(monkeypatch):
    # a member whose candidate fails its check is an AssertionError, which
    # a k-range sweep does not skip: it skips only ValueError (excluded k)
    monkeypatch.setattr(families, "is_half_relation", lambda seq, tau: False)
    with pytest.raises(AssertionError, match="candidate failed verification"):
        family_instance("D", 3)
    with pytest.raises(AssertionError, match="candidate failed verification"):
        main(["family", "--name", "d", "--k-range", "2..4"])


def test_instance_witness_checks():
    for inst in [family_instance("D", 4), family_instance("B", 2, sigma=(2, 3)),
                 family_instance("D", 1), family_instance("E", 1)]:
        w = instance_witness(inst)
        assert w.check()


def test_enumerate_n_values_golden():
    assert enumerate_n_values((1, 2), range(0, 7)) == \
        [3, 9, 45, 255, 1479, 8613, 50193]
    assert enumerate_n_values((1, 3), range(0, 6)) == \
        [2, 10, 90, 882, 8722, 86330]
    # (2,3) runs in both directions; the printed list has a typo at the
    # seventh entry (85), the true value is 95: tau = (94/95)^2 admits the
    # candidate (1, 50, 1083, 1) while (84/85)^2 does not
    assert enumerate_n_values((2, 3), range(-4, 5)) == \
        [1, 3, 5, 51, 95, 1105, 2071, 24245, 45453]
    assert is_half_relation((1, 50, 1083, 1), Fraction(94 * 94, 95 * 95))
    assert not is_half_relation((1, 50, 1083, 1), Fraction(84 * 84, 85 * 85))


# --- accumulation ------------------------------------------------------

def test_sqrt_fraction_precision():
    s = sqrt_fraction(2, 50)
    assert s * s <= 2 < (s + Fraction(1, 10**50)) ** 2


def test_accumulation_targets():
    assert accumulation_target("A", 1).approx == 1
    assert accumulation_target("C_general", -1).approx == 2
    phi2 = accumulation_target("D", 1).approx
    assert abs(phi2 * phi2 - 3 * phi2 + 1) < Fraction(1, 10**45)
    e_plus = accumulation_target("E", 1).approx
    assert abs((e_plus - 2) ** 2 - 2) < Fraction(1, 10**45)
    assert accumulation_target("D", -1).approx + phi2 == 3
    with pytest.raises(ValueError):
        accumulation_target("Z", 1)


def test_accumulation_report_decreasing():
    for family in ["A", "D", "E"]:
        rows = accumulation_report(family, range(2, 15))
        dists = [d for _, _, d in rows]
        assert all(a > b for a, b in zip(dists, dists[1:]))


def test_accumulation_report_options():
    # a bad option fails every k, so it raises rather than giving no rows
    with pytest.raises(ValueError, match="family B requires sigma"):
        accumulation_report("B", range(1, 4))
    with pytest.raises(ValueError):
        accumulation_report("B", range(1, 4), sigma=(4, 1))
    with pytest.raises(ValueError):
        accumulation_report("D", range(1, 4), sigma=(1, 2))
    assert [k for k, _, _ in accumulation_report("B", range(-1, 2), sigma=(2, 3))] == [-1, 1]
