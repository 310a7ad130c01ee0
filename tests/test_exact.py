"""Tests for the exact arithmetic substrate (rationals, matrices,
words, polynomials)."""

import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafree.exact import (
    ExpWord,
    G,
    H,
    Mat2,
    UniPoly,
    eval_word,
    eval_word_symbolic,
    format_rational,
    gen_power,
    other_tag,
    parse_rational,
    scaled_product,
    word_from_exponents,
)
from parafree.families import family_tau

rng = random.Random(20260826)


def rand_word(max_len=6, bound=9):
    l = rng.randint(1, max_len)
    exps = tuple(rng.choice([a for a in range(-bound, bound + 1) if a != 0])
                 for _ in range(l))
    return ExpWord(rng.choice([G, H]), exps)


def rand_tau():
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


# --- rationals ---------------------------------------------------------

def test_parse_rational_basic():
    assert parse_rational("3") == 3
    assert parse_rational("-7") == -7
    assert parse_rational("9/4") == Fraction(9, 4)
    assert parse_rational("-6/8") == Fraction(-3, 4)
    assert parse_rational(" 2/3 ") == Fraction(2, 3)


def test_parse_rational_rejects_garbage():
    for bad in ["", "a", "1/0", "1/-2", "1.5", "2/3/4", "+3", "1 /2"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_format_rational_round_trip():
    for _ in range(200):
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        assert parse_rational(format_rational(x)) == x
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-9, 4)) == "-9/4"


# --- matrices ----------------------------------------------------------

def rand_mat():
    while True:
        m = Mat2(*(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                   for _ in range(4)))
        if m.det() != 0:
            return m


def test_mat2_identity_and_det():
    i = Mat2.identity()
    assert i.is_identity()
    assert i.det() == 1
    m = rand_mat()
    assert (m * i) == m
    assert (i * m) == m


def test_mat2_mul_associative():
    for _ in range(50):
        a, b, c = rand_mat(), rand_mat(), rand_mat()
        assert (a * b) * c == a * (b * c)
        assert (a * b).det() == a.det() * b.det()


def test_mat2_inverse_and_transpose():
    for _ in range(50):
        m = rand_mat()
        assert (m * m.inverse()).is_identity()
        assert (m.inverse() * m).is_identity()
        assert m.transpose().transpose() == m
        assert m.transpose().det() == m.det()
    with pytest.raises(ZeroDivisionError):
        Mat2(Fraction(1), Fraction(2), Fraction(2), Fraction(4)).inverse()


def test_gen_power_closed_form():
    tau = Fraction(5, 3)
    assert gen_power(G, 4, tau) == Mat2(Fraction(1), Fraction(4),
                                        Fraction(0), Fraction(1))
    assert gen_power(H, -2, tau) == Mat2(Fraction(1), Fraction(0),
                                         Fraction(-10, 3), Fraction(1))
    # power law: g^a g^b = g^(a+b), same for h
    for tag in (G, H):
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        assert gen_power(tag, a, tau) * gen_power(tag, b, tau) == \
            gen_power(tag, a + b, tau)
    with pytest.raises(ValueError):
        gen_power("X", 1, tau)


MAT_ENTRIES = st.one_of(
    st.lists(st.integers(-5, 5), min_size=4, max_size=4),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=4, max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(entries=MAT_ENTRIES, k=st.integers(1, 40))
def test_mat2_power_is_the_repeated_product(entries, k):
    # binary powering against k - 1 left-to-right products, over int and
    # Fraction entries; int matrices keep int entries at every k
    m = Mat2(*entries)
    assert m ** k == reduce(Mat2.__mul__, [m] * k)
    assert m ** 0 == Mat2.identity()
    if all(type(e) is int for e in m):
        assert all(type(e) is int for e in m ** k)


def test_mat2_negative_power_raises():
    # a shift loop that keeps -1 at -1 would never end here
    for m in (Mat2(1, 1, 0, 1), Mat2(Fraction(1, 2), 0, 0, 2)):
        for k in (-1, -2, -7):
            with pytest.raises(ValueError):
                m ** k


# --- words -------------------------------------------------------------

def test_expword_construction_and_end():
    w = ExpWord(G, (1, -2, 3))
    assert len(w) == 3
    assert w.end == G
    assert ExpWord(G, (1, 2)).end == H
    assert ExpWord(H, (1,)).end == H
    with pytest.raises(ValueError):
        ExpWord("Q", (1,))
    with pytest.raises(ValueError):
        ExpWord(G, ())


def test_expword_takes_integral_exponents_only():
    # (1.5, 2.9) was truncated to (1, 2) without a word; an integer-valued
    # Fraction is not an int either
    for exps in ((1.5, 2.9), (Fraction(1, 2),), (1, Fraction(3)), ("1",)):
        with pytest.raises(TypeError):
            ExpWord(G, exps)
    assert ExpWord(G, (True, 2)).exponents == (1, 2)
    assert all(type(a) is int for a in ExpWord(H, (True, 2)).exponents)


def test_expword_letters_alternate():
    w = ExpWord(H, (2, 3, -1, 5))
    tags = [tag for tag, _ in w.letters()]
    assert tags == [H, G, H, G]
    for t in tags:
        assert other_tag(other_tag(t)) == t


def test_expword_inverse():
    for _ in range(100):
        w = rand_word()
        tau = rand_tau()
        m = eval_word(w, tau)
        assert eval_word(w.inverse(), tau) == m.inverse()
        assert w.inverse().inverse() == w


def test_expword_concat():
    w = ExpWord(G, (1, 2))  # ends H
    v = ExpWord(G, (3,))    # must start G to continue
    assert w.concat(v).exponents == (1, 2, 3)
    with pytest.raises(ValueError):
        w.concat(ExpWord(H, (3,)))
    for _ in range(50):
        a, b = rand_word(), rand_word()
        if b.start == other_tag(a.end):
            tau = rand_tau()
            assert eval_word(a.concat(b), tau) == \
                eval_word(a, tau) * eval_word(b, tau)


def test_expword_flags():
    assert ExpWord(G, (1, 2, 3)).is_positive
    assert not ExpWord(G, (1, -2)).is_positive
    assert ExpWord(G, (1, -2)).is_reduced
    assert not ExpWord(G, (1, 0, 2)).is_reduced


# D and E member ratios F_{k+2}/F_k and H_{k+1}/P_k at |k| in [250, 320]
LARGE_MEMBER_TAUS = [family_tau(family, sign * k) for family in ("D", "E")
                     for k in range(250, 321, 7) for sign in (1, -1)]


WORD_TAUS = st.one_of(
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
    st.fractions(min_value=-30, max_value=30, max_denominator=10**6),
    st.integers(-30, 30),
    st.sampled_from(LARGE_MEMBER_TAUS),
    st.just(UniPoly.var()),
)
WORD_EXPONENTS = st.lists(st.integers(-9, 9), min_size=1, max_size=12)


@settings(max_examples=400, deadline=None)
@given(start=st.sampled_from([G, H]), exps=WORD_EXPONENTS, tau=WORD_TAUS)
def test_eval_word_matches_the_product_of_generator_powers(start, exps, tau):
    # the column-operation loop against the left-to-right Mat2 product;
    # zero exponents included.  A rational tau runs over one common integer
    # denominator, so also require Fraction entries back
    w = ExpWord(start, tuple(exps))
    expected = reduce(Mat2.__mul__, (gen_power(tag, a, tau) for tag, a in w.letters()))
    got = eval_word(w, tau)
    assert got == expected
    if isinstance(tau, Fraction):
        assert all(type(e) is Fraction for e in got)


@settings(max_examples=400, deadline=None)
@given(start=st.sampled_from([G, H]), exps=WORD_EXPONENTS, tau=WORD_TAUS)
def test_scaled_product_divided_out_is_the_product_of_generator_powers(start, exps, tau):
    # the one word kernel, unreduced: N / den with den = q^(number of
    # h-letters), zero exponents included
    w = ExpWord(start, tuple(exps))
    expected = reduce(Mat2.__mul__, (gen_power(tag, a, tau) for tag, a in w.letters()))
    *n, den = scaled_product(w, tau)
    q = tau.denominator if isinstance(tau, Fraction) else 1
    assert den == q ** sum(tag == H for tag, _ in w.letters())
    if isinstance(tau, Fraction):
        n = [Fraction(x, den) for x in n]
    assert Mat2(*n) == expected


def test_eval_word_unimodular():
    for _ in range(100):
        w, tau = rand_word(), rand_tau()
        assert eval_word(w, tau).det() == 1


def test_word_from_exponents():
    w = word_from_exponents([1, -2, 3])
    assert w.start == G and w.exponents == (1, -2, 3)
    assert word_from_exponents((5,), start=H).start == H


# --- polynomials -------------------------------------------------------

def rand_poly(deg=5, bound=9):
    return UniPoly(tuple(rng.randint(-bound, bound)
                         for _ in range(rng.randint(0, deg + 1))))


def test_unipoly_takes_integral_coefficients_only():
    # (1/2, 3) was truncated to (0, 3), and (2.9,) to (2,), without a word;
    # an integer-valued Fraction is not an int either
    for coeffs in ((Fraction(1, 2), 3), (2.9,), (Fraction(4), 1), ("7",)):
        with pytest.raises(TypeError):
            UniPoly(coeffs)
    assert UniPoly((True, 0)).coeffs == (1,)
    assert type(UniPoly((True,)).coeffs[0]) is int


def test_unipoly_trims_and_degree():
    assert UniPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert UniPoly((0,)).is_zero
    assert UniPoly.zero().degree() == -1
    assert UniPoly.var().degree() == 1
    assert UniPoly.const(7).evaluate(Fraction(100)) == 7


def test_unipoly_ring_laws_against_evaluation():
    for _ in range(200):
        a, b = rand_poly(), rand_poly()
        t = rand_tau()
        assert (a + b).evaluate(t) == a.evaluate(t) + b.evaluate(t)
        assert (a - b).evaluate(t) == a.evaluate(t) - b.evaluate(t)
        assert (a * b).evaluate(t) == a.evaluate(t) * b.evaluate(t)
        assert (-a).evaluate(t) == -a.evaluate(t)
        assert a.scale(3).evaluate(t) == 3 * a.evaluate(t)
        assert a * b == b * a
        assert a + b == b + a


def _padded(a, n):
    return list(a.coeffs) + [0] * (n - len(a.coeffs))


polys = st.lists(st.integers(-10**12, 10**12) | st.just(0), max_size=6).map(
    lambda c: UniPoly(tuple(c)))


@settings(max_examples=300, deadline=None)
@given(a=polys, b=polys, c=st.sampled_from([0, 1, -1]) | st.integers(-10**6, 10**6))
def test_unipoly_operations_match_the_public_constructor(a, b, c):
    # the naive reference for the ring operations: each builds its result
    # through the one constructor and must equal UniPoly(...) of the
    # coefficients computed naively, as ints with trailing zeros trimmed
    n = max(len(a.coeffs), len(b.coeffs))
    pa, pb, pc = _padded(a, n), _padded(b, n), _padded(a, 1)
    prod = [0] * (len(a.coeffs) + len(b.coeffs))
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            prod[i + j] += x * y
    cases = [
        (a + b, [x + y for x, y in zip(pa, pb)]),
        (a - b, [x - y for x, y in zip(pa, pb)]),
        (-a, [-x for x in a.coeffs]),
        (a * b, prod),
        (a * c, [c * x for x in a.coeffs]),
        (c * a, [c * x for x in a.coeffs]),
        (a + c, [pc[0] + c] + pc[1:]),
        (a.scale(c), [c * x for x in a.coeffs]),
    ]
    for got, coeffs in cases:
        assert got == UniPoly(tuple(coeffs))
        assert all(type(x) is int for x in got.coeffs)
        assert not got.coeffs or got.coeffs[-1] != 0


def test_unipoly_divide_by_var():
    p = UniPoly((0, 3, -1))
    assert p.divide_by_var() == UniPoly((3, -1))
    with pytest.raises(ArithmeticError):
        UniPoly((2, 1)).divide_by_var()
    assert UniPoly.zero().divide_by_var().is_zero


def test_unipoly_render():
    assert UniPoly((11, -23, 7)).render() == "7*tau^2 - 23*tau + 11"
    assert UniPoly((0, 1)).render() == "tau"
    assert UniPoly((0, -1)).render() == "-tau"
    assert UniPoly((5,)).render() == "5"
    assert UniPoly.zero().render() == "0"
    assert UniPoly((0, 0, 1)).render("x") == "x^2"


def test_symbolic_matches_numeric():
    for _ in range(100):
        w = rand_word()
        tau = rand_tau()
        assert eval_word_symbolic(w).specialize(tau) == eval_word(w, tau)


def test_symbolic_det_is_one():
    for _ in range(30):
        w = rand_word()
        assert eval_word_symbolic(w).det() == UniPoly.const(1)


def test_gen_power_symbolic_bad_tag():
    with pytest.raises(ValueError):
        gen_power("Z", 1, UniPoly.var())
