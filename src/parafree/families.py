"""The five infinite families of non-free tau values, the integer sequences
driving them, the exceptional small cases, and high-precision accumulation
targets.

Family tags:
    A          tau = ((2k-1)/2k)^2         candidate (1, -1, -k, k(4k+4))
    B          tau = ((n-1)/n)^2           candidate (1, (6/s_{k+1}) u_k^2,
               with n = 6/(s0 s1) u_k u_{k+1}        (6/s_k) u_{k+1}^2, 1)
    C_general  tau = (2k+1)/k              candidate (k, -1, 1, -1, k, x)
    C_even     tau = (2k+1)/k, k = 2t      candidate (1, -1, 1, -t, -4t^2+2t-2)
    C_quad     tau = (2k+1)/k, k = t(t+1)/2 - 1
                                           candidate (1, -1, 1, -t+1, -t-2)
    D          tau = F_{k+2}/F_k           candidate (1, -1, 1, -1, 2(-1)^k F_{k-1} F_k)
    E          tau = H_{k+1}/P_k           candidate (N, -1, 1, -1, 1, -1, 1, -1, N, x)
                                           with N = (-1)^k P_{k-1} P_k

The negative branch of each family is reached through negative k (for A and
C this folds the +/- variant of the numerator into a single formula).

One private builder, `_member`, states each family's tau, candidate, default
x and preconditions; `family_tau`, `family_instance` and `family_lookup`
take their members from it.  Every sequence term is read off a power of a
2x2 integer matrix, `Mat2 ** k` by binary powering, so a member at k costs
O(log k) matrix products.  The lookup inverts every formula on the integers
p, q of tau = p/q in lowest terms, with integer products and no square
root: A and B need (q + 1 - p)^2 = 4q, that is p and q squares with
|sqrt(p) - sqrt(q)| = 1 (A: sqrt(q) even; B: sqrt(p) = sqrt(q) - 1,
inverted by binary lifting over the repeated squares, O(log k) matrix
squares plus as many matrix-vector steps, only for the sigma whose
6/(s0 s1) divides sqrt(q)), C needs |p - 2q| = 1, and D (E) needs
Cassini's identity r^2 + r q - q^2 = +-1 (r^2 + 2 r q - q^2 = +-1) for
r = p - 2q (p - 3q) before its sequence is walked up to q, one term at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, prod
from typing import Iterable, Optional, Sequence

from .exact import ExpWord, G, Mat2, as_int, as_ints, check_tau
from .halfrel import (
    Candidate,
    RelationKind,
    RelationWitness,
    build_relation,
    classify_signs,
    is_half_relation,
    relation_words,
)

FAMILIES = ("A", "B", "C_general", "C_even", "C_quad", "D", "E")

SigmaPair = tuple[int, int]


def validate_sigma(sigma: Sequence[int]) -> SigmaPair:
    """sigma as a pair of distinct values in {1, 2, 3}: TypeError if a
    value is not an int or is a bool (`exact.as_ints`), ValueError
    otherwise."""
    s = as_ints(sigma)
    if len(s) != 2 or s[0] not in (1, 2, 3) or s[1] not in (1, 2, 3) or s[0] == s[1]:
        raise ValueError(f"sigma must be a pair of distinct values in {{1,2,3}}, got {sigma}")
    return s  # type: ignore[return-value]


def validate_options(
    family: str, sigma: Optional[Sequence[int]], x: Optional[int]
) -> Optional[SigmaPair]:
    """The validated sigma of a member's options, or raise: family B needs
    sigma and no other family takes one; only C_general and E take the
    free trailing exponent x, which must be nonzero (a zero entry gives no
    relation)."""
    if family == "B" and sigma is None:
        raise ValueError("family B requires sigma")
    if family != "B" and sigma is not None:
        raise ValueError(f"family {family} takes no sigma")
    if x is not None and family not in ("C_general", "E"):
        raise ValueError(f"family {family} takes no x")
    if x == 0:
        raise ValueError(f"family {family} requires x != 0")
    return None if sigma is None else validate_sigma(sigma)


def u_seq(sigma: Sequence[int], k: int) -> int:
    """The doubly infinite sequence with u_0 = u_1 = 1 and
    u_{k+1} = 2*sigma_{k mod 2}*u_k - u_{k-1}."""
    return _b_terms(validate_sigma(sigma), k)[1]


def family_n(sigma: Sequence[int], k: int) -> int:
    """n = 6/(s0 s1) * u_k * u_{k+1} for family B."""
    return _b_terms(validate_sigma(sigma), k)[0]


def _b_step(s: SigmaPair) -> Mat2:
    """T = A(s0) A(s1) with A(x) = (2x -1; 1 0): for odd j it maps
    (u_j, u_{j-1}) to (u_{j+2}, u_{j+1})."""
    return Mat2(4 * s[0] * s[1] - 1, -2 * s[0], 2 * s[1], -1)


def _row_sums(t: Mat2) -> tuple[int, int]:
    """t (1, 1): (u_{2m+1}, u_{2m}) for t = T^m, as (u_1, u_0) = (1, 1)."""
    e11, e12, e21, e22 = t
    return e11 + e12, e21 + e22


def _b_terms(s: SigmaPair, k: int) -> tuple[int, int, int]:
    """(n_k, u_k, u_{k+1}) for a validated sigma and any k; n_k = 6/(s0 s1) u_k u_{k+1}.
    TypeError if k is not an int or is a bool (`exact.as_int`)."""
    if (k := as_int(k)) < 0:
        # the recurrence run backwards is the recurrence run forwards for
        # the swapped pair: u_k = u'_{1-k}, so (u_k, u_{k+1}) = (u'_{1-k}, u'_{-k})
        n, u_next, u = _b_terms((s[1], s[0]), -k)
        return n, u, u_next
    u_odd, u_even = _row_sums(_b_step(s) ** (k // 2))  # k = 2m or 2m+1
    if k % 2:
        u, u_next = u_odd, 2 * s[1] * u_odd - u_even  # one A(s1) step
    else:
        u, u_next = u_even, u_odd
    return 6 // (s[0] * s[1]) * u * u_next, u, u_next


def _lucas(c: int, k: int) -> tuple[int, int]:
    """(X_{k-1}, X_k) for any k, for X_{m+1} = c X_m + X_{m-1} from X_0 = 0,
    X_1 = 1: Fibonacci for c = 1, Pell P for c = 2.  Q^k = (X_{k+1} X_k;
    X_k X_{k-1}) with Q = (c 1; 1 0), and Q^-1 = (0 1; 1 -c) for k < 0.
    TypeError if k is not an int or is a bool (`exact.as_int`)."""
    q = Mat2(c, 1, 1, 0) if (k := as_int(k)) >= 0 else Mat2(0, 1, 1, -c)
    _, x_k, _, x_prev = q ** abs(k)
    return x_prev, x_k


def fib(k: int) -> int:
    """Doubly infinite Fibonacci numbers, F_1 = F_2 = 1."""
    return _lucas(1, k)[1]


def pell(k: int) -> tuple[int, int]:
    """(H_k, P_k) = (1 2; 1 1)^k applied to (1, 0), for any k; H_k = P_k + P_{k-1}."""
    p_prev, p = _lucas(2, k)
    return p + p_prev, p


def markov_poly(sigma: Sequence[int], x: int, y: int) -> Fraction:
    """1 + s0*s1 + (6/s1) x^2 + (6/s0) y^2 - 12 x y, exactly: TypeError if
    x or y is not an int or is a bool (`exact.as_int`)."""
    s0, s1 = validate_sigma(sigma)
    x, y = as_int(x), as_int(y)
    return (
        Fraction(1 + s0 * s1)
        + Fraction(6, s1) * x * x
        + Fraction(6, s0) * y * y
        - 12 * x * y
    )


@dataclass(frozen=True)
class FamilyInstance:
    family: str
    k: int
    sigma: Optional[SigmaPair]
    x: Optional[int]
    tau: Fraction
    candidate: Candidate
    exceptional: bool
    identity_word: Optional[ExpWord] = None

    @property
    def kind(self) -> RelationKind:
        return classify_signs(self.candidate)


# Explicit relation words for the two cases where the formula candidate
# degenerates (a zero coefficient) but the value is still non-free.
EXCEPTIONAL_TAU2_WORD = ExpWord(G, (2, -1, 1, -2, 1, -1))  # tau = 2
EXCEPTIONAL_TAU3_WORD = ExpWord(G, (1, -1, 1, -1, 1, -1))  # tau = 3


def _quad_param(k: int) -> int:
    """The t >= 0 with k = t(t+1)/2 - 1, or raise."""
    disc = 8 * k + 9
    r = isqrt(max(disc, 0))
    if r * r != disc or r % 2 == 0:
        raise ValueError(f"k={k} is not of the form t(t+1)/2 - 1")
    t = (r - 1) // 2
    assert t * (t + 1) // 2 - 1 == k
    return t


def _member(
    family: str,
    k: int,
    sigma: Optional[Sequence[int]] = None,
    x: Optional[int] = None,
) -> FamilyInstance:
    """The member (family, k), not yet verified: the one statement of each
    family's tau, candidate, default x and preconditions, walking its
    sequence once.  Raises ValueError when k fails the preconditions or the
    options do not fit the family (`validate_options`), and TypeError when
    k is not an int or is a bool (`exact.as_int`)."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    k = as_int(k)
    sig = validate_options(family, sigma, x)
    if k == 0 and family != "B":
        raise ValueError(f"family {family} requires k != 0")
    parity = 1 if k % 2 == 0 else -1
    word: Optional[ExpWord] = None
    if family == "A":
        tau = Fraction((2 * k - 1) ** 2, (2 * k) ** 2)
        candidate: Candidate = (1, -1, 1, 14, 2) if k == -1 else (1, -1, -k, k * (4 * k + 4))
    elif family == "B":
        assert sig is not None
        n, u, u_next = _b_terms(sig, k)
        if n == 1:
            raise ValueError("degenerate tau=0 (n = 1)")
        tau = Fraction((n - 1) ** 2, n * n)
        candidate = (1, (6 // sig[(k + 1) % 2]) * u * u, (6 // sig[k % 2]) * u_next * u_next, 1)
    elif family == "D":
        if k == -2:
            raise ValueError("degenerate tau=0 (k = -2)")
        f_prev, f_k = _lucas(1, k)
        tau = Fraction(f_prev + 2 * f_k, f_k)  # F_{k+2} = F_{k-1} + 2 F_k
        candidate = (1, -1, 1, -1, 2 * parity * f_prev * f_k)
        word = EXCEPTIONAL_TAU2_WORD if k == 1 else None
    elif family == "E":
        p_prev, p_k = _lucas(2, k)
        tau = Fraction(p_prev + 3 * p_k, p_k)  # H_{k+1} = P_{k+1} + P_k = P_{k-1} + 3 P_k
        n_val = parity * p_prev * p_k  # 0 at k = 1
        word = EXCEPTIONAL_TAU3_WORD if k == 1 else None
        x = (-1 if n_val > 0 else 1) if x is None else x
        candidate = (n_val, -1, 1, -1, 1, -1, 1, -1, n_val, x)
    elif family == "C_general":
        tau = Fraction(2 * k + 1, k)
        x = (-1 if k > 0 else 1) if x is None else x
        candidate = (k, -1, 1, -1, k, x)
    elif family == "C_even":
        if k % 2 != 0:
            raise ValueError("family C_even requires even k")
        tau, t = Fraction(2 * k + 1, k), k // 2
        candidate = (1, -1, 1, -t, -4 * t * t + 2 * t - 2)
    else:  # C_quad
        tau, t = Fraction(2 * k + 1, k), _quad_param(k)
        candidate = (1, -1, 1, -t + 1, -t - 2)
    exceptional = word is not None or (family == "A" and k == -1)
    return FamilyInstance(family, k, sig, x, tau, candidate, exceptional, word)


def _verified(inst: FamilyInstance) -> FamilyInstance:
    """The instance, once its candidate is a half-relation at its tau and
    its identity word, if any, is a relator there: the witness's `check()`
    proves the word nontrivial and equal to the identity on `scaled_product`."""
    if not is_half_relation(inst.candidate, inst.tau):
        raise AssertionError(f"family {inst.family} k={inst.k}: candidate failed verification")
    if inst.identity_word is not None and not instance_witness(inst).check():
        raise AssertionError(f"family {inst.family} k={inst.k}: exceptional word is not a relator")
    return inst


def family_tau(
    family: str, k: int, sigma: Optional[Sequence[int]] = None
) -> Fraction:
    """The tau value of a family member (preconditions checked)."""
    return _member(family, k, sigma).tau


def family_instance(
    family: str,
    k: int,
    sigma: Optional[Sequence[int]] = None,
    x: Optional[int] = None,
) -> FamilyInstance:
    """Construct and verify one family member.

    Raises ValueError when k fails the family's preconditions or when the
    options do not fit the family (`validate_options`).

    Exceptional substitutions: (A, k=-1) returns the length-5 candidate
    (1,-1,1,14,2) for tau = 9/4; (D, k=1) and (E, k=1) carry the explicit
    relation words for tau = 2 and tau = 3 respectively, since the formula
    candidate acquires a zero coefficient there.
    """
    return _verified(_member(family, k, sigma, x))


def instance_words(inst: FamilyInstance) -> tuple[ExpWord, ExpWord]:
    """The two words of the instance's relation: the identity word and
    g^0 for the exceptional cases, the symmetric pair otherwise."""
    if inst.identity_word is not None:
        return inst.identity_word, ExpWord(G, (0,))  # g^0 evaluates to the identity
    return relation_words(inst.candidate)


def instance_witness(inst: FamilyInstance) -> RelationWitness:
    """A verified RelationWitness for the instance (identity-word relation
    for the exceptional cases, the symmetric relation otherwise)."""
    if inst.identity_word is not None:
        return RelationWitness(inst.tau, *instance_words(inst), RelationKind.GROUP_NONTRIVIAL)
    return build_relation(inst.candidate, inst.tau)


def enumerate_n_values(sigma: Sequence[int], k_range: Iterable[int]) -> list[int]:
    """The Markov-like n values 6/(s0 s1) u_k u_{k+1}, deduplicated, ascending."""
    return sorted({family_n(sigma, k) for k in k_range})


# --- lookup by exact inversion -------------------------------------------

_SIGMA_PAIRS = [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]


def _b_indices(s: SigmaPair, n: int) -> list[int]:
    """The k >= 0 with n_k == n, ascending.  n_k never decreases in k, and
    n_0 = n_1 is its only tie, so binary lifting over the repeated squares
    of T (`_b_step`) finds the largest m with n_{2m} <= n (m = 0 if none),
    and only k = 2m - 1, 2m, 2m + 1 can match.  The squares are matrices;
    the lift carries only the vector T^m (1, 1), four products a step."""
    c, squares = 6 // (s[0] * s[1]), [_b_step(s)]  # T^(2^j) for j = 0, 1, ...
    while c * prod(_row_sums(squares[-1])) <= n:  # n_{2^(j+1)}
        squares.append(squares[-1] * squares[-1])
    m, u_odd, u_even = 0, 1, 1  # T^m (1, 1) = (u_{2m+1}, u_{2m})
    for j in reversed(range(len(squares) - 1)):  # m < 2^J for the last square T^(2^J)
        s11, s12, s21, s22 = squares[j]
        x, y = s11 * u_odd + s12 * u_even, s21 * u_odd + s22 * u_even
        if c * x * y <= n:  # n_{2m} = c u_{2m} u_{2m+1}
            m, u_odd, u_even = m + (1 << j), x, y
    u_prev, u_next = 2 * s[0] * u_even - u_odd, 2 * s[1] * u_odd - u_even  # u_{2m-1}, u_{2m+2}
    pairs = ((u_prev, u_even), (u_even, u_odd), (u_odd, u_next))  # (u_k, u_{k+1})
    return [k for k, (a, b) in enumerate(pairs, 2 * m - 1) if k >= 0 and c * a * b == n]


def _family_candidates(p: int, q: int) -> list[tuple[str, int, Optional[SigmaPair]]]:
    """(family, k, sigma) for each member that may have tau = p/q, in
    lowest terms with q >= 1, found by inverting each family formula, in
    lookup order.  Each family is tested on p and q with integer products
    alone."""
    out: list[tuple[str, int, Optional[SigmaPair]]] = []
    # families A and B: p = (sq -+ 1)^2 with q = sq^2 exactly when
    # (q + 1 - p)^2 = 4q, and then d = q + 1 - p = +-2 sq
    d = q + 1 - p
    if d * d == 4 * q:
        sq = abs(d) // 2
        # family A: sqrt(tau) = |2k-1|/|2k| in lowest terms, so sq is even
        # and sqrt(p) = sq - 1 (d > 0) for k > 0, sq + 1 for k < 0
        if sq % 2 == 0:
            out.append(("A", sq // 2 if d > 0 else -(sq // 2), None))
        # family B: sqrt(tau) = (n-1)/n with n = sq; n_k = 6/(s0 s1) u_k u_{k+1},
        # so only a sigma whose 6/(s0 s1) divides n can match.  One walk per
        # such sigma; family_n(sigma, -j) = family_n(swapped sigma, j)
        if d > 0:
            ks = {sigma: _b_indices(sigma, sq) for sigma in _SIGMA_PAIRS
                  if sq % (6 // (sigma[0] * sigma[1])) == 0}
            for sigma, found in ks.items():
                out += [("B", k, sigma) for k in found + [-j for j in ks[sigma[::-1]] if j > 0]]
    # family C: tau - 2 = (p - 2q)/q with gcd(p - 2q, q) = 1, so
    # k = 1/(tau - 2) is an integer iff |p - 2q| = 1, and then k = q (p - 2q)
    if abs(p - 2 * q) == 1:
        out += [(family, q * (p - 2 * q), None) for family in ("C_general", "C_even", "C_quad")]
    # families D and E: tau = t + X_{k-1}/X_k with t = 2, X = F (D) or t = 3,
    # X = P (E), for X_{m+1} = c X_m + X_{m-1}, in lowest terms, so q = |X_k|
    # and r = p - t q = +-X_{k-1}.  Cassini's identity X_{k+1} X_{k-1} - X_k^2
    # = (-1)^k makes r^2 + c r q - q^2 = +-1; only then walk X up to q and
    # try every k = +-m with X_m = q (|X_{-m}| = X_m).  tau is >= t for
    # k > 0 and <= 1 for k < 0, so p >= t q fixes the sign of k
    for family, c, x, x_next, t in (("D", 1, 1, 1, 2), ("E", 2, 1, 2, 3)):
        r = p - t * q
        if abs(r * r + c * r * q - q * q) != 1:
            continue
        sign, m = 1 if p >= t * q else -1, 1
        while x <= q:
            if x == q:
                out.append((family, sign * m, None))
            m, x, x_next = m + 1, x_next, c * x_next + x
    return out


def family_lookup(tau: Fraction) -> list[FamilyInstance]:
    """All family instances whose tau equals the input, found by exact
    inversion of each family formula; each is verified before return.

    Every family tau is positive, so tau <= 0 gets [] before any
    arithmetic.  A and B are squares of nonzero rationals: 2k - 1 is odd,
    and n = 1, the one n with (n-1)/n = 0, is rejected.  C is (2k+1)/k,
    whose terms share the sign of k != 0.  D is F_{k+2}/F_k and E is
    H_{k+1}/P_k, each a ratio of two terms of one sign.  For k > 0 every
    term is positive.  For k = -m < 0, X_{-j} = (-1)^(j+1) X_j (X = F or
    P) gives F_k and P_k the sign (-1)^(m+1), and so F_{k+2} = F_{2-m}
    (at m = 1, F_1 = 1; m = 2, where F_0 = 0, is rejected) and H_{k+1} =
    P_{1-m} + P_{-m} = (-1)^(m+1) (P_m - P_{m-1}), as P_m > P_{m-1}.
    TypeError unless tau is an int or a Fraction (`exact.check_tau`)."""
    check_tau(tau)
    if tau <= 0:
        return []
    out: list[FamilyInstance] = []
    for family, k, sigma in _family_candidates(tau.numerator, tau.denominator):
        try:
            inst = _member(family, k, sigma)
        except ValueError:
            continue  # k fails the family's preconditions
        if inst.tau == tau:
            out.append(_verified(inst))
    return out


# --- accumulation targets ----------------------------------------------

@dataclass(frozen=True)
class AccumulationTarget:
    family: str
    direction: int  # sign of k
    description: str
    approx: Fraction  # scaled-integer-square-root approximation
    digits: int


def sqrt_fraction(n: int, digits: int) -> Fraction:
    """floor(sqrt(n) * 10^digits) / 10^digits via integer square root."""
    scale = 10**digits
    return Fraction(isqrt(n * scale * scale), scale)


def accumulation_target(family: str, direction: int, digits: int = 50) -> AccumulationTarget:
    """The limit of tau_k on the sign branch of direction, to `digits`
    decimals; TypeError if either is not an int or is a bool (`exact.as_int`)."""
    d, digits = 1 if as_int(direction) > 0 else -1, as_int(digits)
    if family in ("A", "B"):
        return AccumulationTarget(family, d, "1", Fraction(1), digits)
    if family in ("C_general", "C_even", "C_quad"):
        return AccumulationTarget(family, d, "2", Fraction(2), digits)
    if family == "D":
        s5 = sqrt_fraction(5, digits)
        if d > 0:
            return AccumulationTarget(family, d, "phi^2 = (3+sqrt(5))/2", (3 + s5) / 2, digits)
        return AccumulationTarget(family, d, "phi^-2 = (3-sqrt(5))/2", (3 - s5) / 2, digits)
    if family == "E":
        s2 = sqrt_fraction(2, digits)
        if d > 0:
            return AccumulationTarget(family, d, "2+sqrt(2)", 2 + s2, digits)
        return AccumulationTarget(family, d, "2-sqrt(2)", 2 - s2, digits)
    raise ValueError(f"unknown family {family!r}")


def accumulation_report(
    family: str,
    k_range: Iterable[int],
    sigma: Optional[Sequence[int]] = None,
    digits: int = 50,
) -> list[tuple[int, Fraction, Fraction]]:
    """(k, tau_k, |tau_k - target|) for each k that meets the family's
    preconditions, using the matching sign-branch target at the given
    precision."""
    # a bad family or sigma fails every k: raise rather than skip them all
    targets = {d: accumulation_target(family, d, digits).approx for d in (1, -1)}
    validate_options(family, sigma, None)
    rows = []
    for k in k_range:
        try:
            tau = family_tau(family, k, sigma)
        except ValueError:
            continue
        rows.append((k, tau, abs(tau - targets[1 if k > 0 else -1])))
    return rows
