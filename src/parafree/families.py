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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Optional, Sequence

from .exact import ExpWord, G, eval_word
from .halfrel import (
    Candidate,
    RelationKind,
    RelationWitness,
    build_relation,
    classify_signs,
    is_half_relation,
)

FAMILIES = ("A", "B", "C_general", "C_even", "C_quad", "D", "E")

SigmaPair = tuple[int, int]


def validate_sigma(sigma: Sequence[int]) -> SigmaPair:
    s = tuple(int(v) for v in sigma)
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
    return _u_pair(validate_sigma(sigma), k)[0]


def _u_pair(s: SigmaPair, k: int) -> tuple[int, int]:
    """(u_k, u_{k+1}) for a validated sigma, in one walk of the recurrence."""
    if k < 0:
        # the recurrence run backwards is the recurrence run forwards for
        # the swapped pair: u_k = u'_{1-k}, so (u_k, u_{k+1}) = (u'_{1-k}, u'_{-k})
        u_next, u = _u_pair((s[1], s[0]), -k)
        return u, u_next
    u, u_next = 1, 1  # u_0, u_1
    for i in range(1, k + 1):
        u, u_next = u_next, 2 * s[i % 2] * u_next - u
    return u, u_next


def fib(k: int) -> int:
    """Doubly infinite Fibonacci numbers, F_1 = F_2 = 1."""
    if k >= 0:
        a, b = 0, 1
        for _ in range(k):
            a, b = b, a + b
        return a
    m = -k
    sign = 1 if m % 2 == 1 else -1
    return sign * fib(m)


def pell(k: int) -> tuple[int, int]:
    """(H_k, P_k) = (1 2; 1 1)^k applied to (1, 0); negative k uses the
    exact inverse matrix (-1 2; 1 -1)."""
    h, p = 1, 0
    if k >= 0:
        for _ in range(k):
            h, p = h + 2 * p, h + p
    else:
        for _ in range(-k):
            h, p = -h + 2 * p, h - p
    return h, p


def markov_poly(sigma: Sequence[int], x: int, y: int) -> Fraction:
    """1 + s0*s1 + (6/s1) x^2 + (6/s0) y^2 - 12 x y, exactly."""
    s0, s1 = validate_sigma(sigma)
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
    if disc < 0:
        raise ValueError(f"k={k} is not of the form t(t+1)/2 - 1")
    r = isqrt(disc)
    if r * r != disc or (r - 1) % 2 != 0:
        raise ValueError(f"k={k} is not of the form t(t+1)/2 - 1")
    t = (r - 1) // 2
    assert t * (t + 1) // 2 - 1 == k
    return t


def family_tau(
    family: str, k: int, sigma: Optional[Sequence[int]] = None
) -> Fraction:
    """The tau value of a family member (preconditions checked)."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if k == 0 and family != "B":
        raise ValueError(f"family {family} requires k != 0")
    if family == "A":
        return Fraction((2 * k - 1) ** 2, (2 * k) ** 2)
    if family == "B":
        if sigma is None:
            raise ValueError("family B requires sigma")
        n = family_n(sigma, k)
        if n == 1:
            raise ValueError("degenerate tau=0 (n = 1)")
        return Fraction((n - 1) ** 2, n * n)
    if family in ("C_general", "C_even", "C_quad"):
        if family == "C_even" and k % 2 != 0:
            raise ValueError("family C_even requires even k")
        if family == "C_quad":
            _quad_param(k)
        return Fraction(2 * k + 1, k)
    if family == "D":
        if k == -2:
            raise ValueError("degenerate tau=0 (k = -2)")
        return Fraction(fib(k + 2), fib(k))
    # family E: H_{k+1} = H_k + 2 P_k
    h_k, p_k = pell(k)
    return Fraction(h_k + 2 * p_k, p_k)


def family_n(sigma: Sequence[int], k: int) -> int:
    """n = 6/(s0 s1) * u_k * u_{k+1} for family B."""
    s = validate_sigma(sigma)
    u, u_next = _u_pair(s, k)
    return (6 // (s[0] * s[1])) * u * u_next


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
    tau = family_tau(family, k, sigma)
    sig = validate_options(family, sigma, x)
    identity_word = None
    exceptional = False
    used_x: Optional[int] = None

    if family == "A":
        if k == -1:
            candidate: Candidate = (1, -1, 1, 14, 2)
            exceptional = True
        else:
            candidate = (1, -1, -k, k * (4 * k + 4))
    elif family == "B":
        assert sig is not None
        uk, uk1 = _u_pair(sig, k)
        s_k, s_k1 = sig[k % 2], sig[(k + 1) % 2]
        candidate = (1, (6 // s_k1) * uk * uk, (6 // s_k) * uk1 * uk1, 1)
    elif family == "C_general":
        used_x = x if x is not None else (-1 if k > 0 else 1)
        candidate = (k, -1, 1, -1, k, used_x)
    elif family == "C_even":
        t = k // 2
        candidate = (1, -1, 1, -t, -4 * t * t + 2 * t - 2)
    elif family == "C_quad":
        t = _quad_param(k)
        candidate = (1, -1, 1, -t + 1, -t - 2)
    elif family == "D":
        parity = 1 if k % 2 == 0 else -1
        n_val = 2 * parity * fib(k - 1) * fib(k)
        candidate = (1, -1, 1, -1, n_val)
        if k == 1:
            exceptional = True
            identity_word = EXCEPTIONAL_TAU2_WORD
    elif family == "E":
        h_k, p_k = pell(k)
        p_prev = h_k - p_k  # P_{k-1}
        parity = 1 if k % 2 == 0 else -1
        n_val = parity * p_prev * p_k
        if k == 1:
            exceptional = True
            identity_word = EXCEPTIONAL_TAU3_WORD
            used_x = x if x is not None else 1
        else:
            used_x = x if x is not None else (-1 if n_val > 0 else 1)
        candidate = (n_val, -1, 1, -1, 1, -1, 1, -1, n_val, used_x)

    if not is_half_relation(candidate, tau):
        raise AssertionError(f"family {family} k={k}: candidate failed verification")
    if identity_word is not None and not eval_word(identity_word, tau).is_identity():
        raise AssertionError(f"family {family} k={k}: exceptional word is not a relator")
    return FamilyInstance(family, k, sig, used_x, tau, candidate, exceptional, identity_word)


def instance_witness(inst: FamilyInstance) -> RelationWitness:
    """A verified RelationWitness for the instance (identity-word relation
    for the exceptional cases, the symmetric relation otherwise)."""
    if inst.identity_word is not None:
        zero = ExpWord(G, (0,))  # evaluates to the identity
        return RelationWitness(
            inst.tau, inst.identity_word, zero, RelationKind.GROUP_NONTRIVIAL
        )
    return build_relation(inst.candidate, inst.tau)


def enumerate_n_values(sigma: Sequence[int], k_range: Iterable[int]) -> list[int]:
    """The Markov-like n values 6/(s0 s1) u_k u_{k+1}, deduplicated, ascending."""
    return sorted({family_n(sigma, k) for k in k_range})


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
    d = 1 if direction > 0 else -1
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
    if family == "B":
        validate_sigma(sigma or ())
    rows = []
    for k in k_range:
        try:
            tau = family_tau(family, k, sigma)
        except ValueError:
            continue
        rows.append((k, tau, abs(tau - targets[1 if k > 0 else -1])))
    return rows


def format_fixed(x: Fraction, digits: int = 50) -> str:
    """Decimal rendering of a nonnegative fraction, truncated to `digits`."""
    scale = 10**digits
    whole, rem = divmod(abs(x.numerator) * scale // x.denominator, scale)
    sign = "-" if x < 0 else ""
    return f"{sign}{whole}.{str(rem).zfill(digits)}"
