"""Bounded exhaustive discovery of half-relations with exact pruning.

The enumeration is depth-first over exponent prefixes.  The defect is
affine in the final exponent, and the solve's two coefficients are affine
in the one before it, so each node extends its prefix by two positions in
one loop: for each a the next b is read off exactly (O(B^{l-1}) instead of
O(B^l)).  A nonzero tuple of length 1 or 2 has defect tau*a_1 or
tau*a_1*a_2, so those lengths have no solutions and are skipped.  All
matrix arithmetic is done on integer matrices scaled by q^(#h-letters),
where tau = p/q, so the hot loop never touches rational numbers.

Conjugating by diag(1,-1) maps the word of a to the word of -a with c12
and c21 negated, so defect(-a) = +-defect(a) and the half-relations are
closed under negation.  NONZERO_ANY therefore searches only a_1 > 0 and
adds the negation of every hit.  `freeness.classify_tau` reads the
all-positive hits off its unlimited NONZERO_ANY report instead of running
an ALL_POSITIVE search.
"""

from __future__ import annotations

import enum
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .halfrel import Candidate, defect, negate


class SignMode(enum.Enum):
    NONZERO_ANY = "nonzero_any"
    ALL_POSITIVE = "all_positive"
    ALTERNATING = "alternating"


MAX_LEN_LIMIT = 12
DEFAULT_RESULT_LIMIT = 1000


@dataclass(frozen=True)
class SearchQuery:
    tau: Fraction
    max_len: int
    bound: int
    sign_mode: SignMode = SignMode.NONZERO_ANY
    result_limit: int = DEFAULT_RESULT_LIMIT

    def __post_init__(self) -> None:
        if self.tau == 0:
            raise ValueError("tau must be nonzero (every tuple is a half-relation at 0)")
        if not 1 <= self.max_len <= MAX_LEN_LIMIT:
            raise ValueError(f"max_len must be in [1, {MAX_LEN_LIMIT}]")
        if self.bound < 1:
            raise ValueError("bound must be >= 1")
        if self.result_limit is not None and self.result_limit < 1:
            raise ValueError("result_limit must be >= 1")


@dataclass(frozen=True)
class SearchReport:
    query: SearchQuery
    hits: tuple[Candidate, ...]
    exhausted: bool


# per 1-indexed position: the allowed exponents and their range (lo, hi)
Positions = list[tuple[range | list[int], int, int]]


def _positions(max_len: int, bound: int, mode: SignMode) -> Positions:
    """The allowed exponents at positions 1..max_len (index 0 unused).

    ALTERNATING is canonicalized to the orientation with a_1 < 0."""
    pos = range(1, bound + 1), 1, bound
    neg = range(-bound, 0), -bound, -1
    if mode is SignMode.ALL_POSITIVE:
        odd = even = pos
    elif mode is SignMode.ALTERNATING:
        odd, even = neg, pos
    else:
        odd = even = [*neg[0], *pos[0]], -bound, bound
    return [odd if l % 2 == 1 else even for l in range(max_len + 1)]


def _dfs(p: int, q: int, exps: tuple[int, ...],
         n11: int, n12: int, n21: int, n22: int,
         max_len: int, positions: Positions, out: list[Candidate]) -> None:
    """Extend exps, whose word is the scaled matrix (n11 n12; n21 n22), by
    (a, b): b is solved for each allowed a, and exps + (a,) is recursed
    into while a longer hit fits."""
    l = len(exps) + 1  # the position of a
    # the solve for b after a has coeff = c1*a + c0 and const = k0 + k1*a
    if l % 2 == 1:
        # after g^a: coeff p*(n11*a + n12), const q*(n11 - n21*a - n22)
        c1, c0, k0, k1 = p * n11, p * n12, q * (n11 - n22), -q * n21
    else:
        # after h^a: coeff p*(q*n11 + p*n12*a), const q*(p*n12 - q*n21 - p*n22*a)
        c1, c0, k0, k1 = p * p * n12, p * q * n11, q * (p * n12 - q * n21), -q * p * n22
    deeper = len(exps) + 3 <= max_len  # the child's hits have that length
    last_values, lo, hi = positions[l + 1]
    for a in positions[l][0]:
        coeff, const = c1 * a + c0, k0 + k1 * a
        if coeff:
            if const % coeff == 0:
                b = -const // coeff
                if lo <= b <= hi and b:  # NONZERO_ANY's range holds 0
                    out.append(exps + (a, b))
        elif const == 0:
            out.extend(exps + (a, b) for b in last_values)
        if deeper:
            if l % 2 == 1:
                _dfs(p, q, exps + (a,),
                     n11, n11 * a + n12, n21, n21 * a + n22,
                     max_len, positions, out)
            else:
                _dfs(p, q, exps + (a,),
                     n11 * q + n12 * a * p, n12 * q, n21 * q + n22 * a * p, n22 * q,
                     max_len, positions, out)


def _search_branch(args: tuple) -> list[Candidate]:
    """One top-level branch (fixed a_1); the parallelization unit."""
    p, q, a1, max_len, positions = args
    out: list[Candidate] = []
    _dfs(p, q, (a1,), 1, a1, 0, 1, max_len, positions, out)
    return out


def search_half_relations(query: SearchQuery, workers: int = 1) -> SearchReport:
    """Enumerate all half-relations for the query, in shortlex order.

    Deterministic and worker-count independent: branches are split on the
    value of a_1 and merged with a canonical sort.  At most one worker per
    branch is started.
    """
    p, q = query.tau.numerator, query.tau.denominator
    positions = _positions(query.max_len, query.bound, query.sign_mode)
    mirror = query.sign_mode is SignMode.NONZERO_ANY
    hits: list[Candidate] = []
    # a nonzero tuple of length 1 or 2 has defect tau*a_1 or tau*a_1*a_2,
    # never zero at tau != 0, so every hit has length >= 3
    if query.max_len >= 3:
        branch_args = [
            (p, q, a1, query.max_len, positions)
            for a1 in positions[1][0] if a1 > 0 or not mirror
        ]
        workers = min(workers, len(branch_args))
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                branches = list(pool.map(_search_branch, branch_args))
        else:
            branches = [_search_branch(args) for args in branch_args]
        for branch_hits in branches:
            hits.extend(branch_hits)
            if mirror:  # the a_1 < 0 branch is the negation of this one
                hits.extend(negate(hit) for hit in branch_hits)
    hits = sorted(set(hits), key=lambda c: (len(c), c))
    exhausted = True
    if query.result_limit is not None and len(hits) > query.result_limit:
        hits = hits[: query.result_limit]
        exhausted = False
    return SearchReport(query, tuple(hits), exhausted)


def _factorize(m: int, into: dict[int, int]) -> None:
    """Add the prime factorisation of m >= 1 to `into`, by trial division."""
    d = 2
    while d * d <= m:
        while m % d == 0:
            into[d] = into.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        into[m] = into.get(m, 0) + 1


def _divisors(factors: dict[int, int], limit: int | None) -> list[int]:
    """The divisors of the factored number, only those <= limit if given.

    Every divisor of a divisor <= limit is itself <= limit, so stopping a
    prime's powers at the limit loses nothing."""
    divs = [1]
    for p, e in factors.items():
        more = []
        for d in divs:
            for _ in range(e):
                d *= p
                if limit is not None and d > limit:
                    break
                more.append(d)
        divs += more
    return divs


def search_len4_positive(n_from: int, n_to: int,
                         bound: int | None) -> dict[int, list[Candidate]]:
    """All-positive length-4 half-relations for tau = ((n-1)/n)^2.

    For positive solutions, a_1*a_4 < (n/(n-1))^2 is forced, so a_1 and
    a_4 are tiny.  With c = n^2 - a_1*a_4*(n-1)^2, X = c*a_2 - a_4*n^2 and
    Y = c*a_3 - a_1*n^2, the length-4 condition is exactly

        X*Y = a_1*a_4*n^2*(2n^2 - a_1*a_4*(n-1)^2),

    and a_3 >= 1 forces X, Y > 0.  So the solutions are the divisor pairs
    (X, Y) of that product with X + a_4*n^2 and Y + a_1*n^2 both divisible
    by c; no exponent is scanned.  `bound` caps a_2 only (a_3 is accepted
    at any size); `bound=None` gives every solution.  Returns only n with
    a nonempty hit list.
    """
    if not 2 <= n_from <= n_to:
        raise ValueError("need 2 <= n_from <= n_to")
    if bound is not None and bound < 1:
        raise ValueError("bound must be >= 1")
    found: dict[int, list[Candidate]] = {}
    for n in range(n_from, n_to + 1):
        n2 = n * n
        m2 = (n - 1) * (n - 1)
        n_factors: dict[int, int] = {}
        _factorize(n, n_factors)
        hits: list[Candidate] = []
        a1 = 1
        while a1 * m2 < n2:
            a4 = 1
            while (c := n2 - a1 * a4 * m2) > 0:
                limit = None if bound is None else bound * c - a4 * n2
                if limit is None or limit >= 1:
                    factors = {p: 2 * e for p, e in n_factors.items()}
                    for m in (a1, a4, n2 + c):
                        _factorize(m, factors)
                    xy = a1 * a4 * n2 * (n2 + c)
                    for x in _divisors(factors, limit):
                        x2, y3 = x + a4 * n2, xy // x + a1 * n2
                        if x2 % c == 0 and y3 % c == 0:
                            hits.append((a1, x2 // c, y3 // c, a4))
                a4 += 1
            a1 += 1
        if hits:
            tau = Fraction(m2, n2)
            for hit in hits:
                if defect(hit, tau) != 0:  # post-hoc soundness re-check
                    raise AssertionError(f"solver produced a bad hit {hit} for n={n}")
            found[n] = sorted(set(hits))
    return found
