"""Bounded exhaustive discovery of half-relations with exact pruning.

The walk, `_walk`, runs the lengths it is given one at a time, and
`lengths_to_walk` is the one statement of which lengths those are.
A nonzero tuple of length 1 or 2 has defect tau*a_1 or tau*a_1*a_2, so
those lengths have no solutions and are never listed.  For each length
l the walk fixes both ends, a_1 and a_l, walks the middle positions
depth-first, and solves the last free position exactly: the defect is
a linear functional of the prefix matrix with a_l folded in, affine in
a_{l-1} with coefficients affine in a_{l-2}, so one loop over a_{l-2}
reads off every a_{l-1}.  All matrix arithmetic is done on integer
matrices scaled by q^(#h-letters), where tau = p/q, so the hot loop
never touches rational numbers.

Two symmetries prune the walk.  Conjugating by diag(1,-1) maps the word
of a to the word of -a with c12 and c21 negated, so defect(-a) =
+-defect(a).  Reversal keeps the defect.  For even l the reversal's word
has matrix S M^T S^-1 with S = diag(1, tau), an anti-automorphism that
swaps g^a and h^a and keeps c11 and c22; for odd l it has J M^T J with
J = (0 1; 1 0), which fixes g^a and h^a, swaps c11 and c22 and keeps
c12 and c21.  Each length therefore walks only the end pairs with
|a_1| <= |a_l|, and a_1 > 0 for NONZERO_ANY, and its readers add each
hit's images (`_orbit`): the reversal (the negated reversal for
even-length ALTERNATING, whose reversal starts positive), and for
NONZERO_ANY the negation and negated reversal too.  The parallel unit is
a chunk of the a_1 values, one per worker, so at workers = 1 each length
is one `_search_branch` call; the leaf applies |a_1| <= |a_l|.

One walk has two readers, each of which yields per length and can stop
the walk after any length.  `hits_by_length` yields each given length's
hits, the orbit closure sorted, so hits are ordered by (length, tuple):
once the hits of lengths <= l exceed the result limit, the reported ones
are all known and `search_half_relations` stops.
`least_hits_by_length` yields each length's least hit and least
all-positive hit, the minimum over the orbit images with no set and no
sort; `freeness.classify_tau` reads its witnesses off it.

The gate is one cached table per (q, bound), `_root_caps`: (cap_3,
cap_4, cap_5), the largest |p| at which length 3, 4 and >= 5 may hold a
hit at tau = p/q in lowest terms.  `lengths_to_walk` lists the lengths
whose cap is >= |p|, in every sign mode; a tau it leaves no length gets
the empty, exhausted report without a walk or a pool.

No hit exists at |tau| >= 4: a hit has nonzero entries, so it is a
nontrivial relation of <g, h_tau>, which is free there (the Schottky
threshold of `freeness.FREE_SCHOTTKY`), so cap_5 = 4q - 1.

The rational-root theorem bounds the rest.  The defect of a nonzero
tuple is tau * P_l(tau), where P_l has integer coefficients, degree
floor((l-1)/2) and leading coefficient a_1 * a_2 * ... * a_l (the one
path through the word's product that takes an off-diagonal entry at
every letter).  A half-relation at p/q therefore has q | a_1 * ... *
a_l, and with |a_i| <= bound every prime factor of q is <= bound: a q
with a larger prime factor has all three caps 0.

The whole root settles lengths 3 and 4.  There P_l = a_1*...*a_l * tau
+ c_0 is linear, so its one nonzero root is -c_0/(a_1*...*a_l), with
c_0 = a_1 - a_2 + a_3 at l = 3 and a_1 (a_2 + a_4) + a_3 (a_4 - a_2) at
l = 4.  A hit at p/q then has q*m = |a_1*...*a_l| and |p|*m = |c_0| for
an integer m >= 1, so |p| <= q S(x)/P(x), where x is the tuple of the
|a_i|, P(x) their product and S(x) the largest |c_0| over all signs:
x_1 + x_2 + x_3 at l = 3, and max(x_1, x_3)(x_2 + x_4) + min(x_1,
x_3)|x_2 - x_4| at l = 4.  Only the exact factorisations of q count.
S/P does not grow when any one x_i grows, so while a prime divides P(x)
more often than q, dividing one x_i by it keeps q | P(x), keeps every
x_i <= bound and does not lower q S/P; at P(x) = q the ratio is S(x).
So cap_l, l in {3, 4}, is the largest S(x) over the ordered
factorisations q = x_1*...*x_l with every x_i <= bound, or 0 when there
is none.  No cap exceeds 3q (S(x) <= 3 x_1 x_2 x_3 at l = 3 and 2
max(x_1, x_3) max(x_2, x_4) at l = 4), so cap_5 is the largest.  The
gate reads |p| only, so -3 keeps length 3, walked without a hit: only
+-(1, -1, 1) reaches 3, and its root is 3.

Below |tau| = 4 no length l >= 5 is dropped: P_l then has degree >= 2
and c_0 may vanish, as for (1, 2, 1, 1, 1), whose c_0 is 0 and which has
the root tau = -2; p then divides only the lowest nonzero coefficient,
which is cubic or more in the bound and bounds nothing in the search.

Inside the length-4 walk the same root bounds the middle values: |c_0|
<= 2 max(|a_1|, |a_3|) max(|a_2|, |a_4|), so every hit has |tau|
min(|a_1|, |a_3|) min(|a_2|, |a_4|) <= 2, and once |a_4| > 2/|tau| only
the a_2 with |a_2| <= 2/|tau| are walked (the capped table, below).

Inside the walk, q | a_1*...*a_l cuts pairs.  The DFS carries r = q /
gcd(q, product of the prefix), and the b it solves at l - 1 is then a
multiple of r / gcd(r, a*c), so the pair (a, c) is walked only when that
is <= bound.  The a left for each |c| are read from `_cut_table(r,
bound, values at l - 2[, cap])`, which depends on neither p, a_1 nor the
end values, and is built once per key, in one cache of at most
`CUT_CACHE_SIZE` tables.  A pair with coeff = const = 0 is never cut:
there b = +-1 is a hit, so r / gcd(r, a*c) = 1.  Length 3 is not cut by
divisibility: there the a is a_1, whose list the leaf cuts at |c| for
|a_1| <= |c|, so one leaf serves every a_1 of the chunk.  At r <= bound
nothing is cut.  Neither builds an uncapped table.

At l = 4 with cap = 2q // |p| below the bound, the leaf reads its a off
the capped table, `_cut_table(r, bound, middles, cap)` with every r <=
bound keyed as r = 1: the cut lists (the middles at r <= bound), cut to
|a| <= cap past |c| > cap.  A leaf whose own end values, |c| >= |a_1|,
have no a left in it ends before computing its coefficients.  Every leaf
skips an end value with no a before computing its coefficients, and
`_positions` is cached per (max_len, bound, mode).
"""

from __future__ import annotations

import enum
import operator
from bisect import bisect_right
from contextlib import closing, nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import chain, compress, count
from math import gcd, isqrt
from typing import TYPE_CHECKING, Iterator, Sequence

from .exact import check_tau
from .halfrel import Candidate, is_half_relation, negate

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor


class SignMode(enum.Enum):
    NONZERO_ANY = "nonzero_any"
    ALL_POSITIVE = "all_positive"
    ALTERNATING = "alternating"


MAX_LEN_LIMIT = 12
DEFAULT_RESULT_LIMIT = 1000
# the most cut tables, capped or not, that `_cut_table` keeps at once
CUT_CACHE_SIZE = 1024


def check_effort(max_len: int, bound: int, workers: int = 1) -> None:
    """The one statement of the effort limits: TypeError if max_len, bound
    or workers is not an int (`operator.index`), ValueError if max_len is
    outside [1, MAX_LEN_LIMIT], bound < 1 or workers < 1."""
    max_len, bound, workers = map(operator.index, (max_len, bound, workers))
    if not 1 <= max_len <= MAX_LEN_LIMIT:
        raise ValueError(f"max_len must be in [1, {MAX_LEN_LIMIT}]")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")


def _check_tau(tau: Fraction) -> None:
    """TypeError unless tau is an int or a Fraction (`exact.check_tau`),
    and ValueError at tau = 0, where every tuple is a half-relation."""
    check_tau(tau)
    if tau == 0:
        raise ValueError("tau must be nonzero (every tuple is a half-relation at 0)")


def _check_mode(mode: SignMode) -> None:
    """TypeError unless mode is a SignMode member, as `exact.check_tau` is
    the type test of tau: a string such as "all_positive" would otherwise
    be walked as NONZERO_ANY."""
    if not isinstance(mode, SignMode):
        raise TypeError(f"sign_mode must be a SignMode, not {type(mode).__name__}")


@dataclass(frozen=True)
class SearchQuery:
    tau: Fraction
    max_len: int
    bound: int
    sign_mode: SignMode = SignMode.NONZERO_ANY
    result_limit: int = DEFAULT_RESULT_LIMIT

    def __post_init__(self) -> None:
        _check_tau(self.tau)
        _check_mode(self.sign_mode)
        check_effort(self.max_len, self.bound)
        if self.result_limit is not None and operator.index(self.result_limit) < 1:
            raise ValueError("result_limit must be >= 1")


@dataclass(frozen=True)
class SearchReport:
    query: SearchQuery
    hits: tuple[Candidate, ...]
    exhausted: bool


# per 1-indexed position: the allowed exponents and their range (lo, hi)
Positions = Sequence[tuple[Sequence[int], int, int]]


@lru_cache(maxsize=3 * MAX_LEN_LIMIT)  # every max_len and mode at one bound
def _positions(max_len: int, bound: int, mode: SignMode) -> Positions:
    """The allowed exponents at positions 1..max_len (index 0 unused), in
    increasing magnitude.

    ALTERNATING is canonicalized to the orientation with a_1 < 0."""
    pos = range(1, bound + 1), 1, bound
    neg = range(-1, -bound - 1, -1), -bound, -1
    if mode is SignMode.ALL_POSITIVE:
        odd = even = pos
    elif mode is SignMode.ALTERNATING:
        odd, even = neg, pos
    else:
        odd = even = tuple(a for m in pos[0] for a in (m, -m)), -bound, bound
    return tuple(odd if l % 2 == 1 else even for l in range(max_len + 1))


def _orbit(hit: Candidate, mode: SignMode) -> tuple[Candidate, ...]:
    """The hit and its images under the mode's symmetry group."""
    rev = hit[::-1]
    if mode is SignMode.NONZERO_ANY:
        neg = negate(hit)
        return hit, rev, neg, neg[::-1]
    if mode is SignMode.ALTERNATING and len(hit) % 2 == 0:
        return hit, negate(rev)  # reversal alone swaps the sign pattern
    return hit, rev


def _dfs(p: int, q: int, r: int, exps: tuple[int, ...],
         n11: int, n12: int, n21: int, n22: int,
         positions: Positions, bound: int, out: list[Candidate]) -> None:
    """Extend exps, whose word is the scaled matrix (n11 n12; n21 n22), to
    length l = len(positions) - 1: walk the middle positions up to l - 3,
    then for each a at l - 2 and c at l solve the b at l - 1 exactly.

    positions[1] holds the a_1 to walk, and the leaf keeps |a_1| <= |c|:
    at l = 3, where its a is a_1, by cutting each c's list of a at |c|,
    so one leaf serves every a_1; from l = 4 on, by slicing the ends at
    |exps[0]|.  r is q over its gcd with the product of exps, so a hit's
    remaining exponents have a product divisible by r; from l = 4 on, the
    a this leaves for each c are read from `_cut_table`, at l = 4 with a
    cap 2q/|p| below the bound from its capped table, and a leaf whose
    end values have no a left ends before its coefficients are computed."""
    pos, l = len(exps) + 1, len(positions) - 1  # next position, length
    if pos < l - 2:
        for a in positions[pos][0]:
            ra = r // gcd(r, a)
            if pos % 2 == 1:
                _dfs(p, q, ra, exps + (a,), n11, n11 * a + n12, n21, n21 * a + n22,
                     positions, bound, out)
            else:
                _dfs(p, q, ra, exps + (a,),
                     n11 * q + n12 * a * p, n12 * q, n21 * q + n22 * a * p, n22 * q,
                     positions, bound, out)
        return
    last_values, lo, hi = positions[l - 1]
    middles, ends = positions[pos][0], positions[l][0]
    if l == 3:
        # the a is a_1, so |a_1| <= |c| cuts its list at |c|, and the
        # divisibility cut would save nothing; the a_1 ascend in |a_1|
        kept = [middles[:bisect_right(middles, m, key=abs)] for m in range(bound + 1)]
    else:
        # |a_1| <= |c|: the ends hold each |c| in 1..bound once, or twice
        # (+-c) in NONZERO_ANY, ascending in |c|
        ends = ends[(abs(exps[0]) - 1) * len(ends) // bound:]
        if l == 4 and (cap := 2 * q // abs(p)) < bound:
            # min(|a_2|, |a_4|) <= 2/|tau| cuts the a past |c| > cap; every
            # r <= bound cuts as little as r = 1
            kept = _cut_table(r if r > bound else 1, bound, middles, cap)
            if not any(kept[abs(ends[0]):]):  # no a left at this leaf's ends
                return
        elif r > bound:
            kept = _cut_table(r, bound, middles)
        else:  # at r <= bound nothing is cut
            kept = None
    # the scaled defect of exps + (a, b, c) is coeff*b + const with coeff
    # = (x1*c + x2)*a + x3*c + x4 and const = y1*(a + c) + y2
    u, v, qn21, qn22 = p * n11, p * n12, q * n21, q * n22
    if l % 2 == 1:  # g^a h^b g^c: functional (p*c, p, -q, 0)
        x1, x2, x3, x4 = p * u, -p * qn21, p * v, -p * qn22
        y1, y2 = q * u, q * (v - qn21)
    else:  # h^a g^b h^c: functional (q, p*c, 0, -q)
        x1, x2, x3, x4 = p * v, -p * qn22, q * u, -q * qn21
        y1, y2 = q * v, q * (q * n11 - qn22)
    for c in ends:
        a_values = middles if kept is None else kept[abs(c)]
        if not a_values:  # nothing to solve at this c
            continue
        c1, c0, k0 = x1 * c + x2, x3 * c + x4, y1 * c + y2
        for a in a_values:
            coeff, const = c1 * a + c0, y1 * a + k0
            if coeff:
                if const % coeff == 0:
                    b = -const // coeff
                    if lo <= b <= hi and b:  # NONZERO_ANY's range holds 0
                        out.append(exps + (a, b, c))
            elif const == 0:
                # never cut: b = +-1 is a hit, so r / gcd(r, a*c) = 1
                out.extend(exps + (a, b, c) for b in last_values)


@lru_cache(maxsize=CUT_CACHE_SIZE)
def _cut_table(r: int, bound: int, middles: Sequence[int],
               cap: int | None = None) -> tuple[Sequence[int], ...]:
    """At index |c| <= bound, the a of middles, in order, that the cut
    leaves: the b solved for (a, c) is a multiple of s / gcd(s, a), s = r /
    gcd(r, c), so that must be <= bound.  With a cap (l = 4, cap = 2q/|p|
    < bound), past |c| > cap only the a with |a| <= cap are left, since
    every hit has min(|a_2|, |a_4|) <= cap.  The c with one s, and past
    the cap or not, share a list."""
    by_s: dict[tuple[int, bool], Sequence[int]] = {}
    table = []
    for m in range(bound + 1):
        s, capped = r // gcd(r, m), cap is not None and m > cap
        if (s, capped) not in by_s:
            a_values = middles if s <= bound else tuple(a for a in middles if s // gcd(s, a) <= bound)
            by_s[s, capped] = a_values[:bisect_right(a_values, cap, key=abs)] if capped else a_values
        table.append(by_s[s, capped])
    return tuple(table)


def _search_branch(args: tuple) -> list[Candidate]:
    """The hits of one length whose a_1 is one of firsts, a chunk of the
    a_1 values ascending in |a_1|, with |a_1| <= |a_l|; the
    parallelization unit."""
    p, q, firsts, positions, bound = args
    out: list[Candidate] = []
    _dfs(p, q, q, (), 1, 0, 0, 1, (positions[0], (firsts, *positions[1][1:]), *positions[2:]),
         bound, out)
    return out


@lru_cache(maxsize=CUT_CACHE_SIZE)
def _root_caps(q: int, bound: int) -> tuple[int, int, int]:
    """(cap_3, cap_4, cap_5), the gate's table (module docstring): all 0
    when q has a prime factor above the bound, else cap_5 = 4q - 1 and
    cap_l the largest S(x) over the ordered factorisations q =
    x_1*...*x_l with every x_i <= bound, or 0 where there is none.

    q is factored once by trial division by d <= min(bound, sqrt(q)), not
    by `_factorize`, whose first call sieves the census's prime table:
    what is left is then 1, a prime, or, once d passes the bound, a
    product of primes above it.  No factorisation is enumerated.  Of the
    splits r = x*y with x >= y, both <= bound, the one with the largest x
    has the largest x + y (x + r/x grows for x >= sqrt(r)) and the
    smallest y, and S grows with each sum and falls with each min: x_1 +
    (x_2 + x_3) at l = 3, (x_1 + x_3)(x_2 + x_4) - 2 min(x_1, x_3)
    min(x_2, x_4) at l = 4.  So cap_3 is a max over the divisors x_1, and
    cap_4 over the divisors u = x_1*x_3, with q/x_1, and u and q/u, split
    that way."""
    factors: dict[int, int] = {}
    m, d = q, 2
    while d <= bound and d * d <= m:
        while m % d == 0:
            m //= d
            factors[d] = factors.get(d, 0) + 1
        d += 1 if d == 2 else 2
    if m > bound:
        return 0, 0, 0
    if m > 1:  # a prime above every d tried
        factors[m] = 1
    divs = sorted(_divisors(factors, bound))

    def split(r: int) -> tuple[int, int] | None:
        # (x + y, y) for the split r = x*y with the largest x <= bound, if y <= bound
        x = next(x for x in reversed(divs[:bisect_right(divs, r)]) if r % x == 0)
        return (x + r // x, r // x) if r // x <= bound else None

    cap3 = max((x + s[0] for x in divs if (s := split(q // x))), default=0)
    cap4 = max((su[0] * sv[0] - 2 * su[1] * sv[1] for u in _divisors(factors, bound * bound)
                if (su := split(u)) and (sv := split(q // u))), default=0)
    return cap3, cap4, 4 * q - 1


def lengths_to_walk(p: int, q: int, max_len: int, bound: int) -> list[int]:
    """The lengths 3..max_len that may hold a hit at tau = p/q (lowest
    terms) within the bound, in any sign mode: those whose cap in
    `_root_caps(q, bound)` is >= |p|, the one statement of the gate, so
    tau and -tau get the same lengths.  None when |tau| >= 4 or q has a
    prime factor above the bound."""
    p, caps = abs(p), _root_caps(q, bound)
    if p > caps[2]:
        return []
    return [l for l in range(3, max_len + 1) if p <= caps[min(l, 5) - 3]]


def _process_pool(workers: int) -> ProcessPoolExecutor:
    """A pool of `workers` processes.  Its module, and multiprocessing with
    it, is imported here, on the first walk with workers > 1, so that
    `import parafree` does not pay for them."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _walk(tau: Fraction, lengths: list[int], bound: int, mode: SignMode,
          workers: int) -> Iterator[list[Candidate]]:
    """The canonical hits at tau of each of the lengths: a_1 > 0 for
    NONZERO_ANY and |a_1| <= |a_l|, in no order and possibly repeated;
    `_orbit` gives the rest.  lengths are those `lengths_to_walk` lists,
    or some of them: the walk gates nothing itself.  Each length is one
    `_search_branch` call per worker, on an interleaved chunk of the a_1
    values.  One pool of at most one worker per a_1 lives as long as the
    generator, whose closing shuts it down.  On the first step, TypeError
    or ValueError if workers, bound or max(lengths) fail `check_effort`,
    TypeError if mode is not a SignMode, and ValueError at tau = 0 or if
    the lengths do not ascend strictly from 3 or above."""
    check_effort(max(lengths, default=MAX_LEN_LIMIT), bound, workers)
    _check_tau(tau)
    _check_mode(mode)
    if any(b <= a for a, b in zip([2, *lengths], lengths)):
        raise ValueError("lengths must be strictly ascending, each >= 3")
    if not lengths:
        return
    p, q = tau.numerator, tau.denominator
    positions = _positions(lengths[-1], bound, mode)
    firsts = tuple(a1 for a1 in positions[1][0]
                   if a1 > 0 or mode is not SignMode.NONZERO_ANY)
    workers = min(workers, len(firsts))
    chunks = [firsts[i::workers] for i in range(workers)]
    with _process_pool(workers) if workers > 1 else nullcontext() as pool:
        run = pool.map if pool is not None else map
        for length in lengths:
            prefix = positions[:length + 1]
            yield [hit for branch_hits in run(_search_branch, [(p, q, chunk, prefix, bound)
                                                                for chunk in chunks])
                   for hit in branch_hits]


def hits_by_length(tau: Fraction, lengths: list[int], bound: int, mode: SignMode,
                   workers: int = 1) -> Iterator[list[Candidate]]:
    """The hits at tau of each of the lengths, each list sorted, so their
    concatenation is in shortlex order; no result limit applies.
    Deterministic and worker-count independent: each length's canonical
    hits from `_walk`, with their `_orbit` images, as a sorted set.  The
    lengths, the pool and the errors are those of `_walk`, which closing
    this generator closes."""
    with closing(_walk(tau, lengths, bound, mode, workers)) as walk:
        for hits in walk:
            yield sorted({image for hit in hits for image in _orbit(hit, mode)})


def least_hits_by_length(tau: Fraction, lengths: list[int], bound: int, mode: SignMode,
                         workers: int = 1) -> Iterator[tuple[Candidate | None, Candidate | None]]:
    """For each of the lengths, the first hit and the first all-positive
    hit of its `hits_by_length` block, or None for either, read off the
    canonical hits of `_walk` with no set and no sort: the least of all
    their `_orbit` images is the first element of the sorted orbit
    closure.  In NONZERO_ANY the first hit is never all-positive, since
    the closure holds its negation.  The lengths, the pool and the errors
    are those of `_walk`, which closing this generator closes."""
    with closing(_walk(tau, lengths, bound, mode, workers)) as walk:
        for hits in walk:
            images = [image for hit in hits for image in _orbit(hit, mode)]
            yield (min(images, default=None),
                   min((image for image in images if image[0] > 0 and min(image) > 0),
                       default=None))


def search_half_relations(query: SearchQuery, workers: int = 1) -> SearchReport:
    """Enumerate all half-relations for the query, in shortlex order, from
    `hits_by_length` over the lengths of `lengths_to_walk`.  The search
    stops after the first length at which the hits exceed the result
    limit.  ValueError if workers < 1 (`hits_by_length`)."""
    tau, bound, limit, hits = query.tau, query.bound, query.result_limit, []
    lengths = lengths_to_walk(tau.numerator, tau.denominator, query.max_len, bound)
    with closing(hits_by_length(tau, lengths, bound, query.sign_mode, workers)) as blocks:
        for block in blocks:
            hits += block
            if limit is not None and len(hits) > limit:
                # the first `limit` hits in shortlex order are all known
                return SearchReport(query, tuple(hits[:limit]), False)
    return SearchReport(query, tuple(hits), True)


# the census trial-divides by the primes below this, then by odd numbers
PRIME_TABLE_CEILING = 1 << 16


@cache
def _prime_tables() -> tuple[list[int], list[int]]:
    """The primes below PRIME_TABLE_CEILING, ascending, and those of them
    = +-1 (mod 8), the odd primes modulo which 2 is a square.  Sieved on
    the first call, not at import."""
    size = PRIME_TABLE_CEILING
    sieve = bytearray([1]) * size
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(size - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, size, p)))
    primes = list(compress(range(size), sieve))
    return primes, [p for p in primes if p % 8 in (1, 7)]


def _factorize(m: int, into: dict[int, int], pm1: bool = False) -> None:
    """Add the prime factorisation of m >= 1 to `into`, by trial division
    by d with d^2 <= m: the table primes (only those = +-1 (mod 8) if
    pm1), then, past the last of them, every odd d.  The pm1 list is
    exact only for the m that no left-out table prime (2, and those = +-3
    (mod 8)) divides."""
    primes = _prime_tables()[pm1]
    for d in chain(primes, count(primes[-1] + 2, 2)):
        if d * d > m:
            break
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            into[d] = into.get(d, 0) + e
    if m > 1:
        into[m] = into.get(m, 0) + 1


def _divisors(factors: dict[int, int], limit: int | None) -> list[int]:
    """The divisors of the factored number, only those <= limit if given.

    Each prime's next power multiplies the divisors of its previous power,
    filtered at the limit: every divisor of a divisor <= limit is itself
    <= limit, so nothing is lost."""
    divs = [1]
    for p, e in factors.items():
        power = divs
        for _ in range(e):
            if limit is None:
                power = [d * p for d in power]
            else:
                power = [x for d in power if (x := d * p) <= limit]
            divs += power
    return divs


def _congruent_divisors(n2: int, n_factors: dict[int, int], rest: dict[int, int],
                        c: int, a4: int, limit: int | None) -> list[int]:
    """The divisors X <= limit (all if None) of n^2 * R with X = -a4*n^2
    (mod c), in no particular order, by the residue match of
    `search_len4_positive`; n_factors factors n, rest factors R, and no
    prime of n that is prime to c may divide R."""
    coprime, shared = {}, dict(rest)
    for p, e in n_factors.items():
        if c % p:
            coprime[p] = 2 * e
        else:
            shared[p] = shared.get(p, 0) + 2 * e
    by_residue: dict[int, list[int]] = {}
    for y in _divisors(shared, limit):
        by_residue.setdefault(y % c, []).append(y)
    target, out = -a4 * n2, []
    for x in _divisors(coprime, limit):
        for y in by_residue.get(target // x % c, ()):
            if limit is None or x * y <= limit:
                out.append(x * y)
    return out


def search_len4_positive(n_from: int, n_to: int,
                         bound: int | None) -> dict[int, list[Candidate]]:
    """All-positive length-4 half-relations for tau = ((n-1)/n)^2.

    For positive solutions, a_1*a_4 < (n/(n-1))^2 is forced, so a_1 and
    a_4 are tiny: a_1*a_4 >= 2 needs 2(n-1)^2 < n^2, so n <= 3.  With c =
    n^2 - a_1*a_4*(n-1)^2, f = n^2 + c = 2n^2 - a_1*a_4*(n-1)^2, X =
    c*a_2 - a_4*n^2 and Y = c*a_3 - a_1*n^2, the length-4 condition is
    exactly

        X*Y = a_1*a_4*n^2*f,

    and a_3 >= 1 forces X, Y > 0.  So the solutions are the divisor pairs
    (X, Y) of that product with X + a_4*n^2 and Y + a_1*n^2 both divisible
    by c; no exponent is scanned.

    The X are matched by residue (`_congruent_divisors`).  The product is
    A*B, with A the part of n^2 that is prime to c and B the rest: the
    primes of n that divide c, a_1, a_4 and f.  A and B are coprime: a
    prime p of A divides n but not c, so it divides neither f (p | f would
    give p | c) nor a_1*a_4 (p | a_1*a_4 would give p | n^2 - a_1*a_4*(n-1)^2
    = c).  So X = x*y with x | A and y | B, and x is a unit mod c, so X =
    -a_4*n^2 = -a_4*(n^2/x)*x (mod c) holds exactly when y = -a_4*(n^2/x)
    (mod c): the divisors of B are grouped by residue once, and each divisor
    of A looks up its one residue, with no modular inverse.  For n >= 4,
    A = n^2 and B = f.  Y = product // X and its congruence are computed
    only for the matched X, and every hit is re-checked by
    `is_half_relation`.

    n and the a_i are factored by trial division over a cached table of
    the primes below PRIME_TABLE_CEILING, sieved once, and over the
    odd numbers past its last prime.  At a_1*a_4 = 1, f = (n+1)^2 - 2 is
    divided by fewer primes.  An odd prime p | f has (n+1)^2 = 2 (mod p),
    so 2 is a square mod p and p = +-1 (mod 8).  For odd n, (n+1)^2 = 0
    (mod 4), so f = 2 (mod 4) holds 2 exactly once; for even n, f is odd.
    So f loses its one 2 for odd n and is then trial-divided by the table
    primes = +-1 (mod 8) alone, and past the table by every odd d.  The
    pairs with a_1*a_4 > 1, all at n <= 3, use the full table.

    `bound` caps a_2 only (a_3 is accepted at any size); `bound=None`
    gives every solution.  Returns only n with a nonempty hit list.
    TypeError if n_from, n_to or a bound other than None is not an int
    (`operator.index`, as in `check_effort`).
    """
    n_from, n_to = operator.index(n_from), operator.index(n_to)
    if bound is not None:
        bound = operator.index(bound)
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
                    f, rest = n2 + c, {}
                    if a1 * a4 == 1:  # f = (n+1)^2 - 2
                        if n & 1:
                            rest[2] = 1
                        _factorize(f >> (n & 1), rest, pm1=True)
                    else:
                        for m in (a1, a4, f):
                            _factorize(m, rest)
                    xy, x_add, y_add = a1 * a4 * n2 * f, a4 * n2, a1 * n2
                    for x in _congruent_divisors(n2, n_factors, rest, c, a4, limit):
                        y3 = xy // x + y_add
                        if y3 % c == 0:
                            hits.append((a1, (x + x_add) // c, y3 // c, a4))
                a4 += 1
            a1 += 1
        if hits:
            tau = Fraction(m2, n2)
            for hit in hits:
                if not is_half_relation(hit, tau):  # post-hoc soundness re-check
                    raise AssertionError(f"solver produced a bad hit {hit} for n={n}")
            found[n] = sorted(set(hits))
    return found
