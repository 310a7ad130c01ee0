"""The root atlas: an oracle for classify's pool that shares no code with
the walk.  Every tuple of length 3 to max_len (at most 5) with entries in
[-8, 8] \\ {0}, one per orbit of reversal and negation (0 < a_1 <=
|a_l|), has the defect tau * P_l(tau), where P_l has degree floor((l-1)/2)
<= 2, so its rational roots are read off `symbolic_defect`: linear at l <=
4, and from an isqrt of the discriminant at l = 5.  With the family members
at |tau|, these roots are what classify settles at (max_len, 8), each side
at each sign.

Imported by `test_freeness.py` at max_len 4 and run by CI at max_len 5 with
`PYTHONPATH=src:tests`; not a test module itself.
"""

from fractions import Fraction
from itertools import product
from math import isqrt

from parafree.families import family_lookup
from parafree.halfrel import RelationKind, symbolic_defect


def atlas(taus, max_len):
    """(non_free, non_semigroup_free): the tau of taus whose group, and
    whose semigroup, a family member at |tau| or a root of the atlas at
    max_len settles, for taus with 0 < |tau| < 4 and denominators <= 128."""
    assert 3 <= max_len <= 5  # P_l has degree <= 2
    values = [a for a in range(-8, 9) if a]
    roots, positive, odd_alternating = set(), set(), set()
    for c in (t for l in range(3, max_len + 1) for t in product(values, repeat=l)):
        if not 0 < c[0] <= abs(c[-1]):
            continue
        zero, *coeffs = symbolic_defect(c).coeffs  # tau * P_l
        assert zero == 0, c
        if len(c) < 5:
            c0, c1 = coeffs
            assert c1 != 0, c
            found = [Fraction(-c0, c1)]
        else:
            c0, c1, c2 = coeffs
            disc = c1 * c1 - 4 * c0 * c2
            s = isqrt(disc) if disc >= 0 else -1
            found = [Fraction(-c1 + e * s, 2 * c2) for e in (1, -1)] if s * s == disc else []
        alternating = len(c) % 2 and all(a * b < 0 for a, b in zip(c, c[1:]))
        for root in found:
            # the alternating search runs at -tau for tau < 0 only (`_witnesses`)
            assert not (alternating and root < 0), c
            if 0 < abs(root) < 4 and root.denominator <= 128:
                roots.add(root)
                if min(c) > 0:
                    positive.add(root)
                if alternating:
                    odd_alternating.add(-root)
    members = {tau: family_lookup(abs(tau)) for tau in taus}
    non_free = {tau for tau, found in members.items()
                if found or tau in roots or tau in odd_alternating}
    semigroup_kind = {True: RelationKind.SEMIGROUP_AT_TAU,
                      False: RelationKind.SEMIGROUP_AT_MINUS_TAU}
    non_semigroup_free = {
        tau for tau, found in members.items()
        if -4 < tau < 1 and (tau in positive or tau in odd_alternating
                             or any(inst.kind is semigroup_kind[tau > 0] for inst in found))}
    return non_free, non_semigroup_free
