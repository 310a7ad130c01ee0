"""Independent checks of the library's outputs, through the `Fraction` path.

The functions below are bound at import, before any tracing wrapper is
installed, so a check never counts as a call of the layer it checks.
Each check returns None when the output is right, or a one-line reason.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from parafree.exact import ExpWord, eval_word
from parafree.halfrel import defect


def reduced_letters(word: ExpWord) -> list[tuple[str, int]]:
    """Free reduction of an alternating word: drop zero exponents and merge
    the neighbours that become adjacent."""
    out: list[tuple[str, int]] = []
    for tag, a in word.letters():
        if a == 0:
            continue
        if out and out[-1][0] == tag:
            a += out.pop()[1]
            if a == 0:
                continue
        out.append((tag, a))
    return out


def witness_error(w, tau: Fraction, positive: bool) -> Optional[str]:
    """A witness is right when its words evaluate equal at tau, differ as
    reduced words, and (for a semigroup witness) are both positive."""
    if w.word_tau != tau:
        return f"witness evaluated at {w.word_tau}, not at {tau}"
    if eval_word(w.lhs, tau) != eval_word(w.rhs, tau):
        return "witness words differ in value"
    if reduced_letters(w.lhs) == reduced_letters(w.rhs):
        return "witness relation is trivial"
    if positive and not (w.lhs.is_positive and w.rhs.is_positive):
        return "semigroup witness has a non-positive word"
    return None


def hits_error(hits: Sequence[tuple[int, ...]], tau: Fraction, max_len: int,
               bound: int, result_limit: int, exhausted: bool) -> Optional[str]:
    """Every hit (sign mode NONZERO_ANY) has defect 0 and lies within the
    bound, the list is in strict shortlex order, and a truncated list is
    full."""
    prev = None
    for hit in hits:
        if not 1 <= len(hit) <= max_len:
            return f"hit {hit} has a length outside [1, {max_len}]"
        if any(a == 0 or abs(a) > bound for a in hit):
            return f"hit {hit} is outside the bound {bound}"
        key = (len(hit), hit)
        if prev is not None and key <= prev:
            return f"hit {hit} breaks shortlex order"
        prev = key
        if defect(hit, tau) != 0:
            return f"hit {hit} has nonzero defect at {tau}"
    if len(hits) > result_limit:
        return f"{len(hits)} hits exceed the result limit {result_limit}"
    if not exhausted and len(hits) != result_limit:
        return "truncated report holds fewer hits than the result limit"
    return None


def len4_hit_error(n: int, hit: tuple[int, ...], bound: int) -> Optional[str]:
    """A census hit is an all-positive length-4 half-relation at
    ((n-1)/n)^2 with a_2 within the bound."""
    if len(hit) != 4 or any(a <= 0 for a in hit):
        return f"census hit {hit} at n={n} is not positive of length 4"
    if hit[1] > bound:
        return f"census hit {hit} at n={n} has a_2 above {bound}"
    if defect(hit, Fraction((n - 1) ** 2, n * n)) != 0:
        return f"census hit {hit} at n={n} has nonzero defect"
    return None
