"""Exact arithmetic substrate: rationals, 2x2 matrices over a ring of tau,
dense integer polynomials in tau, and evaluation of alternating words in the
two parabolic generators g = (1 1; 0 1) and h = (1 0; tau 1).  The one
word kernel, `scaled_product`, evaluates a word over integers with one
common denominator and reduces nothing: proofs compare its unreduced
integers, and `eval_word` reduces each rational entry once.  `Mat2` is a
NamedTuple whose `*` is the one 2x2 product and whose `**` powers it, as
the family sequences do.

Everything here is immutable and pure; safe for concurrent use.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterator, NamedTuple, Sequence

G = "G"
H = "H"

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse the canonical text form "p/q" or "p" (sign on the numerator only)."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"malformed rational {text!r} (expected 'p' or 'p/q')")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator in rational {text!r}")
    return Fraction(num, den)


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def other_tag(tag: str) -> str:
    return H if tag == G else G


class Mat2(NamedTuple):
    """2x2 matrix with exact entries in the ring of tau: int, Fraction for
    a rational tau, UniPoly for the symbolic product at tau = UniPoly.var().
    A tuple (e11, e12, e21, e22), so it unpacks like one; `+` and
    `int * Mat2` are the tuple's, not matrix operations.  `inverse` needs
    a field."""

    e11: Any
    e12: Any
    e21: Any
    e22: Any

    @staticmethod
    def identity() -> "Mat2":
        """The identity with int entries, which act as 1 and 0 in every
        entry ring and equal the Fraction identity."""
        return Mat2(1, 0, 0, 1)

    def __mul__(self, other: "Mat2") -> "Mat2":  # type: ignore[override]
        a11, a12, a21, a22 = self
        b11, b12, b21, b22 = other
        return tuple.__new__(Mat2, (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
                                    a21 * b11 + a22 * b21, a21 * b12 + a22 * b22))

    def __pow__(self, k: int) -> "Mat2":
        """self^k for k >= 0, by binary powering from the leading bit of k
        down: O(log k) products, and each one-bit a product by self."""
        if k < 0:
            raise ValueError(f"negative matrix power {k}")
        acc = self if k else Mat2.identity()
        for bit in bin(k)[3:]:  # the bits after the leading one
            acc = acc * acc
            if bit == "1":
                acc = acc * self
        return acc

    def det(self):
        return self.e11 * self.e22 - self.e12 * self.e21

    def transpose(self) -> "Mat2":
        return Mat2(self.e11, self.e21, self.e12, self.e22)

    def inverse(self) -> "Mat2":
        d = self.det()
        if d == 0:
            raise ZeroDivisionError("singular matrix")
        return Mat2(self.e22 / d, -self.e12 / d, -self.e21 / d, self.e11 / d)

    def is_identity(self) -> bool:
        return self == Mat2.identity()

    def specialize(self, tau: Fraction) -> "Mat2":
        """Evaluate each UniPoly entry at tau."""
        return Mat2(*(e.evaluate(tau) for e in self))


def gen_power(tag: str, a: int, tau) -> Mat2:
    """g^a or h^a in closed form (both generators are parabolic), with
    entries in the ring of tau."""
    zero = tau * 0
    one = zero + 1
    if tag == G:
        return Mat2(one, zero + a, zero, one)
    if tag == H:
        return Mat2(one, zero, a * tau, one)
    raise ValueError(f"unknown generator tag {tag!r}")


@dataclass(frozen=True)
class ExpWord:
    """Alternating word: a starting generator tag plus the exponent list.

    Letter i (0-based) uses `start` if i is even, the other generator if odd;
    the strict alternation is implied by the representation.  Each exponent
    goes through `operator.index`, so one that is not an int (a float, a
    Fraction) raises TypeError.
    """

    start: str
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.start not in (G, H):
            raise ValueError(f"bad start tag {self.start!r}")
        if len(self.exponents) < 1:
            raise ValueError("word must have at least one letter")
        object.__setattr__(self, "exponents", tuple(map(operator.index, self.exponents)))

    def __len__(self) -> int:
        return len(self.exponents)

    @property
    def end(self) -> str:
        return self.start if len(self.exponents) % 2 == 1 else other_tag(self.start)

    def letters(self) -> Iterator[tuple[str, int]]:
        tag = self.start
        for a in self.exponents:
            yield tag, a
            tag = other_tag(tag)

    def inverse(self) -> "ExpWord":
        return ExpWord(self.end, tuple(-a for a in reversed(self.exponents)))

    def concat(self, other: "ExpWord") -> "ExpWord":
        if other.start != other_tag(self.end):
            raise ValueError("concatenation would break alternation")
        return ExpWord(self.start, self.exponents + other.exponents)

    @property
    def is_reduced(self) -> bool:
        return all(a != 0 for a in self.exponents)

    @property
    def is_positive(self) -> bool:
        return all(a > 0 for a in self.exponents)


def check_tau(tau, symbolic: bool = False) -> None:
    """TypeError unless tau is an int or a Fraction, or, if symbolic,
    UniPoly.var(): the one type test of tau, as `operator.index` is of the
    effort values.  Any other value, a float say, would be read as a ring
    element and evaluated inexactly."""
    if not (isinstance(tau, (int, Fraction)) or symbolic and tau == UniPoly.var()):
        raise TypeError(f"tau must be an int or a Fraction, not {type(tau).__name__}")


def scaled_product(word: ExpWord, tau) -> tuple:
    """(n11, n12, n21, n22, den): the word's left-to-right product of
    generator powers over the ring of tau is N / den, with N and den
    neither reduced nor normalised.  The one word kernel.

    Each letter is applied to the running product as a column operation:
    right-multiplying by g^a adds a*col1 to col2, and by h^a adds
    (a*tau)*col2 to col1.  A rational tau = p/q is applied as p over a
    common integer denominator: the loop keeps integer entries N with
    M = N / q^j after j h-letters, so each h-letter scales the running
    product by q before adding (a*p)*col2 to col1, and den = q^(number of
    h-letters).  For an int tau or tau = UniPoly.var() the denominator is
    1 and the entries stay in that ring; any other tau is a TypeError
    (`check_tau`).
    """
    if isinstance(tau, Fraction):
        p, q = tau.numerator, tau.denominator
    else:
        check_tau(tau, symbolic=True)
        p, q = tau, 1
    zero = p * 0
    e11, e12, e21, e22 = zero + 1, zero, zero, zero + 1
    on_g = word.start == G
    for a in word.exponents:
        if on_g:
            e12, e22 = e12 + a * e11, e22 + a * e21
        else:
            ap = a * p
            e11, e12 = q * e11 + ap * e12, q * e12
            e21, e22 = q * e21 + ap * e22, q * e22
        on_g = not on_g
    h_letters = (len(word.exponents) + (word.start == H)) // 2
    return e11, e12, e21, e22, q**h_letters


def eval_word(word: ExpWord, tau) -> Mat2:
    """Left-to-right product of generator powers over the ring of tau;
    always has determinant 1.

    Built on `scaled_product`: for a rational tau the four Fraction
    entries are built, each reduced once, from its integer product, into
    a `Mat2` NamedTuple.  This equals the product of `gen_power` letters
    under `Mat2.__mul__`, which the tests keep as its reference.
    """
    e11, e12, e21, e22, den = scaled_product(word, tau)
    if isinstance(tau, Fraction):
        return Mat2(Fraction(e11, den), Fraction(e12, den), Fraction(e21, den), Fraction(e22, den))
    return Mat2(e11, e12, e21, e22)


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial in tau with integer coefficients,
    lowest degree first, trailing zeros trimmed.  An int operand of +, -
    or * is read as a constant polynomial.

    The one constructor takes each coefficient through `operator.index`
    (TypeError on one that is not an int, such as a float or a Fraction)
    and trims them; every ring operation builds its result through it."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        c = tuple(map(operator.index, self.coeffs))
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @staticmethod
    def const(c: int) -> "UniPoly":
        return UniPoly((c,))

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly(())

    @staticmethod
    def var() -> "UniPoly":
        return UniPoly((0, 1))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __add__(self, other: "UniPoly | int") -> "UniPoly":
        if isinstance(other, int):
            other = UniPoly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return UniPoly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-x for x in self.coeffs))

    def __sub__(self, other: "UniPoly | int") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly | int") -> "UniPoly":
        if isinstance(other, int):
            return self.scale(other)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(other.coeffs, i):
                out[j] += x * y
        return UniPoly(tuple(out))

    __rmul__ = __mul__

    def scale(self, c: int) -> "UniPoly":
        return UniPoly(tuple(c * x for x in self.coeffs))

    def evaluate(self, tau: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * tau + c
        return acc

    def divide_by_var(self) -> "UniPoly":
        """Exact division by tau; the constant term must be zero."""
        if self.coeffs and self.coeffs[0] != 0:
            raise ArithmeticError(
                f"polynomial {self.coeffs} has nonzero constant term; "
                "not divisible by tau"
            )
        return UniPoly(self.coeffs[1:])

    def render(self, var: str = "tau") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                head = "" if mag == 1 else f"{mag}*"
                term = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
            parts.append((sign, term))
        first_sign, first_term = parts[0]
        text = (f"-{first_term}" if first_sign == "-" else first_term)
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text


def eval_word_symbolic(word: ExpWord) -> Mat2:
    """Word product with tau left as the polynomial indeterminate.  Public,
    and the tests' reference for `halfrel.symbolic_defect`, which reads the
    same defect off the integer kernel."""
    return eval_word(word, UniPoly.var())


def word_from_exponents(exponents: Sequence[int], start: str = G) -> ExpWord:
    return ExpWord(start, tuple(exponents))
