"""Exact rational scalars and Hirzebruch-Jung continued fractions.

Every number that enters a certificate is a :class:`fractions.Fraction`;
floats are refused at the API boundary so rounding can never leak into a
result.  Rational literals are ``"p/q"`` with an optional sign on ``p``, or a
bare integer ``"p"``; a zero denominator is rejected.

The continued-fraction helpers describe the exceptional chain of a cyclic
quotient surface singularity:

    n/q = b1 - 1/(b2 - 1/(b3 - ...)),   all b_i >= 2.

``Chain(1, 0)`` encodes the empty chain.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd

from ._record import record

__all__ = [
    "ChainError",
    "InexactError",
    "Chain",
    "as_rational",
    "parse_rational",
    "format_rational",
    "rat_ceil",
    "rat_floor",
    "hj_expand",
    "hj_eval",
]

class ChainError(ValueError):
    """A descriptor that does not encode a valid exceptional chain."""


class InexactError(TypeError, ValueError):
    """Not an exact rational (a float, a boolean, a non-number): invalid input and a wrong type."""


_LITERAL = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


def is_integer(value) -> bool:
    """Whether ``value`` is an exact integer: an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


@lru_cache(maxsize=4096)
def parse_rational(text: str) -> Fraction:
    """Parse a rational literal ``"p/q"`` or ``"p"``.

    Each distinct literal is parsed once while it stays among the last 4096
    parsed; ``Fraction`` is immutable, so callers may share the result.  A
    literal that raises is not remembered and raises again on every call.
    """
    s = text.strip()
    if not _LITERAL.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    num, slash, den = s.partition("/")
    if slash:
        if int(den) == 0:
            raise ValueError(f"zero denominator in rational literal: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(num))


def format_rational(x) -> str:
    """Render a rational as ``"p/q"``, or ``"p"`` for integers."""
    num, den = (x if x.__class__ is Fraction else as_rational(x)).as_integer_ratio()
    if den == 1:
        return str(num)
    return f"{num}/{den}"


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction or rational literal; floats are refused."""
    # ``Fraction``'s metaclass is ``ABCMeta``, so ``isinstance(value,
    # Fraction)`` is slow for any other value; literals and ints come first.
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, bool):
        raise InexactError("a boolean is not a rational value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise InexactError(f"expected an exact rational, got {type(value).__name__}")


def rat_ceil(x) -> int:
    """Least integer >= x."""
    x = as_rational(x)
    return -((-x.numerator) // x.denominator)


def rat_floor(x) -> int:
    """Greatest integer <= x."""
    x = as_rational(x)
    return x.numerator // x.denominator


@record
class Chain:
    """Type ``<n, q>`` of an exceptional chain, in lowest terms.

    Requires ``0 <= q < n`` and ``gcd(n, q) = 1``; ``Chain(1, 0)`` is the
    empty chain.
    """

    n: int
    q: int

    def _check(n, q):
        if not is_integer(n) or not is_integer(q):
            raise ChainError(f"chain entries must be integers, got ({n!r}, {q!r})")
        if n < 1 or not 0 <= q < n:
            raise ChainError(f"need 0 <= q < n, got ({n}, {q})")
        if gcd(n, q) != 1:
            raise ChainError(f"({n}, {q}) is not coprime")
        return n, q

    @property
    def is_empty(self) -> bool:
        return (self.n, self.q) == (1, 0)

    @property
    def value(self) -> Fraction:
        """The fraction n/q; undefined for the empty chain."""
        if self.q == 0:
            raise ChainError("the empty chain has no fraction value")
        return Fraction(self.n, self.q)

    def describe(self) -> str:
        if self.is_empty:
            return "empty"
        return f"{self.n}/{self.q}"


def hj_expand(n: int, q: int) -> list[int]:
    """Expand ``n/q`` into the chain entries ``[b1, b2, ...]``, all >= 2.

    The greedy recursion b1 = ceil(n/q), then (n, q) -> (q, b1*q - n), is the
    unique expansion with every entry >= 2, so no tie-breaking exists.  The
    empty list is returned for (1, 0).
    """
    Chain(n, q)  # raises ChainError on an invalid descriptor
    entries = []
    while q > 0:
        b = -((-n) // q)
        entries.append(b)
        n, q = q, b * q - n
    return entries


def hj_eval(entries) -> Chain:
    """Evaluate ``b1 - 1/(b2 - ...)`` back into a chain descriptor.

    The empty sequence evaluates to the empty chain ``Chain(1, 0)``; this is
    the division-free encoding of its formally infinite value.
    """
    num, den = 1, 0
    for b in reversed(list(entries)):
        if not is_integer(b) or b < 2:
            raise ChainError(f"chain entries must be integers >= 2, got {b!r}")
        num, den = b * num - den, num
    g = gcd(num, den)
    return Chain(num // g, den // g)
