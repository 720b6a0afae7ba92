"""Exact rational scalars and Hirzebruch-Jung continued fractions.

Every number that enters a certificate is a :class:`fractions.Fraction`;
floats are refused at the API boundary so rounding can never leak into a
result.  Rational literals are ``"p/q"`` with an optional sign on ``p``, or a
bare integer ``"p"``, in ASCII digits; a zero denominator is rejected.

Every integer, weight, list and object field of the package is read by
:func:`as_integer`, :func:`as_weight`, :func:`as_list` or :func:`as_object`;
an integer field refuses ``bool``, ``float``, ``str`` and ``Fraction``.
Integer text, a CLI flag's or an arrangement's ``t`` key, is read by :func:`parse_integer`.

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
    "hj_expand",
    "hj_eval",
]

class ChainError(ValueError):
    """A descriptor that does not encode a valid exceptional chain."""


class InexactError(TypeError, ValueError):
    """Not an exact rational (a float, a boolean, a non-number): invalid input and a wrong type."""


_LITERAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?\Z")
_INTEGER_LITERAL = re.compile(r"[+-]?[0-9]+\Z")
_INTEGER_KINDS = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}


def as_integer(value, what, least=None, error=ValueError, *owner):
    """``value`` if it is an exact integer, and at least ``least`` when given.

    An exact integer is an ``int`` that is not a ``bool``.  Otherwise raises
    ``error`` with "``what`` must be a positive integer, got ``value!r``" (or
    the kind that ``least`` sets); ``what`` is formatted with ``owner`` only
    then, so a record names itself without building a string per value.
    """
    if value.__class__ is int or isinstance(value, int) and value.__class__ is not bool:
        if least is None or value >= least:
            return value
    kind = _INTEGER_KINDS.get(least) or f"an integer >= {least}"
    raise error(f"{what.format(*owner)} must be {kind}, got {value!r}")


def parse_integer(text) -> int:
    """The integer the ``str`` ``text`` spells in ASCII digits, with an optional
    sign; unlike ``int``, it refuses other digits, ``_`` and padding spaces."""
    if isinstance(text, str) and _INTEGER_LITERAL.match(text):
        return int(text)
    raise ValueError(f"not an integer literal: {text!r}")


def as_weight(value, what, *owner) -> Fraction:
    """``value`` as an exact rational in [0, 1]; ``what`` and ``owner`` as for :func:`as_integer`."""
    w = as_rational(value)
    if not 0 <= w.numerator <= w.denominator:
        raise ValueError(f"{what.format(*owner)} {format_rational(w)} outside [0, 1]")
    return w


def as_list(value, what) -> list:
    """``value`` if it is a list; ``what`` names it in a refusal."""
    if isinstance(value, list):
        return value
    raise ValueError(f"{what} must be a list, got {type(value).__name__}")


def as_object(doc, what, *names) -> list:
    """The values of the fields ``names`` of the ``dict`` ``doc``, in order;
    ``what`` names it in a refusal.  A missing field is refused even where
    the ``dict`` would make it up."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be an object, got {type(doc).__name__}")
    values = []
    for name in names:
        if name not in doc:
            raise ValueError(f"{what} missing field {name!r}")
        values.append(doc[name])
    return values


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


@record
class Chain:
    """Type ``<n, q>`` of an exceptional chain, in lowest terms.

    Requires ``0 <= q < n`` and ``gcd(n, q) = 1``; ``Chain(1, 0)`` is the
    empty chain.
    """

    n: int
    q: int

    def _check(n, q):
        as_integer(n, "chain n", None, ChainError)
        as_integer(q, "chain q", None, ChainError)
        if n < 1 or not 0 <= q < n:
            raise ChainError(f"need 0 <= q < n, got ({n}, {q})")
        if gcd(n, q) != 1:
            raise ChainError(f"({n}, {q}) is not coprime")
        return n, q


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
        as_integer(b, "chain entry", 2, ChainError)
        num, den = b * num - den, num
    g = gcd(num, den)
    return Chain(num // g, den // g)
