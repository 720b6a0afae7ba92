"""Local orbifold Euler numbers of surface pair germs.

A local pair germ is a normal surface germ together with a boundary divisor
whose weights lie in [0, 1].  Four classes admit exact closed forms and are
modelled here:

``Ordinary``
    n smooth branches through a smooth point, pairwise transverse; a single
    branch is just a smooth point of the boundary.  With weights sorted so
    that ``a_n`` is largest and ``a`` their sum, the value is 0 when a > 2
    (not log canonical), ``(1 - a + a_n)(1 - a_n)`` when ``2 a_n >= a``, and
    ``(a - 2)^2 / 4`` when additionally at most three branches are present.
    For four or more branches in the balanced regime only the upper bound
    ``(1 - a/2)^2`` is certified, and the exactness kind records that.

``CyclicQuotient``
    A cyclic quotient singularity of chain type <n, q> with the two boundary
    curves touching the ends of the chain; the value is
    ``(1 - d1)(1 - d2) / n``, independent of q.

``StarQuotient``
    A star-shaped resolution: central curve of self-intersection -b with
    three Hirzebruch-Jung arms <n_i, q_i> carrying weights d_i (an empty
    arm <1, 0> puts its weight on a curve through the central curve).  The
    central curve contracts when ``b0 = b - sum q_i/n_i > 0``.  With
    ``alpha = sum (1 - d_i)/n_i`` and ``beta`` the smallest summand, the
    value is 0 for alpha < 1, which is the lc test (Kawamata 1988;
    Kollár-Mori 1998, Thm 4.7), ``(alpha - 1)^2 / (4 b0)`` in the balanced
    range, and ``(alpha - 1 - beta) beta / b0`` beyond it.  So a star that
    is lc but not klt (alpha = 1), such as a Euclidean one, gets 0.

``ReducedGerm``
    A reduced plane curve germ taken with weight 1, summarised by its Milnor
    and Tjurina numbers; the value is ``mu - tau``.

Values are exact rationals.  :func:`euler_local` is the one evaluator, with
a branch per class.  It runs on integers: each class puts its weights over
one common denominator, decides every branch by integer comparisons and
builds exactly one ``Fraction`` per value.  It returns :class:`EulerValue`,
which couples the number with its exactness kind and a log-canonicity flag;
that flag is the only lc verdict in the library, and callers must propagate
the ``UPPER_BOUND`` kind.  Non log canonical germs report the exact value 0.
Everything here is immutable and pure, so unrestricted concurrent use is
safe.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import lcm

from ._record import record
from .rationals import (
    as_chain,
    as_integer,
    as_list,
    as_object,
    as_rational,
    as_weight,
    format_rational,
)

__all__ = [
    "NotQuotientError",
    "Exactness",
    "EulerValue",
    "Ordinary",
    "CyclicQuotient",
    "StarQuotient",
    "ReducedGerm",
    "StarInvariants",
    "validate_star",
    "euler_local",
    "singularity_from_dict",
    "singularity_to_dict",
]


class NotQuotientError(ValueError):
    """The star's central curve does not contract: b0 = b - sum q_i/n_i <= 0."""


class Exactness(Enum):
    EXACT = "exact"
    UPPER_BOUND = "upper-bound"


_ZERO, _ONE = Fraction(0), Fraction(1)


@record
class EulerValue:
    """A local value together with its exactness kind and lc status.

    Invariants: a non log canonical germ reports exactly 0, and a log
    canonical local value never exceeds 1.
    """

    value: Fraction
    exactness: Exactness
    lc: bool

    def _check(value, exactness, lc):
        if value.__class__ is not Fraction:
            value = as_rational(value)
        if not isinstance(exactness, Exactness):
            raise TypeError("exactness must be an Exactness member")
        if not lc and value.numerator != 0:
            raise ValueError("a non log canonical germ must report value 0")
        if lc and value.numerator > value.denominator:
            raise ValueError("a log canonical local value never exceeds 1")
        return value, exactness, lc

    @property
    def is_exact(self) -> bool:
        return self.exactness is Exactness.EXACT

    def lc_label(self) -> str:
        return "lc" if self.lc else "non-lc"


def _weight(value) -> Fraction:
    if value.__class__ is str:
        return _weight_literal(value)
    return as_weight(value, "boundary weight")


@lru_cache(maxsize=4096)
def _weight_literal(text: str) -> Fraction:
    """:func:`_weight` of a literal, checked once while among the last 4096.

    Called only with a ``str``: the cache would take ``1``, ``1.0`` and
    ``True`` for one key, and each keeps its own verdict.  A refused literal
    is not remembered and raises again on every call.
    """
    return as_weight(text, "boundary weight")


@record
class Ordinary:
    """An ordinary point: smooth branches with pairwise distinct tangents."""

    coeffs: tuple

    def _check(coeffs):
        coeffs = tuple(map(_weight, coeffs))
        if not coeffs:
            raise ValueError("an ordinary point needs at least one branch")
        return (coeffs,)


@record
class CyclicQuotient:
    """Chain type <n, q> with boundary weights d1, d2 on the end curves."""

    n: int
    q: int
    d1: Fraction
    d2: Fraction

    def _check(n, q, d1, d2):
        return (*as_chain(n, q), _weight(d1), _weight(d2))


@record
class StarQuotient:
    """Central curve of self-intersection -b with exactly three arms, each
    the triple ``(n, q, d)`` of a chain <n, q> whose outer end has weight d."""

    b: int
    arms: tuple

    def _check(b, arms):
        as_integer(b, "central weight b", 1)
        arms = tuple(map(_star_arm, arms))
        if len(arms) != 3:
            raise ValueError(f"a star has exactly 3 arms, got {len(arms)}")
        return b, arms


def _star_arm(entry) -> tuple:
    if isinstance(entry, (list, tuple)) and len(entry) == 3:
        n, q, d = entry
        return (*as_chain(n, q), _weight(d))
    raise ValueError(f"star arm {entry!r} is not an (n, q, d) triple")


@record
class ReducedGerm:
    """A weight-1 reduced curve germ, recorded by its Milnor/Tjurina pair."""

    mu: int
    tau: int

    def _check(mu, tau):
        as_integer(mu, "mu", 0)
        as_integer(tau, "tau", 0)
        if mu < tau:
            raise ValueError(f"mu >= tau required, got mu={mu}, tau={tau}")
        return mu, tau


@record
class StarInvariants:
    """b0 = b - sum q_i/n_i, alpha = sum (1-d_i)/n_i, beta = min (1-d_i)/n_i."""

    b0: Fraction
    alpha: Fraction
    beta: Fraction


def validate_star(b, arms) -> StarInvariants:
    """The invariants of the star with central weight b and the given arms.

    Raises :class:`NotQuotientError` when b0 <= 0: the graph is then not
    negative definite, so it resolves no surface germ.  Every other star
    gets a value from :func:`euler_local`.
    """
    b0_num, b0_den, shares, den = _star_numbers(StarQuotient(b, arms))
    return StarInvariants(Fraction(b0_num, b0_den), Fraction(sum(shares), den), Fraction(min(shares), den))


def _star_numbers(star: StarQuotient) -> tuple:
    """A star's invariants as integers.

    Returns ``(b0_num, b0_den, shares, den)``: b0 is ``b0_num / b0_den`` over
    b0_den = lcm n_i, and the share (1 - d_i)/n_i of arm i is
    ``shares[i] / den`` over one common denominator.  Raises
    :class:`NotQuotientError` when b0 <= 0.
    """
    (n1, q1, d1), (n2, q2, d2), (n3, q3, d3) = star.arms
    b0_den = lcm(n1, n2, n3)
    b0_num = star.b * b0_den - q1 * (b0_den // n1) - q2 * (b0_den // n2) - q3 * (b0_den // n3)
    if b0_num <= 0:
        b0 = format_rational(Fraction(b0_num, b0_den))
        raise NotQuotientError(f"b0 = {b0} <= 0: the central curve does not contract")
    # d_i = p_i / s_i, so the share (1 - d_i) / n_i is (s_i - p_i) / e_i.
    (p1, s1), (p2, s2), (p3, s3) = d1.as_integer_ratio(), d2.as_integer_ratio(), d3.as_integer_ratio()
    e1, e2, e3 = s1 * n1, s2 * n2, s3 * n3
    den = lcm(e1, e2, e3)
    shares = [(s1 - p1) * (den // e1), (s2 - p2) * (den // e2), (s3 - p3) * (den // e3)]
    return b0_num, b0_den, shares, den


def euler_local(s: Ordinary | CyclicQuotient | StarQuotient | ReducedGerm) -> EulerValue:
    """The local value of a built germ, by its class: the one evaluator.

    Each branch is the closed form given for its class in the module
    docstring.  A germ built from a document comes from
    :func:`singularity_from_dict`.
    """
    if isinstance(s, Ordinary):
        # A weight-0 branch does not change the underlying divisor; dropping
        # such branches keeps both the value and the exactness kind stable
        # under padding with zeros.  A single branch folds to 1 - a, the count
        # of a smooth boundary point.
        ratios = [ratio for ratio in map(Fraction.as_integer_ratio, s.coeffs) if ratio[0]]
        if not ratios:
            return EulerValue(_ONE, Exactness.EXACT, True)
        # Over den = lcm of the denominators, a = total/den and a_n = top/den.
        den = lcm(*(q for _, q in ratios))
        scaled = [p * (den // q) for p, q in ratios]
        total = sum(scaled)
        top = max(scaled)
        if total > 2 * den:
            return EulerValue(_ZERO, Exactness.EXACT, False)
        if 2 * top >= total:
            return EulerValue(Fraction((den - total + top) * (den - top), den * den), Exactness.EXACT, True)
        # (a - 2)^2 / 4, exact for at most three branches and an upper bound beyond.
        kind = Exactness.EXACT if len(ratios) <= 3 else Exactness.UPPER_BOUND
        return EulerValue(Fraction((2 * den - total) ** 2, 4 * den * den), kind, True)
    if isinstance(s, CyclicQuotient):
        p1, q1 = s.d1.as_integer_ratio()
        p2, q2 = s.d2.as_integer_ratio()
        return EulerValue(Fraction((q1 - p1) * (q2 - p2), q1 * q2 * s.n), Exactness.EXACT, True)
    if isinstance(s, StarQuotient):
        # alpha = total/den, beta = least/den and b0 = b0_num/b0_den.
        b0_num, b0_den, shares, den = _star_numbers(s)
        total = sum(shares)
        least = min(shares)
        if total < den:
            return EulerValue(_ZERO, Exactness.EXACT, False)
        if total < 2 * least + den:
            value = Fraction((total - den) ** 2 * b0_den, 4 * den * den * b0_num)
        else:
            value = Fraction((total - den - least) * least * b0_den, den * den * b0_num)
        return EulerValue(value, Exactness.EXACT, True)
    if isinstance(s, ReducedGerm):
        difference = s.mu - s.tau
        if difference > 1:
            raise ValueError(
                f"mu - tau = {difference} > 1: a weight-1 germ with this defect is not log canonical"
            )
        return EulerValue(Fraction(difference), Exactness.EXACT, True)
    raise TypeError(f"not a local singularity: {type(s).__name__}")


def singularity_from_dict(doc) -> Ordinary | CyclicQuotient | StarQuotient | ReducedGerm:
    """Build a local singularity from its document form.

    Recognised ``"type"`` values: ``"ordinary"`` (field ``coeffs``),
    ``"cyclic"`` (fields ``n``, ``q``, ``d1``, ``d2``), ``"star"`` (fields
    ``b`` and ``arms`` as ``[n, q, d]`` triples) and ``"germ_mu_tau"``
    (fields ``mu``, ``tau``).  Rationals are ``"p/q"`` strings.
    """
    (kind,) = as_object(doc, "singularity", "type")
    if kind == "ordinary":
        (coeffs,) = as_object(doc, "singularity", "coeffs")
        return Ordinary(as_list(coeffs, "field 'coeffs'"))
    if kind == "cyclic":
        return CyclicQuotient(*as_object(doc, "singularity", "n", "q", "d1", "d2"))
    if kind == "star":
        b, arms = as_object(doc, "singularity", "b", "arms")
        return StarQuotient(b, as_list(arms, "field 'arms'"))
    if kind == "germ_mu_tau":
        return ReducedGerm(*as_object(doc, "singularity", "mu", "tau"))
    raise ValueError(f"unknown singularity type: {kind!r}")


def singularity_to_dict(s: Ordinary | CyclicQuotient | StarQuotient | ReducedGerm) -> dict:
    if isinstance(s, Ordinary):
        return {"type": "ordinary", "coeffs": [format_rational(c) for c in s.coeffs]}
    if isinstance(s, CyclicQuotient):
        return {
            "type": "cyclic",
            "n": s.n,
            "q": s.q,
            "d1": format_rational(s.d1),
            "d2": format_rational(s.d2),
        }
    if isinstance(s, StarQuotient):
        return {
            "type": "star",
            "b": s.b,
            "arms": [[n, q, format_rational(d)] for n, q, d in s.arms],
        }
    if isinstance(s, ReducedGerm):
        return {"type": "germ_mu_tau", "mu": s.mu, "tau": s.tau}
    raise TypeError(f"not a local singularity: {type(s).__name__}")
