"""Milnor and Tjurina numbers of plane-curve germs, with their consequences.

For a germ ``f`` vanishing at the origin the Milnor number is the local
dimension of ``O/(f_x, f_y)`` and the Tjurina number that of
``O/(f, f_x, f_y)``.  Both come from one exact elimination: the multiples
x^a y^b g of f_x and f_y, truncated below a degree T and inserted by
a + b, are row-reduced at their lowest monomial in a degree-compatible
order.  The pivots of degree < N then span the ideal's image modulo
``(x, y)^N``, so that one echelon form gives dim(N) of
``Q[x, y] / (generators + (x, y)^N)`` for every N <= T at once.  That
quotient is supported at the origin, and once dim(N) = dim(N + 1)
Nakayama's lemma certifies that ``(x, y)^N`` lies in the local ideal, so
the elimination stops there with mu, at N_mu.  The Tjurina ideal contains
the Jacobian one and so stabilises no later: tau's elimination extends
mu's echelon form by the multiples of f, truncated below N_mu.

Which T is used changes no dim(N) with N <= T.  Dropping every term of
degree >= T is a linear projection, and it commutes with the row
operations; a row's lowest key has degree < T exactly when its projection
is nonzero, and is then that projection's lowest key.  So the elimination
of the truncated rows is, up to nonzero scalars, the projection of the
elimination of rows kept up to any larger degree, and the pivot keys of
degree < T are the same.  The first T is a + b for the points x^a and
y^b where f's Newton polygon meets the axes (x^a + y^b stabilises at
N = a + b - 2), but never above the cap.  A germ not yet stable below
T < cap is eliminated once more from scratch below the cap, so the
answer, and the truncation named by a refusal, are those of the cap; a
larger cap costs nothing for a germ stable by its intercepts.  A
multiple that keeps one term builds no row: it becomes the pivot
``{key: +-1}`` or, against a monomial pivot, reduces to zero.

A germ that never stabilises by the cap is reported as
:class:`NotIsolatedError` (non-isolated singularity, or cap too small); a
non-reduced germ manifests the same way.  Coefficients are rational, and
the elimination is exact and fraction-free: f is scaled by the lcm of its
denominators, which changes neither ideal, and every row holds integers.

The difference ``mu - tau`` is the local orbifold Euler number of the
weight-1 pair, it vanishes exactly for weighted homogeneous singularities
(Saito), and summed over a plane curve it obstructs the logarithmic
comparison theorem.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

from ._record import record
from .rationals import as_integer, as_list, as_object, as_rational, format_rational, parse_rational

__all__ = [
    "DEFAULT_CAP",
    "NotIsolatedError",
    "CurveGerm",
    "GermInvariants",
    "germ_invariants",
    "log_chern_c2",
    "euler_top_complement",
    "lct_obstruction",
    "germ_from_dict",
    "germ_to_dict",
]

DEFAULT_CAP = 30


class NotIsolatedError(ValueError):
    """No stabilisation by the cap: non-isolated singularity or cap too small."""


_MONOMIAL = re.compile(
    r"(?P<coeff>[0-9]+(?:/[0-9]+)?)?"
    r"(?P<xpart>x(?:\^(?P<i>[0-9]+))?)?"
    r"(?P<ypart>y(?:\^(?P<j>[0-9]+))?)?\Z"
)


@record
class CurveGerm:
    """``f = sum c_ij x^i y^j`` with rational coefficients and f(0, 0) = 0."""

    terms: tuple

    def _check(terms):
        combined: dict[tuple[int, int], Fraction] = {}
        for entry in terms:
            try:
                i, j, c = entry
            except (TypeError, ValueError):
                raise ValueError(f"term {entry!r} is not an (i, j, coefficient) triple") from None
            as_integer(i, "term {!r}: exponent i", 0, ValueError, entry)
            as_integer(j, "term {!r}: exponent j", 0, ValueError, entry)
            c = as_rational(c)
            if c:
                key = (i, j)
                combined[key] = combined.get(key, Fraction(0)) + c
        combined = {m: c for m, c in combined.items() if c}
        if not combined:
            raise ValueError("germ is identically zero")
        if (0, 0) in combined:
            raise ValueError("germ must vanish at the origin (no constant term)")
        return (tuple(sorted((i, j, c) for (i, j), c in combined.items())),)

    @classmethod
    def parse(cls, text: str) -> "CurveGerm":
        """Parse monomials in x, y with '+'/'-' separators and '^' exponents."""
        s = text.replace("−", "-").replace("*", "").replace(" ", "")
        if not s:
            raise ValueError("empty polynomial")
        if s[0] not in "+-":
            s = "+" + s
        pieces = re.findall(r"[+-][^+-]+", s)
        if "".join(pieces) != s:
            raise ValueError(f"cannot parse polynomial: {text!r}")
        terms = []
        for piece in pieces:
            body = piece[1:]
            m = _MONOMIAL.match(body)
            if not m or not (m.group("coeff") or m.group("xpart") or m.group("ypart")):
                raise ValueError(f"cannot parse monomial {piece!r}")
            coeff = parse_rational(m.group("coeff")) if m.group("coeff") else Fraction(1)
            if piece[0] == "-":
                coeff = -coeff
            i = int(m.group("i")) if m.group("i") else (1 if m.group("xpart") else 0)
            j = int(m.group("j")) if m.group("j") else (1 if m.group("ypart") else 0)
            terms.append((i, j, coeff))
        return cls(tuple(terms))

    def coefficients(self) -> dict:
        return {(i, j): c for i, j, c in self.terms}


@record
class GermInvariants:
    mu: int
    tau: int
    truncation_used: int


def _as_germ(f) -> CurveGerm:
    if isinstance(f, CurveGerm):
        return f
    if isinstance(f, str):
        return CurveGerm.parse(f)
    raise TypeError(f"expected a CurveGerm or polynomial text, got {type(f).__name__}")


def _partial(poly: Mapping, axis: int) -> dict:
    out: dict[tuple[int, int], int] = {}
    for (i, j), c in poly.items():
        if axis == 0 and i > 0:
            out[(i - 1, j)] = c * i
        elif axis == 1 and j > 0:
            out[(i, j - 1)] = c * j
    return out


def _is_smooth(germ: CurveGerm) -> bool:
    return any(i + j == 1 for i, j, _ in germ.terms)


def _reduce_insert(row: dict, pivots: dict) -> None:
    # Rows are keyed by (degree, x-exponent) and reduced at their lowest key,
    # a degree-compatible order: the lead of a row only rises under reduction,
    # so the pivots of degree < N span the truncation of the rows below N.
    # Rows hold integers: a pivot is stored primitive, and a row is reduced by
    # it as (p/g) row - (r/g) pivot with p, r the two leads and g = gcd(p, r),
    # which changes no span, so the pivot keys are those of a field elimination.
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            content = gcd(*row.values())
            if content != 1:
                row = {m: c // content for m, c in row.items()}
            pivots[lead] = row
            return
        p, r = pivot[lead], row[lead]
        g = gcd(p, r)
        if p != g:
            scale = p // g
            for m in row:
                row[m] *= scale
        factor = r // g
        for m, c in pivot.items():
            value = row.get(m, 0) - factor * c
            if value:
                row[m] = value
            else:
                row.pop(m, None)


def _stabilized_dimension(
    generators: Sequence[Mapping], truncation: int, pivots: dict
) -> tuple[int, int] | None:
    """First N with dim(N) = dim(N - 1), and that dim, read off one echelon form.

    dim(N) = N(N+1)/2 - #(pivots of degree < N) for every N <= truncation.
    The multiple x^a y^b g has order > a + b, so the pivots of degree d are
    final once the multiples with a + b = d - 1 are in, and dim(d + 1) =
    dim(d) exactly when all d + 1 monomials of degree d are pivots.
    ``pivots`` may already hold the rows of a smaller ideal: the lead order is
    degree-first, so the pivots of degree < N span the image modulo (x, y)^N
    of every row inserted, in whatever order.  None when no N <= truncation
    qualifies.
    """
    # Each generator's terms as (degree, x-exponent, coefficient).
    generators = [[(i + j, i, c) for (i, j), c in gen.items()] for gen in generators]
    below = 0
    for d in range(1, truncation):
        for terms in generators:
            # The multiples x^a y^(d-1-a) g, a < d, keep the terms of degree < truncation.
            kept = [(s + d - 1, i, c) for s, i, c in terms if s + d <= truncation]
            if len(kept) > 1:
                for a in range(d):
                    _reduce_insert({(s, i + a): c for s, i, c in kept}, pivots)
            elif kept:
                # One term needs no row: a free key takes the primitive pivot
                # {key: +-1}, and a monomial pivot reduces it to zero.
                ((s, i, c),) = kept
                unit = 1 if c > 0 else -1
                for x in range(i, i + d):
                    key = (s, x)
                    pivot = pivots.get(key)
                    if pivot is None:
                        pivots[key] = {key: unit}
                    elif len(pivot) > 1:
                        _reduce_insert({key: c}, pivots)
        at_d = sum((d, i) in pivots for i in range(d + 1))
        if at_d == d + 1:
            return d * (d + 1) // 2 - below, d + 1
        below += at_d
    return None


def _first_truncation(poly: Mapping, cap: int) -> int:
    """a + b, at most ``cap``, where f's Newton polygon meets the axes at x^a and y^b.

    x^a + y^b stabilises at N = a + b - 2.  Without a pure power of x, the
    polygon's last edge ends at the lowest x^i y, and extended it meets the
    axis by x^(2i), which stands in for x^a; likewise for y.  A germ with
    neither x^a nor x^i y is divisible by y^2, never isolated, and gets the
    cap; likewise for x.
    """

    def intercept(axis: int) -> int:
        pure = [m[axis] for m in poly if m[1 - axis] == 0]
        return min(pure or [2 * m[axis] for m in poly if m[1 - axis] == 1], default=cap)

    return min(cap, intercept(0) + intercept(1))


def germ_invariants(f, cap: int = DEFAULT_CAP) -> GermInvariants:
    """mu, tau and the truncation at which they stabilised.

    tau is read off mu's elimination, so it needs the cap that mu needs.
    mu - tau is the local value of the weight-1 pair.
    """
    germ = _as_germ(f)
    as_integer(cap, "cap", 1)
    if _is_smooth(germ):
        return GermInvariants(0, 0, 1)
    # Scaling f by the lcm of its denominators changes neither ideal and makes
    # every generator an integer polynomial.
    coefficients = germ.coefficients()
    scale = lcm(*(c.denominator for c in coefficients.values()))
    poly = {m: c.numerator * (scale // c.denominator) for m, c in coefficients.items()}
    jacobian = [_partial(poly, 0), _partial(poly, 1)]
    truncation = _first_truncation(poly, cap)
    pivots: dict[tuple[int, int], dict] = {}
    found = _stabilized_dimension(jacobian, truncation, pivots)
    if found is None and truncation < cap:
        pivots = {}
        found = _stabilized_dimension(jacobian, cap, pivots)
    if found is None:
        raise NotIsolatedError(
            f"no stabilisation up to truncation {cap}: "
            "non-isolated singularity (possibly a non-reduced germ) or cap too small"
        )
    mu, used_mu = found
    tau, used_tau = _stabilized_dimension([poly], used_mu, pivots)
    if mu < tau:
        raise AssertionError(f"mu = {mu} < tau = {tau}: elimination bug")
    return GermInvariants(mu, tau, max(used_mu, used_tau))


def log_chern_c2(c2_surface: int, kd_dot_d: int, taus: Iterable[int]) -> int:
    """Second Chern number of the logarithmic forms: c2 + (K+D).D - sum tau."""
    return _adjoint_difference(c2_surface, kd_dot_d, "tau", taus)


def euler_top_complement(c2_surface: int, kd_dot_d: int, mus: Iterable[int]) -> int:
    """Topological Euler number of the complement: c2 + (K+D).D - sum mu."""
    return _adjoint_difference(c2_surface, kd_dot_d, "mu", mus)


def _adjoint_difference(c2_surface, kd_dot_d, name: str, numbers: Iterable[int]) -> int:
    total = as_integer(c2_surface, "c2_surface") + as_integer(kd_dot_d, "kd_dot_d")
    for number in numbers:
        total -= as_integer(number, name)
    return total


def lct_obstruction(pairs: Iterable) -> tuple[int, str]:
    """Sum of mu - tau over the singular points, with its verdict.

    A positive total rules the logarithmic comparison theorem out for the
    curve; zero is only the absence of this obstruction, not a certificate
    that the theorem holds.
    """
    total = 0
    for entry in pairs:
        mu, tau = entry
        as_integer(mu, "mu")
        as_integer(tau, "tau")
        if mu < 0 or tau < 0 or mu < tau:
            raise ValueError(f"need mu >= tau >= 0, got (mu, tau) = ({mu}, {tau})")
        total += mu - tau
    return total, ("LCT-fails" if total > 0 else "no-obstruction")


def germ_from_dict(doc) -> CurveGerm:
    """Build a germ from ``{"terms": [[i, j, "p/q"], ...]}``."""
    (terms,) = as_object(doc, "germ", "terms")
    return CurveGerm(as_list(terms, "germ field 'terms'"))


def germ_to_dict(germ: CurveGerm) -> dict:
    return {"terms": [[i, j, format_rational(c)] for i, j, c in germ.terms]}
