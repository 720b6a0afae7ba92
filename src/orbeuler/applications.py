"""Plane-curve and general-type applications of the local calculus.

Four certified applications:

* line arrangements: if no point lies on more than 2k/3 of the k lines,
  then ``sum r t_r >= ceil(k^2/3 + k)`` and ``sum r^2 t_r >= ceil(4k^2/3)``,
  where t_r counts the points lying on exactly r lines;
* curves with many ordinary cusps: the weight-alpha cusp value is piecewise
  quadratic in alpha, every valid alpha gives a bound on the number of cusps
  of a degree-d plane curve, and optimizing the ratio over a rational grid
  certifies the asymptotic cusp density bound;
* canonical-degree bounds for a genus-g curve on a surface of general type
  with c1^2 > 2 c2 (any curve) or c1^2 > c2 (only ordinary singularities);
* the general singularity budget: for a reduced plane curve C with
  (X, alpha C) log canonical and K + alpha C pseudoeffective,
  ``sum 3 (alpha (mu_P - 1) + 1 - e_P) <= 3 c2 - c1^2 + alpha K.C
  + (3 alpha - alpha^2) C^2``.

Everything computes in exact rationals; the ratio optimizer never needs to
be good, because each probed alpha yields a theorem-backed bound on its own.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import ceil, floor, isqrt

from ._record import record
from .rationals import as_integer, as_rational, format_rational, parse_integer

__all__ = [
    "InvalidArrangementError",
    "ArrangementData",
    "ArrangementReport",
    "check_arrangement",
    "cusp_star",
    "cusp_euler",
    "cusp_count_bound",
    "cusp_ratio_optimize",
    "canonical_degree_bound",
    "BudgetReport",
    "check_singularity_budget",
]


class InvalidArrangementError(ValueError):
    """The t_r vector cannot come from k distinct lines in the plane."""


@record
class ArrangementData:
    """k distinct lines with t_r points lying on exactly r of them.

    Every pair of distinct lines in the plane meets in exactly one point, so
    ``sum t_r r (r - 1) = k (k - 1)``; descriptors violating this identity
    are rejected.
    """

    k: int
    t: tuple

    def _check(k, t):
        as_integer(k, "k", 1, InvalidArrangementError)
        normalized = []
        seen = set()
        for entry in t:
            try:
                r, count = entry
            except (TypeError, ValueError):
                raise InvalidArrangementError(
                    f"t entry {entry!r} is not an (r, t_r) pair"
                ) from None
            as_integer(r, "point order r", 2, InvalidArrangementError)
            as_integer(count, "t_{}", 0, InvalidArrangementError, r)
            if r in seen:
                raise InvalidArrangementError(f"duplicate entry for r = {r}")
            seen.add(r)
            if count:
                normalized.append((r, count))
        normalized.sort()
        pair_count = sum(count * r * (r - 1) for r, count in normalized)
        if pair_count != k * (k - 1):
            raise InvalidArrangementError(
                f"pair-count identity fails: sum t_r r(r-1) = {pair_count} "
                f"but k(k-1) = {k * (k - 1)}"
            )
        return k, tuple(normalized)

    @classmethod
    def from_counts(cls, k: int, t: Mapping) -> "ArrangementData":
        """Data from a mapping r -> t_r; a key may be an ASCII integer literal, as
        in JSON, and any other key is checked as given, so other strings are refused."""
        if not isinstance(t, Mapping):
            raise InvalidArrangementError(f"t must map r to t_r, got {type(t).__name__}")
        return cls(k, tuple((_point_order(r), count) for r, count in t.items()))


def _point_order(r):
    try:
        return parse_integer(r)
    except ValueError:
        return r


@record
class ArrangementReport:
    k: int
    verdict: str  # "holds" | "hypothesis-not-met" | "violation"
    large_pencil_r: int | None
    incidence_sum: int
    incidence_bound: int
    square_sum: int
    square_bound: int

    @property
    def incidence_slack(self) -> int:
        return self.incidence_sum - self.incidence_bound

    @property
    def square_slack(self) -> int:
        return self.square_sum - self.square_bound

    @property
    def incidence_equality(self) -> bool:
        return self.incidence_sum == self.incidence_bound

    @property
    def square_equality(self) -> bool:
        return self.square_sum == self.square_bound


def check_arrangement(k, t=None) -> ArrangementReport:
    """Check the incidence bounds for an arrangement without large pencils.

    Accepts an :class:`ArrangementData` or a pair (k, mapping r -> t_r).
    Arrangements with a point on more than 2k/3 lines fall outside the
    hypothesis and report "hypothesis-not-met"; so does a single line, each
    of whose points lies on 1 > 2/3 lines.
    """
    data = k if isinstance(k, ArrangementData) else ArrangementData.from_counts(k, t or {})
    incidence_sum = sum(count * r for r, count in data.t)
    square_sum = sum(count * r * r for r, count in data.t)
    incidence_bound = ceil(Fraction(data.k * data.k, 3) + data.k)
    square_bound = ceil(Fraction(4 * data.k * data.k, 3))
    large = [1] if data.k == 1 else [r for r, count in data.t if count and 3 * r > 2 * data.k]
    if large:
        verdict, pencil = "hypothesis-not-met", min(large)
    elif incidence_sum >= incidence_bound and square_sum >= square_bound:
        verdict, pencil = "holds", None
    else:
        verdict, pencil = "violation", None
    return ArrangementReport(
        k=data.k,
        verdict=verdict,
        large_pencil_r=pencil,
        incidence_sum=incidence_sum,
        incidence_bound=incidence_bound,
        square_sum=square_sum,
        square_bound=square_bound,
    )


def cusp_star(alpha) -> StarQuotient:
    """The star-shaped resolution of an ordinary cusp x^2 = y^3 with weight alpha."""
    # The only use of local here; imported on call so that the other
    # applications load without it.
    from .local import StarQuotient

    return StarQuotient(1, ((2, 1, 0), (3, 1, 0), (1, 0, alpha)))


def cusp_euler(alpha) -> Fraction:
    """Local value of an ordinary cusp with weight alpha, in closed form.

    1 - 2 alpha on [0, 1/6]; (3/2)(alpha - 5/6)^2 on [1/6, 5/6]; 0 beyond
    5/6 (not log canonical).  Contractually equal to evaluating the cusp
    star directly.
    """
    alpha = as_rational(alpha)
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha = {format_rational(alpha)} outside [0, 1]")
    if alpha <= Fraction(1, 6):
        return 1 - 2 * alpha
    if alpha <= Fraction(5, 6):
        return Fraction(3, 2) * (alpha - Fraction(5, 6)) ** 2
    return Fraction(0)


def cusp_count_bound(degree: int, alpha) -> int:
    """Largest number of ordinary cusps allowed on a degree-d plane curve.

    Specializes the singularity budget on the plane (3 c2 - c1^2 = 0,
    K.C = -3d, C^2 = d^2) to s cusps of Milnor number 2: the largest s with
    ``s * 3(alpha + 1 - e(alpha)) <= -3 alpha d + (3 alpha - alpha^2) d^2``,
    ties included.  Requires 0 < alpha <= 5/6 (the cusp stays log canonical)
    and alpha * d >= 3 (pseudoeffectivity).
    """
    as_integer(degree, "degree", 1)
    alpha = as_rational(alpha)
    if not 0 < alpha <= Fraction(5, 6):
        raise ValueError(
            f"alpha = {format_rational(alpha)} outside (0, 5/6]: the cusp would not stay lc"
        )
    if alpha * degree < 3:
        raise ValueError(
            f"alpha * degree = {format_rational(alpha * degree)} < 3: "
            "K + alpha C is not pseudoeffective on the plane"
        )
    cost = 3 * (alpha + 1 - cusp_euler(alpha))
    budget = -3 * alpha * degree + (3 * alpha - alpha * alpha) * degree * degree
    return floor(budget / cost)


def cusp_ratio_optimize(grid_denominator: int) -> tuple[Fraction, Fraction]:
    """Minimize the cusps-per-d^2 ratio over the grid j/grid_denominator.

    The objective is f(alpha) = (3 alpha - alpha^2) / (3 (alpha + 1 -
    (3/2)(alpha - 5/6)^2)) on (1/6, 5/6].  Its only critical point there is
    the minimum alpha* = (sqrt 73 - 1)/24, so only the two grid points either
    side of alpha* are probed.  Every probe is a valid asymptotic bound on its
    own, so correctness never depends on the optimizer; a finer grid only
    tightens the certified ratio.  Returns (alpha_star, ratio_star), the first
    grid point attaining the minimum.
    """
    as_integer(grid_denominator, "grid denominator", 48)
    g = grid_denominator
    # j = floor(g alpha*).  As alpha* - 1/6 > 1/7 and 5/6 - alpha* > 1/2, both j
    # and j + 1 lie in [g//6 + 1, 5g//6] for g >= 48, so neither needs clipping.
    j = (isqrt(73 * g * g) - g) // 24
    alphas = (Fraction(j, g), Fraction(j + 1, g))
    probes = [(a, (3 * a - a * a) / (3 * (a + 1 - cusp_euler(a)))) for a in alphas]
    return min(probes, key=lambda probe: probe[1])


def canonical_degree_bound(c1_sq: int, c2: int, genus: int, ordinary: bool) -> Fraction:
    """Upper bound for K_S C on a surface of general type.

    With ``ordinary=False`` (any curve) the hypothesis is c1^2 > 2 c2 and the
    bound is ((3 c2 - c1^2)(c1^2 + c2) + max(0, 6(g-1) c2)) / (c1^2 - 2 c2);
    with ``ordinary=True`` (curves with only ordinary singularities) the
    hypothesis is c1^2 > c2 and the bound is
    (3 c2 - c1^2 + max(0, 4g - 4)) c1^2 / (c1^2 - c2).
    """
    as_integer(c1_sq, "c1_sq")
    as_integer(c2, "c2")
    as_integer(genus, "genus", 0)
    if ordinary:
        if c1_sq <= c2:
            raise ValueError(f"hypothesis c1^2 > c2 fails: {c1_sq} <= {c2}")
        return Fraction((3 * c2 - c1_sq + max(0, 4 * genus - 4)) * c1_sq, c1_sq - c2)
    if c1_sq <= 2 * c2:
        raise ValueError(f"hypothesis c1^2 > 2 c2 fails: {c1_sq} <= {2 * c2}")
    return Fraction(
        (3 * c2 - c1_sq) * (c1_sq + c2) + max(0, 6 * (genus - 1) * c2), c1_sq - 2 * c2
    )


@record
class BudgetReport:
    lhs: Fraction
    rhs: Fraction
    slack: Fraction
    verdict: str  # "holds" | "violation"
    equality: bool


def check_singularity_budget(
    c1_sq: int, c2: int, alpha, k_dot_c: int, c_sq: int, points
) -> BudgetReport:
    """Evaluate the general per-point budget inequality exactly.

    ``points`` is a sequence of (mu_P, e_orb_P) for the singular points of
    the reduced curve C.  The caller warrants that (X, alpha C) is log
    canonical and K + alpha C pseudoeffective; this function only evaluates
    both sides and reports the comparison.
    """
    as_integer(c1_sq, "c1_sq")
    as_integer(c2, "c2")
    as_integer(k_dot_c, "k_dot_c")
    as_integer(c_sq, "c_sq")
    alpha = as_rational(alpha)
    lhs = Fraction(0)
    for entry in points:
        try:
            mu, local_value = entry
        except (TypeError, ValueError):
            raise ValueError(f"point {entry!r} is not a (mu, e_orb) pair") from None
        as_integer(mu, "mu", 1)
        lhs += 3 * (alpha * (mu - 1) + 1 - as_rational(local_value))
    rhs = 3 * c2 - c1_sq + alpha * k_dot_c + (3 * alpha - alpha * alpha) * c_sq
    return BudgetReport(
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        verdict="holds" if lhs <= rhs else "violation",
        equality=lhs == rhs,
    )
