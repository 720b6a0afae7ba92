"""Independent derivations that the tests compare the library against.

No certificate uses these: each recomputes a closed form of the library by a
second route, so a change to that closed form shows up as a disagreement.
"""

from fractions import Fraction

from orbeuler._record import record
from orbeuler.rationals import as_integer, as_rational, format_rational, hj_expand


@record
class CoverDegree:
    """Order bookkeeping for the smooth cover of a polyhedral quotient.

    ``half_order`` is the s with 1 + 1/s = 1/p1 + 1/p2 + 1/p3 (half the order
    of the projectivized group); the covering degree is ``4 s^2 b0``.
    """

    half_order: Fraction
    degree: Fraction
    triple: tuple[int, int, int]


def cover_degree(b0, p1, p2, p3):
    """Degree 4 s^2 b0 of the smooth cover for a spherical triple (p1,p2,p3)."""
    b0 = as_rational(b0)
    if b0 <= 0:
        raise ValueError(f"b0 must be positive, got {format_rational(b0)}")
    for p in (p1, p2, p3):
        as_integer(p, "triple entry", 1)
    excess = Fraction(1, p1) + Fraction(1, p2) + Fraction(1, p3) - 1
    if excess <= 0:
        raise ValueError(f"({p1}, {p2}, {p3}) is not a spherical triple")
    s = 1 / excess
    return CoverDegree(s, 4 * s * s * b0, (p1, p2, p3))


def star_determinant(b, arms):
    """det(-M) of a star's resolution graph, by fraction-free elimination.

    M is the intersection matrix: the central curve has self-intersection -b,
    and each arm (n, q) is a chain of curves with self-intersections
    ``-hj_expand(n, q)``, the first entry next to the central curve (read
    the other way round the determinant is wrong).  Equal to
    ``(b - sum q_i/n_i) n_1 n_2 n_3``.  The arm curves come first and the
    central curve last, so every leading minor but the whole is a product of
    chain determinants, which are positive: Bareiss elimination needs no
    pivoting, and each of its divisions is exact.
    """
    entries, edges = [], []
    for n, q in arms:
        chain = hj_expand(n, q)
        edges += [(i, i + 1) for i in range(len(entries), len(entries) + len(chain) - 1)]
        if chain:
            edges.append((len(entries), None))
        entries += chain
    entries.append(b)
    size = len(entries)
    matrix = [[0] * size for _ in range(size)]
    for i, entry in enumerate(entries):
        matrix[i][i] = entry
    for i, j in edges:
        j = size - 1 if j is None else j
        matrix[i][j] = matrix[j][i] = -1
    previous = 1
    for k in range(size - 1):
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                matrix[i][j] = (matrix[i][j] * matrix[k][k] - matrix[i][k] * matrix[k][j]) // previous
        previous = matrix[k][k]
    return matrix[-1][-1]


def euler_ordinary3_cover_oracle(n, l1, l2, l3):
    """Recompute the three-branch value through the cyclic cover.

    For weights a_i = 1 - l_i/n, pulling the logarithmic forms back along the
    degree-n cover branched over the three lines yields a rank-2 bundle of
    degree e = n - l1 - l2 - l3 on a curve.  Its line subsheaves have degree
    at least max(-l1, -l2, -l3, e), and a maximal one has degree
    s = max(that floor, e/2); the value is s(e - s)/n^2.  The 1/n^2
    normalization is calibrated against the closed form on its exact branches
    (see the test suite); this derivation is otherwise independent of the
    piecewise case analysis and serves as an oracle for it.
    """
    for name, value in (("n", n), ("l1", l1), ("l2", l2), ("l3", l3)):
        as_integer(value, name)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    for name, l in (("l1", l1), ("l2", l2), ("l3", l3)):
        if not 1 <= l <= n - 1:
            raise ValueError(f"{name} = {l} outside the interior range 1..{n - 1}")
    e = n - l1 - l2 - l3
    s = max(Fraction(max(-l1, -l2, -l3, e)), Fraction(e, 2))
    return s * (e - s) / (n * n)


def euler_top_curve(genus, branch_counts):
    """e_top of a curve: 2 - 2g - sum (r_P - 1) over its singular points."""
    total = 2 - 2 * as_integer(genus, "genus", 0)
    for r in branch_counts:
        total -= as_integer(r, "branch count", 1) - 1
    return total
