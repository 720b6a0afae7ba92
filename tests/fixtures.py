"""Concrete surface pairs used across the test suite.

Each builder returns a fully incidence-consistent :class:`PairDescription`;
the log canonical ones with an effective adjoint class form the corpus for
the never-violation gate.
"""

from fractions import Fraction as F
from itertools import combinations

from orbeuler import (
    ComponentData,
    CyclicQuotient,
    Ordinary,
    PairDescription,
    ReducedGerm,
    SingularPointData,
    StarQuotient,
    SurfaceData,
)


def cusp_local(alpha) -> StarQuotient:
    return StarQuotient(1, ((2, 1, 0), (3, 1, 0), (1, 0, F(alpha))))


def quadrilateral_pair(a=F(2, 3)) -> PairDescription:
    """The complete quadrilateral: 6 lines, t_2 = 3, t_3 = 4."""
    line_ids = {pair: f"L{pair[0]}{pair[1]}" for pair in combinations(range(1, 5), 2)}
    components = tuple(
        ComponentData(id=name, coeff=a, genus=0, degree=1) for name in line_ids.values()
    )
    points = []
    for base in range(1, 5):
        incident = tuple(
            (name, 1) for pair, name in line_ids.items() if base in pair
        )
        points.append(
            SingularPointData(
                id=f"T{base}",
                local=Ordinary((a, a, a)),
                incident=incident,
                multiplicity=3 * a,
            )
        )
    for left, right in (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))):
        points.append(
            SingularPointData(
                id=f"D{left[0]}{left[1]}",
                local=Ordinary((a, a)),
                incident=((line_ids[left], 1), (line_ids[right], 1)),
                multiplicity=2 * a,
            )
        )
    return PairDescription(SurfaceData.projective_plane(), components, tuple(points))


def smooth_plane_curve_pair(degree: int, a) -> PairDescription:
    genus = (degree - 1) * (degree - 2) // 2
    return PairDescription(
        SurfaceData.projective_plane(),
        (ComponentData(id="C", coeff=F(a), genus=genus, degree=degree),),
        (),
    )


def concurrent_lines_pair(count: int, a) -> PairDescription:
    a = F(a)
    components = tuple(
        ComponentData(id=f"L{i}", coeff=a, genus=0, degree=1) for i in range(count)
    )
    point = SingularPointData(
        id="O",
        local=Ordinary((a,) * count),
        incident=tuple((f"L{i}", 1) for i in range(count)),
        multiplicity=count * a,
    )
    return PairDescription(SurfaceData.projective_plane(), components, (point,))


def nodal_cubic_pair() -> PairDescription:
    return PairDescription(
        SurfaceData.projective_plane(),
        (ComponentData(id="C", coeff=F(1), genus=0, degree=3),),
        (
            SingularPointData(
                id="N",
                local=Ordinary((F(1), F(1))),
                incident=(("C", 2),),
                multiplicity=F(2),
            ),
        ),
    )


def cuspidal_cubic_with_line_pair() -> PairDescription:
    """Cuspidal cubic at weight 5/6 (lc boundary) plus a transverse line."""
    a_cubic, a_line = F(5, 6), F(2, 3)
    components = (
        ComponentData(id="C", coeff=a_cubic, genus=0, degree=3),
        ComponentData(id="L", coeff=a_line, genus=0, degree=1),
    )
    points = [
        SingularPointData(
            id="K",
            local=cusp_local(a_cubic),
            incident=(("C", 1),),
            multiplicity=2 * a_cubic,
        )
    ]
    for i in range(3):
        points.append(
            SingularPointData(
                id=f"T{i}",
                local=Ordinary((a_cubic, a_line)),
                incident=(("C", 1), ("L", 1)),
                multiplicity=a_cubic + a_line,
            )
        )
    return PairDescription(SurfaceData.projective_plane(), components, tuple(points))


def nine_cusp_sextic_pair(alpha=F(1, 2)) -> PairDescription:
    alpha = F(alpha)
    points = tuple(
        SingularPointData(
            id=f"K{i}",
            local=cusp_local(alpha),
            incident=(("C", 1),),
            multiplicity=2 * alpha,
        )
        for i in range(9)
    )
    return PairDescription(
        SurfaceData.projective_plane(),
        (ComponentData(id="C", coeff=alpha, genus=1, degree=6),),
        points,
    )


def four_concurrent_plus_two_pair() -> PairDescription:
    """Four concurrent lines and two generic ones at weight 1/2.

    The center is a four-branch ordinary point, so the global value is only
    an upper bound; the adjoint degree is exactly 0.
    """
    a = F(1, 2)
    names = [f"A{i}" for i in range(1, 5)] + ["B1", "B2"]
    components = tuple(ComponentData(id=n, coeff=a, genus=0, degree=1) for n in names)
    points = [
        SingularPointData(
            id="O",
            local=Ordinary((a, a, a, a)),
            incident=tuple((f"A{i}", 1) for i in range(1, 5)),
            multiplicity=4 * a,
        )
    ]
    crossings = [(b, f"A{i}") for b in ("B1", "B2") for i in range(1, 5)]
    crossings.append(("B1", "B2"))
    for left, right in crossings:
        points.append(
            SingularPointData(
                id=f"X{left}{right}",
                local=Ordinary((a, a)),
                incident=((left, 1), (right, 1)),
                multiplicity=2 * a,
            )
        )
    return PairDescription(SurfaceData.projective_plane(), components, tuple(points))


def quadric_pair() -> PairDescription:
    """P1 x P1 with a smooth (4,4)-curve at weight 1 (generic mode)."""
    return PairDescription(
        SurfaceData(e_top=4, c1_sq=8),
        (
            ComponentData(
                id="D",
                coeff=F(1),
                genus=9,
                pairings={"K": -16, "D": 32},
            ),
        ),
        (),
        effective=True,
    )


def quotient_point_pair() -> PairDescription:
    """A surface with one A1 point and empty boundary (not BMY-eligible)."""
    return PairDescription(
        SurfaceData(e_top=3, c1_sq=8),
        (),
        (
            SingularPointData(
                id="Q",
                local=CyclicQuotient(2, 1, F(0), F(0)),
                incident=(),
                multiplicity=F(0),
            ),
        ),
        effective=False,
    )


def refused_germ_pair() -> PairDescription:
    """A weight-1 quartic through a reduced germ with mu - tau = 2.

    The evaluator refuses that germ as not log canonical, so every checker
    must refuse the pair.
    """
    return PairDescription(
        SurfaceData.projective_plane(),
        (ComponentData(id="C", coeff=F(1), genus=2, degree=4),),
        (
            SingularPointData(
                id="P",
                local=ReducedGerm(3, 1),
                incident=(("C", 1),),
                multiplicity=F(2),
            ),
        ),
    )


def lc_effective_corpus():
    """Named pairs that are log canonical with an effective adjoint multiple."""
    return [
        ("quadrilateral a=2/3", quadrilateral_pair()),
        ("smooth quartic a=1", smooth_plane_curve_pair(4, 1)),
        ("smooth quintic a=4/5", smooth_plane_curve_pair(5, F(4, 5))),
        ("smooth sextic a=1/2", smooth_plane_curve_pair(6, F(1, 2))),
        ("nodal cubic a=1", nodal_cubic_pair()),
        ("cuspidal cubic + line", cuspidal_cubic_with_line_pair()),
        ("nine-cusp sextic alpha=1/2", nine_cusp_sextic_pair()),
        ("four concurrent + two", four_concurrent_plus_two_pair()),
        ("quadric (4,4) curve", quadric_pair()),
    ]


def all_ordinary_corpus():
    """The corpus members whose singular points are all ordinary."""
    return [
        ("quadrilateral a=2/3", quadrilateral_pair()),
        ("smooth quartic a=1", smooth_plane_curve_pair(4, 1)),
        ("smooth quintic a=4/5", smooth_plane_curve_pair(5, F(4, 5))),
        ("smooth sextic a=1/2", smooth_plane_curve_pair(6, F(1, 2))),
        ("nodal cubic a=1", nodal_cubic_pair()),
        ("four concurrent + two", four_concurrent_plus_two_pair()),
        ("quadric (4,4) curve", quadric_pair()),
    ]
