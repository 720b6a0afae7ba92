"""Global orbifold Euler numbers and the surface-pair inequality checker.

Run with:  python demos/global_pairs.py   (from the repository root)
"""

import sys
from fractions import Fraction as F
from itertools import combinations

from orbeuler import (
    ComponentData,
    Ordinary,
    PairDescription,
    SingularPointData,
    SurfaceData,
    check_bmy,
    cusp_star,
)


def quadrilateral(a=F(2, 3)):
    """Six lines through four general points: t_2 = 3, t_3 = 4."""
    names = {pair: f"L{pair[0]}{pair[1]}" for pair in combinations(range(1, 5), 2)}
    components = tuple(ComponentData(n, a, 0, 1) for n in names.values())
    points = [
        SingularPointData(
            f"T{base}",
            Ordinary((a, a, a)),
            tuple((n, 1) for pair, n in names.items() if base in pair),
            3 * a,
        )
        for base in range(1, 5)
    ]
    for left, right in (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))):
        points.append(
            SingularPointData(
                f"D{left[0]}{left[1]}",
                Ordinary((a, a)),
                ((names[left], 1), (names[right], 1)),
                2 * a,
            )
        )
    return PairDescription(SurfaceData.projective_plane(), components, tuple(points))


def nine_cusp_sextic(alpha=F(1, 2)):
    cusp = cusp_star(alpha)
    points = tuple(
        SingularPointData(f"K{i}", cusp, (("C", 1),), 2 * alpha) for i in range(9)
    )
    return PairDescription(
        SurfaceData.projective_plane(),
        (ComponentData("C", alpha, 1, 6),),
        points,
    )


def show(name, pair):
    report = check_bmy(pair)
    value, refined = report.global_value, report.multiplicities
    print(f"== {name} ==")
    print(f"  e_orb = {value.value} ({value.exactness.value}), (K+D)^2 = {report.rhs}")
    flag = " with equality" if report.equality else ""
    print(f"  3 e_orb >= (K+D)^2 : {report.lhs} >= {report.rhs} -> {report.verdict.value}{flag}")
    print(f"  multiplicity form  : {refined.lhs} <= {refined.rhs} -> {refined.verdict.value}")
    for note in report.notes:
        print(f"  note: {note}")
    print()


show("complete quadrilateral at weight 2/3 (equality case)", quadrilateral())
show("nine-cusped sextic at weight 1/2 (equality case)", nine_cusp_sextic())
show(
    "smooth quartic at weight 1",
    PairDescription(SurfaceData.projective_plane(), (ComponentData("C", F(1), 3, 4),), ()),
)

print("== three concurrent lines at weight 2/3 ==")
a = F(2, 3)
lines = PairDescription(
    SurfaceData.projective_plane(),
    tuple(ComponentData(f"L{i}", a, 0, 1) for i in range(3)),
    (
        SingularPointData(
            "O", Ordinary((a, a, a)), tuple((f"L{i}", 1) for i in range(3)), 3 * a
        ),
    ),
)
report = check_bmy(lines)
print(f"  verdict: {report.verdict.value} (the adjoint class has negative degree)")
sys.exit(0)
