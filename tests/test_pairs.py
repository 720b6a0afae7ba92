import json
import warnings
from collections import defaultdict
from fractions import Fraction as F
from itertools import product
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import orbeuler.pairs
from orbeuler import (
    Chain,
    ComponentData,
    CyclicQuotient,
    Exactness,
    Ordinary,
    PairDescription,
    ReducedGerm,
    SingularPointData,
    StarQuotient,
    SurfaceData,
    Verdict,
    check_bmy,
    check_bmy_multiplicities,
    euler_local,
    euler_orbifold_global,
    format_rational,
    max_canonical_degree_extremal,
    pair_from_dict,
    pair_kd_squared,
    pair_to_dict,
    validate_star,
)

from fixtures import (
    all_ordinary_corpus,
    cusp_local,
    cuspidal_cubic_with_line_pair,
    four_concurrent_plus_two_pair,
    lc_effective_corpus,
    nine_cusp_sextic_pair,
    nodal_cubic_pair,
    quadric_pair,
    quadrilateral_pair,
    quotient_point_pair,
    refused_germ_pair,
    smooth_plane_curve_pair,
    concurrent_lines_pair,
)
from oracles import euler_top_curve

weights = st.fractions(min_value=0, max_value=1, max_denominator=24)


def coprime_residues(n):
    return [q for q in range(n) if gcd(n, q) == 1]


@st.composite
def chains(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    return Chain(n, draw(st.sampled_from(coprime_residues(n))))


def weighted_locals(weight):
    """Ordinary, cyclic and star germs whose boundary weights draw from ``weight``."""
    return st.one_of(
        st.builds(Ordinary, st.lists(weight, min_size=1, max_size=5).map(tuple)),
        st.builds(CyclicQuotient, chains(), weight, weight),
        st.builds(
            StarQuotient,
            st.integers(min_value=1, max_value=6),
            st.lists(st.tuples(chains(), weight), min_size=3, max_size=3).map(
                lambda arms: tuple((chain.n, chain.q, d) for chain, d in arms)
            ),
        ),
    )


ordinary_points = st.builds(Ordinary, st.lists(weights, min_size=1, max_size=5).map(tuple))
cyclic_points = st.builds(CyclicQuotient, chains(), weights, weights)

local_singularities = st.one_of(
    weighted_locals(weights),
    st.integers(min_value=0, max_value=40).flatmap(
        lambda mu: st.builds(ReducedGerm, st.just(mu), st.integers(min_value=0, max_value=mu))
    ),
)
# A point on no component must put no boundary weight there.
unweighted_locals = weighted_locals(st.just(F(0)))
ids = st.lists(st.text(min_size=1, max_size=4), max_size=5, unique=True)


def _is_quotient_star(b, arms):
    try:
        validate_star(b, arms)
    except ValueError:
        return False
    return True


# Arm orders up to 6 that some star accepts; b = 3 exceeds every sum of q/n.
STAR_ORDERS = [
    ns
    for ns in product(range(1, 7), repeat=3)
    if _is_quotient_star(3, [(n, 1 % n, 0) for n in ns])
]


@st.composite
def quotient_stars(draw):
    """Stars that :func:`validate_star` accepts: polyhedral orders and b0 > 0."""
    arms = tuple(
        (n, draw(st.sampled_from(coprime_residues(n))), draw(weights))
        for n in draw(st.sampled_from(STAR_ORDERS))
    )
    least_b = int(sum(F(q, n) for n, q, _ in arms)) + 1
    return StarQuotient(draw(st.integers(min_value=least_b, max_value=least_b + 3)), arms)


certifiable_locals = st.one_of(
    ordinary_points,
    cyclic_points,
    quotient_stars(),
    st.integers(min_value=0, max_value=40).flatmap(
        lambda mu: st.builds(ReducedGerm, st.just(mu), st.sampled_from([mu, max(mu - 1, 0)]))
    ),
)


def pairing_tables(draw, component_ids):
    """Complete symmetric generic pairings, one dict per component: each
    D_i.D_j with i != j sits on one of the two components or on both."""
    pairing = st.integers(min_value=-40, max_value=40)
    tables = {cid: {"K": draw(pairing)} for cid in component_ids}
    for index, left in enumerate(component_ids):
        for right in component_ids[index:]:
            value = draw(pairing)
            sides = (left,) if left == right else draw(st.sampled_from([(left,), (right,), (left, right)]))
            for side in sides:
                tables[side][right if side == left else left] = value
    return tables


@st.composite
def pair_descriptions(draw):
    """Plane or generic pairs whose points draw from all four local classes;
    a point on no component carries a germ without boundary weight and m_P 0."""
    plane = draw(st.booleans())
    # Generic mode reserves the id "K" for the pairing key K.D_i.
    component_ids = draw(ids if plane else ids.filter(lambda names: "K" not in names))
    tables = None if plane else pairing_tables(draw, component_ids)
    components = [
        ComponentData(
            id=cid,
            coeff=draw(weights),
            genus=draw(st.integers(min_value=0, max_value=10)),
            degree=draw(st.integers(min_value=1, max_value=12)) if plane else None,
            pairings=None if plane else tables[cid],
        )
        for cid in component_ids
    ]
    incidences = (
        st.lists(
            st.tuples(st.sampled_from(component_ids), st.integers(min_value=1, max_value=4)),
            max_size=len(component_ids),
            unique_by=lambda entry: entry[0],
        ).map(tuple)
        if component_ids
        else st.just(())
    )
    points = []
    for pid in draw(ids):
        incident = draw(incidences)
        points.append(
            SingularPointData(
                id=pid,
                local=draw(local_singularities if incident else unweighted_locals),
                incident=incident,
                multiplicity=draw(st.fractions(min_value=0, max_value=12, max_denominator=24))
                if incident
                else F(0),
            )
        )
    return PairDescription(
        draw(surfaces(plane)),
        tuple(components),
        tuple(points),
        None if plane else draw(st.sampled_from([None, True, False])),
    )


def surfaces(plane):
    if plane:
        return st.just(SurfaceData.projective_plane())
    pair_numbers = st.integers(min_value=-20, max_value=40)
    return st.builds(SurfaceData, pair_numbers, pair_numbers)


@st.composite
def certifiable_pairs(draw):
    """Pairs :func:`check_bmy` certifies, with every point on some component.

    Every germ is one the evaluator accepts.
    """
    plane = draw(st.booleans())
    names = st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=5, unique=True)
    # Generic mode reserves the id "K" for the pairing key K.D_i.
    component_ids = draw(names if plane else names.filter(lambda found: "K" not in found))
    tables = None if plane else pairing_tables(draw, component_ids)
    components = tuple(
        ComponentData(
            id=cid,
            coeff=draw(weights),
            genus=draw(st.integers(min_value=0, max_value=10)),
            degree=draw(st.integers(min_value=1, max_value=12)) if plane else None,
            pairings=None if plane else tables[cid],
        )
        for cid in component_ids
    )
    incidences = st.lists(
        st.tuples(st.sampled_from(component_ids), st.integers(min_value=1, max_value=4)),
        min_size=1,
        max_size=len(component_ids),
        unique_by=lambda entry: entry[0],
    ).map(tuple)
    points = tuple(
        SingularPointData(
            id=pid,
            local=draw(certifiable_locals),
            incident=draw(incidences),
            multiplicity=draw(st.fractions(min_value=0, max_value=12, max_denominator=24)),
        )
        for pid in draw(names)
    )
    # Plane mode decides effectivity by degree, so only a generic pair asserts it.
    effective = None if plane else draw(st.sampled_from([None, True, False]))
    return PairDescription(draw(surfaces(plane)), components, points, effective)


def paper_formula(pair):
    """e_orb and the multiplicity right side, term by term as the paper writes them.

    e_orb = e_top - sum a_i e_top(D_i - Sing) + sum_P (e_P - 1), with
    e_top(D_i - Sing) from :func:`oracles.euler_top_curve` and the number of points
    on D_i; the multiplicity side is 3 (e_top + sum a_i (2 g_i - 2) +
    sum_P (r_P - m_P + m_P^2/4)), with r_P summed point by point.
    """
    e_orb = mult = F(pair.surface.e_top)
    weights = {c.id: c.coeff for c in pair.components}
    for component in pair.components:
        counts = [b for p in pair.points for cid, b in p.incident if cid == component.id]
        e_orb -= component.coeff * (euler_top_curve(component.genus, counts) - len(counts))
        mult += component.coeff * (2 * component.genus - 2)
    for point in pair.points:
        e_orb += euler_local(point.local).value - 1
        r = sum((weights[cid] * b for cid, b in point.incident), F(0))
        m = point.multiplicity
        mult += r - m + m * m / 4
    return e_orb, 3 * mult


def rebuilt(record, **changes):
    """``record`` with some fields changed, rebuilt through its constructor."""
    fields = {name: getattr(record, name) for name in type(record).__match_args__}
    return type(record)(**{**fields, **changes})


@st.composite
def regrouped_pairs(draw):
    """A certifiable pair with its points shuffled and some repeated under fresh ids."""
    pair = draw(certifiable_pairs())
    points = list(pair.points)
    repeats = draw(st.lists(st.sampled_from(points), max_size=8))
    # Drawn ids have at most 4 characters, so these cannot collide with them.
    points += [rebuilt(point, id=f"{point.id}/copy{i}") for i, point in enumerate(repeats)]
    return rebuilt(pair, points=tuple(draw(st.permutations(points))))


def per_point_bmy(pair):
    """What :func:`check_bmy` must report, with every sum taken point by point.

    Returns e_orb, the multiplicity right side, both verdicts and both note
    lists, from the literal sums of :func:`paper_formula` and the rules the
    :func:`check_bmy` docstring states.
    """
    e_orb, mult_rhs = paper_formula(pair)
    values = [euler_local(point.local) for point in pair.points]
    rhs = pair_kd_squared(pair)
    notes = []
    if not all(value.lc for value in values):
        notes.append("the pair is not log canonical at some supplied point")
    if pair.surface.plane:
        degree = sum((c.coeff * c.degree for c in pair.components), F(0))
        if degree < 3:
            notes.append(
                f"K+D has total degree {format_rational(degree - 3)} < 0 on the plane: "
                "no multiple is effective"
            )
    elif not pair.effective:
        notes.append("effectivity of a multiple of K+D was not asserted")
    mult_notes = list(notes)
    exact = all(value.is_exact for value in values)
    if notes:
        verdict = mult_verdict = Verdict.PRECONDITION_FAILED
    else:
        mult_verdict = Verdict.PROVED if rhs <= mult_rhs else Verdict.VIOLATION
        if 3 * e_orb < rhs:
            verdict = Verdict.VIOLATION
        elif not exact:
            verdict = Verdict.CONSISTENT_UPPER_BOUND
        else:
            verdict = Verdict.PROVED
            if 3 * e_orb == rhs:
                notes.append("equality: K+D is nef (consequence of the theorem, not verified)")
    return e_orb, mult_rhs, verdict, mult_verdict, notes, mult_notes


class TestEulerTopCurve:
    def test_examples(self):
        assert euler_top_curve(0, []) == 2
        assert euler_top_curve(1, []) == 0
        assert euler_top_curve(0, [2]) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            euler_top_curve(-1, [])
        with pytest.raises(ValueError):
            euler_top_curve(0, [0])


class TestGlobalAssembly:
    def test_empty_boundary_is_e_top(self):
        plane = PairDescription(SurfaceData.projective_plane(), (), ())
        assert euler_orbifold_global(plane).value == 3
        quadric = PairDescription(SurfaceData(4, 8), (), (), effective=True)
        assert euler_orbifold_global(quadric).value == 4

    def test_smooth_quartic(self):
        value = euler_orbifold_global(smooth_plane_curve_pair(4, 1))
        assert (value.value, value.exactness) == (F(7), Exactness.EXACT)

    def test_quadrilateral(self):
        value = euler_orbifold_global(quadrilateral_pair())
        assert (value.value, value.exactness, value.lc) == (F(1, 3), Exactness.EXACT, True)

    def test_upper_bound_propagates(self):
        value = euler_orbifold_global(four_concurrent_plus_two_pair())
        assert value.exactness is Exactness.UPPER_BOUND
        assert value.value == F(1, 4)

    def test_nine_cusp_sextic_vanishes(self):
        assert euler_orbifold_global(nine_cusp_sextic_pair()).value == 0

    def test_zero_weight_component_is_noop(self):
        pair = quadrilateral_pair()
        extended = PairDescription(
            pair.surface,
            pair.components + (ComponentData(id="Z", coeff=F(0), genus=0, degree=1),),
            pair.points,
        )
        assert euler_orbifold_global(extended) == euler_orbifold_global(pair)
        assert pair_kd_squared(extended) == pair_kd_squared(pair)


def paper_base(pair):
    """e_orb without its local terms: e_orb - sum_P (e_P - 1), point by point."""
    e_orb, _ = paper_formula(pair)
    for point in pair.points:
        e_orb -= euler_local(point.local).value - 1
    return e_orb


class TestPaperFormula:
    def test_corpora(self):
        for name, pair in lc_effective_corpus() + all_ordinary_corpus():
            report = check_bmy(pair)
            assert (report.global_value.value, report.multiplicities.rhs) == paper_formula(
                pair
            ), name
            assert report.global_value.base == paper_base(pair), name

    @given(certifiable_pairs())
    def test_property(self, pair):
        e_orb, mult_rhs = paper_formula(pair)
        assert euler_orbifold_global(pair).value == e_orb
        report = check_bmy(pair)
        assert (report.global_value.value, report.multiplicities.rhs) == (e_orb, mult_rhs)
        assert report.global_value.base == paper_base(pair)


class TestGrouping:
    """Repeated germs and multiplicities are summed once per distinct value."""

    @given(regrouped_pairs())
    def test_matches_per_point_sums(self, pair):
        report = check_bmy(pair)
        assert (
            report.global_value.value,
            report.multiplicities.rhs,
            report.verdict,
            report.multiplicities.verdict,
            list(report.notes),
            list(report.multiplicities.notes),
        ) == per_point_bmy(pair)

    def test_each_germ_object_hashed_once(self, monkeypatch):
        # The quadrilateral's points carry equal germs and m_P that are
        # distinct objects; the copies share their original's objects, as
        # points built by pair_from_dict share one object per literal.
        pair = quadrilateral_pair()
        copies = [rebuilt(point, id=f"{point.id}/{i}") for i in range(3) for point in pair.points]
        pair = rebuilt(pair, points=pair.points + tuple(copies))
        hashes = []
        unhashed = Ordinary.__hash__
        monkeypatch.setattr(Ordinary, "__hash__", lambda germ: hashes.append(id(germ)) or unhashed(germ))
        report = check_bmy(pair)
        assert sorted(hashes) == sorted({id(point.local) for point in pair.points})
        monkeypatch.undo()
        assert (report.global_value.value, report.multiplicities.rhs) == paper_formula(pair)


# Germs that put no boundary weight at their point, with their local values.
OFF_BOUNDARY_GERMS = {
    "A1": (CyclicQuotient(Chain(2, 1), F(0), F(0)), F(1, 2)),
    "smooth point": (Ordinary((F(0),)), F(1)),
    "weight-0 branches": (Ordinary((F(0), F(0))), F(1)),
    "E8": (StarQuotient(2, ((2, 1, 0), (3, 2, 0), (5, 4, 0))), F(1, 120)),
}

# Points off every component whose germ or m_P says D is there after all.
INCONSISTENT_OFF_BOUNDARY = {
    "ordinary weight": (Ordinary((F(0), F(1, 2))), F(0)),
    "cyclic d1": (CyclicQuotient(Chain(3, 1), F(1, 3), F(0)), F(0)),
    "star-arm weight": (StarQuotient(2, ((2, 1, 0), (3, 2, 0), (5, 4, "1/2"))), F(0)),
    "germ_mu_tau": (ReducedGerm(0, 0), F(0)),
    "m_P": (CyclicQuotient(Chain(2, 1), F(0), F(0)), F(1, 2)),
}


def off_boundary_point(point_id, germ, multiplicity=F(0)):
    return SingularPointData(id=point_id, local=germ, incident=(), multiplicity=multiplicity)


class TestOffBoundary:
    """A point on no component is accepted exactly when D is absent there."""

    @pytest.mark.parametrize("name", OFF_BOUNDARY_GERMS)
    def test_consistent_points_sum_silently(self, name):
        germ, local_value = OFF_BOUNDARY_GERMS[name]
        points = tuple(off_boundary_point(f"Q{i}", germ) for i in range(3))
        pair = rebuilt(quotient_point_pair(), points=points)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            value = euler_orbifold_global(pair)
            report = check_bmy(pair)
        assert record == []
        assert value.value == report.global_value.value == 3 + 3 * (local_value - 1)
        assert value.base == 3

    @pytest.mark.parametrize("name", INCONSISTENT_OFF_BOUNDARY)
    def test_inconsistent_point_is_rejected(self, name):
        # The pair is refused when it is built, so no checker ever sees it.
        germ, multiplicity = INCONSISTENT_OFF_BOUNDARY[name]
        with pytest.raises(ValueError, match="^point R lies on no component"):
            rebuilt(
                quotient_point_pair(),
                points=quotient_point_pair().points + (off_boundary_point("R", germ, multiplicity),),
            )

    def test_rejected_before_its_germ_is_evaluated(self, monkeypatch):
        # mu - tau = 2 is refused by the evaluator, but the point is refused first.
        monkeypatch.setattr(orbeuler.pairs, "euler_local", None)
        with pytest.raises(ValueError, match="^point R lies on no component"):
            rebuilt(quotient_point_pair(), points=(off_boundary_point("R", ReducedGerm(3, 1)),))

    @pytest.mark.parametrize("bad_first", [True, False], ids=["bad-first", "refused-germ-first"])
    def test_refused_before_a_refused_germ(self, bad_first):
        # A structural fault is found when the pair is built, so it is the
        # one reported wherever it stands among the points.
        refused = refused_germ_pair()
        bad = (off_boundary_point("R", Ordinary((F(1, 2),))),)
        points = bad + refused.points if bad_first else refused.points + bad
        with pytest.raises(ValueError, match="^point R lies on no component"):
            rebuilt(refused, points=points)


class TestKdSquared:
    def test_plane_examples(self):
        assert pair_kd_squared(smooth_plane_curve_pair(4, 1)) == 1
        assert pair_kd_squared(quadrilateral_pair()) == 1
        assert pair_kd_squared(concurrent_lines_pair(3, F(2, 3))) == 1

    def test_generic_bilinear_expansion(self):
        assert pair_kd_squared(quadric_pair()) == 8

    @pytest.mark.parametrize(
        "pairings, message",
        [
            ((None, {"K": 0, "B": 0}), "component A: missing pairing entry 'K'"),
            (({"A": 0}, {"B": 0}), "component A: missing pairing entry 'K'"),
            (({"K": 0, "A": 0}, {"B": 0}), "component B: missing pairing entry 'K'"),
            (({"K": 0}, {"K": 0, "B": 0, "A": 1}), "missing pairing entry between A and A"),
            (({"K": 0, "A": 0}, {"K": 0, "B": 0}), "missing pairing entry between A and B"),
            (({"K": 0, "A": 0, "B": 1}, {"K": 0}), "missing pairing entry between B and B"),
            (
                ({"K": 0, "A": 0, "B": 1}, {"K": 0, "B": 0, "A": 2}),
                "asymmetric pairing between A and B: 1 vs 2",
            ),
        ],
    )
    def test_incomplete_or_asymmetric_pairings_refused(self, pairings, message):
        # Generic pairings are complete and symmetric once the pair is built,
        # so (K+D)^2 never meets a missing or contradicting entry.
        components = tuple(
            ComponentData(id=cid, coeff=F(1), genus=0, pairings=table)
            for cid, table in zip("AB", pairings)
        )
        with pytest.raises(ValueError) as caught:
            PairDescription(SurfaceData(4, 8), components, (), effective=True)
        assert str(caught.value) == message

    def test_pairing_on_one_side_suffices(self):
        def two_curves(first):
            return PairDescription(
                SurfaceData(4, 8),
                (
                    ComponentData(id="A", coeff=F(1, 2), genus=0, pairings=first),
                    ComponentData(id="B", coeff=F(1, 3), genus=0, pairings={"K": -3, "B": 1, "A": 2}),
                ),
                (),
                effective=True,
            )

        # 8 + 2 (-1 - 1) + (0 + 2 * 1/6 * 2 + 1/9)
        expected = F(43, 9)
        assert pair_kd_squared(two_curves({"K": -2, "A": 0})) == expected
        assert pair_kd_squared(two_curves({"K": -2, "A": 0, "B": 2})) == expected

    def test_component_id_k_reserved_in_generic_mode(self):
        def one_curve(name):
            component = ComponentData(id=name, coeff=F(1), genus=0, pairings={"K": -2, name: 0})
            return PairDescription(SurfaceData(4, 8), (component,), (), effective=True)

        assert pair_kd_squared(one_curve("A")) == 4
        with pytest.raises(ValueError, match="reserved"):
            one_curve("K")
        # Plane mode reads degrees, not pairings, so "K" is an ordinary id there.
        line = ComponentData(id="K", coeff=F(1), genus=0, degree=1)
        assert pair_kd_squared(PairDescription(SurfaceData.projective_plane(), (line,), ())) == 4

    @pytest.mark.parametrize(
        "pairings, key",
        [
            ({"K": 1.5, "A": 0}, "'K'"),
            ({"K": 0, "A": True}, "'A'"),
            ({"K": "1", "A": 0}, "'K'"),
            ({"K": F(1), "A": 0}, "'K'"),
            ({"K": 0, 1: 0}, "1"),
            ({"K": 0, "": 0}, "''"),
        ],
    )
    def test_pairings_must_be_integers_under_string_keys(self, pairings, key):
        with pytest.raises(ValueError, match=f"component A: pairing (key )?{key}"):
            ComponentData(id="A", coeff=F(1, 2), genus=0, pairings=pairings)

    def test_unknown_pairing_key_rejected(self):
        for surface in (SurfaceData(4, 8), SurfaceData.projective_plane()):
            component = ComponentData(
                id="A", coeff=F(1), genus=0, degree=1, pairings={"K": -2, "A": 0, "B": 1}
            )
            with pytest.raises(ValueError, match="component A: pairing key 'B'"):
                PairDescription(surface, (component,), (), effective=True)

class TestCheckBmy:
    def test_quadrilateral_equality(self):
        report = check_bmy(quadrilateral_pair())
        assert report.verdict is Verdict.PROVED
        assert report.equality
        assert report.lhs == report.rhs == 1
        assert any("nef" in note for note in report.notes)

    def test_smooth_quartic(self):
        report = check_bmy(smooth_plane_curve_pair(4, 1))
        assert report.verdict is Verdict.PROVED
        assert (report.lhs, report.rhs) == (F(21), F(1))

    def test_three_concurrent_lines_not_effective(self):
        report = check_bmy(concurrent_lines_pair(3, F(2, 3)))
        assert report.verdict is Verdict.PRECONDITION_FAILED
        assert report.rhs == 1

    def test_non_lc_point_fails_precondition(self):
        report = check_bmy(concurrent_lines_pair(3, F(1)))
        assert report.verdict is Verdict.PRECONDITION_FAILED

    def test_upper_bound_verdict(self):
        report = check_bmy(four_concurrent_plus_two_pair())
        assert report.verdict is Verdict.CONSISTENT_UPPER_BOUND
        assert report.global_value.exactness is Exactness.UPPER_BOUND
        assert (report.lhs, report.rhs) == (F(3, 4), F(0))

    def test_nine_cusp_sextic_equality(self):
        report = check_bmy(nine_cusp_sextic_pair())
        assert report.verdict is Verdict.PROVED
        assert report.equality
        assert report.lhs == report.rhs == 0

    def test_never_violation_on_corpus(self):
        for name, pair in lc_effective_corpus():
            report = check_bmy(pair)
            assert report.verdict is not Verdict.VIOLATION, name
            assert report.verdict is not Verdict.PRECONDITION_FAILED, name


class TestCheckBmyMultiplicities:
    def test_nodal_cubic(self):
        report = check_bmy_multiplicities(nodal_cubic_pair())
        assert (report.lhs, report.rhs) == (F(0), F(6))
        assert report.verdict is Verdict.PROVED

    def test_cuspidal_cubic_weight_one_sides(self):
        # Weight 1 on a cuspidal cubic: the sides evaluate to 0 <= 3, but a
        # weight-1 cusp is not lc, so the verdict flags the hypothesis.
        pair = PairDescription(
            SurfaceData.projective_plane(),
            (ComponentData(id="C", coeff=F(1), genus=0, degree=3),),
            (
                SingularPointData(
                    id="K",
                    local=cusp_local(F(1)),
                    incident=(("C", 1),),
                    multiplicity=F(2),
                ),
            ),
        )
        report = check_bmy_multiplicities(pair)
        assert (report.lhs, report.rhs) == (F(0), F(3))
        assert report.verdict is Verdict.PRECONDITION_FAILED

    def test_smooth_quartic(self):
        report = check_bmy_multiplicities(smooth_plane_curve_pair(4, 1))
        assert (report.lhs, report.rhs) == (F(1), F(21))

    def test_quadrilateral_equality(self):
        report = check_bmy_multiplicities(quadrilateral_pair())
        assert report.equality
        assert report.lhs == report.rhs == 1

    def test_is_the_check_bmy_report(self):
        for name, pair in lc_effective_corpus() + all_ordinary_corpus():
            assert check_bmy_multiplicities(pair) == check_bmy(pair).multiplicities, name

    def test_agreement_with_bmy_on_ordinary_corpus(self):
        certifying = {Verdict.PROVED, Verdict.CONSISTENT_UPPER_BOUND}
        for name, pair in all_ordinary_corpus():
            bmy = check_bmy(pair)
            mult = check_bmy_multiplicities(pair)
            assert (bmy.verdict in certifying) == (mult.verdict in certifying), name
            assert mult.verdict is not Verdict.VIOLATION, name


class TestLogCanonicity:
    LC_NOTE = "the pair is not log canonical at some supplied point"

    def test_refused_germ_raises_in_both_checkers(self):
        pair = refused_germ_pair()
        for checker in (check_bmy, check_bmy_multiplicities):
            with pytest.raises(ValueError, match="mu - tau = 2 > 1"):
                checker(pair)

    def test_checkers_agree_on_lc(self):
        non_lc = [
            ("three concurrent lines a=1", concurrent_lines_pair(3, F(1))),
            ("nine-cusp sextic alpha=9/10", nine_cusp_sextic_pair(F(9, 10))),
        ]
        for name, pair in lc_effective_corpus() + non_lc:
            lc = euler_orbifold_global(pair).lc
            for report in (check_bmy(pair), check_bmy_multiplicities(pair)):
                assert (self.LC_NOTE not in report.notes) == lc, name


class TestCurveDegreeCap:
    def test_examples(self):
        assert max_canonical_degree_extremal(0, []) == -3
        assert max_canonical_degree_extremal(2, [(2, 2)]) == 3
        assert max_canonical_degree_extremal(1, [(1, 2)]) == F(-3, 2)

    @pytest.mark.parametrize(
        "genus, points, message",
        [
            (0, [(3, 2)], "branches r = 3 exceed multiplicity m = 2"),
            (-1, [], "genus must be a nonnegative integer, got -1"),
            (F(1), [], "genus must be a nonnegative integer, got Fraction(1, 1)"),
            (0, [(0, 2)], "branch count must be a positive integer, got 0"),
            (0, [(True, 2)], "branch count must be a positive integer, got True"),
        ],
    )
    def test_bad_arguments_rejected(self, genus, points, message):
        with pytest.raises(ValueError) as caught:
            max_canonical_degree_extremal(genus, points)
        assert str(caught.value) == message


NOT_A_LIST = "each entry of field 'incident' must be a [component, branches] list,"


class TestDocuments:
    def test_round_trip(self):
        for name, pair in lc_effective_corpus():
            doc = pair_to_dict(pair)
            again = pair_from_dict(doc)
            assert euler_orbifold_global(again) == euler_orbifold_global(pair), name
            assert check_bmy(again) == check_bmy(pair), name

    @given(pair_descriptions())
    def test_round_trip_property(self, pair):
        assert pair_from_dict(json.loads(json.dumps(pair_to_dict(pair)))) == pair

    def test_shared_local_documents(self):
        # Points whose local documents are equal share one parsed germ, and
        # the pair still round-trips unchanged.
        doc = json.loads(json.dumps(pair_to_dict(quadrilateral_pair())))
        pair = pair_from_dict(doc)
        assert len({id(point.local) for point in pair.points}) == 2
        assert len({id(point.multiplicity) for point in pair.points}) == 2
        assert pair_to_dict(pair) == doc

    def test_equal_incidences_are_one_object(self):
        doc = json.loads(json.dumps(pair_to_dict(quadrilateral_pair())))
        pair = pair_from_dict(doc)
        entries = [entry for point in pair.points for entry in point.incident]
        assert len({id(entry) for entry in entries}) == len(set(entries)) < len(entries)
        assert all(type(entry) is tuple for entry in entries)
        assert pair_to_dict(pair) == doc

    @pytest.mark.parametrize("first, second", list(product([1, True, "1", 1.0], repeat=2)))
    def test_germs_shared_only_by_equal_documents(self, first, second):
        # Local documents that differ only in the JSON type of one value
        # never share a germ, so each point is accepted or refused exactly
        # as it is alone, in either order.
        def local(d1):
            return {"type": "cyclic", "n": 3, "q": 1, "d1": d1, "d2": "0"}

        def build(*d1s):
            return pair_from_dict({
                "surface": {"mode": "plane"},
                "components": [{"id": "C", "a": "1", "genus": 0, "degree": 3}],
                "points": [
                    {"id": f"P{i}", "local": local(d1), "incident": [["C", 1]], "m_P": "1"}
                    for i, d1 in enumerate(d1s)
                ],
            })

        def outcome(*d1s):
            try:
                return [point.local for point in build(*d1s).points]
            except ValueError as error:
                return f"{type(error).__name__}: {error}"

        alone = [outcome(first), outcome(second)]
        both = outcome(first, second)
        refused = [result for result in alone if isinstance(result, str)]
        if refused:
            assert both == refused[0]
        else:
            assert both == alone[0] + alone[1]
            pair = build(first, second)
            shared = pair.points[0].local is pair.points[1].local
            assert shared == (type(first) is type(second))

    def test_documents_marshal_refuses_are_parsed_alone(self):
        # A library caller may put values JSON cannot hold in a local
        # document; such a document gets no cache key, so it is parsed for
        # its point alone and never raises on the way.
        class Ordered(dict):
            pass

        class Text(str):
            pass

        locals_ = [
            {"type": "ordinary", "coeffs": [F(1, 2), F(1, 2)]},
            Ordered(type="ordinary", coeffs=["1/2", "1/2"]),
            {"type": "ordinary", "coeffs": [Text("1/2"), "1/2"]},
            {"type": Text("ordinary"), "coeffs": ["1/2", "1/2"]},
        ]
        doc = json.loads(json.dumps(pair_to_dict(quadrilateral_pair(F(1, 2)))))
        for point, local in zip(doc["points"], locals_ * 2):
            point["local"] = local
        pair = pair_from_dict(doc)
        germs = [point.local for point in pair.points]
        assert all(germ == Ordinary((F(1, 2), F(1, 2))) for germ in germs)
        assert len({id(germ) for germ in germs}) == len(germs)

    def test_cuspidal_cubic_documents(self):
        pair = cuspidal_cubic_with_line_pair()
        report = check_bmy(pair_from_dict(pair_to_dict(pair)))
        assert report.verdict is Verdict.PROVED

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError):
            PairDescription(
                SurfaceData.projective_plane(),
                (ComponentData(id="C", coeff=F(1), genus=0, degree=3),),
                (
                    SingularPointData(
                        id="P",
                        local=Ordinary((F(1),)),
                        incident=(("missing", 1),),
                        multiplicity=F(1),
                    ),
                ),
            )

    @pytest.mark.parametrize(
        "incident, message",
        [
            (3, "field 'incident' must be a list, got int"),
            ((3,), "each entry of field 'incident' must be a [component, branches] list, got int"),
            ((("C",),), "incidence ('C',) is not a (component, branches) pair"),
            (((["C"], 1),), "incidence (['C'], 1) is not a (component, branches) pair"),
            ((("C", 1), ("C", 2)), "component 'C' listed twice"),
            (({"C": 1},), f"{NOT_A_LIST} got dict"),
            ((["C", 1, 2],), "incidence ['C', 1, 2] is not a (component, branches) pair"),
            ((("C", True),), "branch count must be a positive integer, got True"),
            ((("C", 0),), "branch count must be a positive integer, got 0"),
            ((("C", "1"),), "branch count must be a positive integer, got '1'"),
            # The first bad entry decides, and within an entry its shape
            # comes before its branch count, which comes before a repeat.
            ((("C", 1), ("C", 1), {"D": 1}), "component 'C' listed twice"),
            ((("C", 1), {"D": 1}, ("C", 1)), f"{NOT_A_LIST} got dict"),
            ((("C", 1), ("C", True, 1)),
             "incidence ('C', True, 1) is not a (component, branches) pair"),
            ((("C", 1), ("C", False)), "branch count must be a positive integer, got False"),
        ],
    )
    def test_incidences_checked_by_the_point(self, incident, message):
        # The point record is the one place an incidence is checked, for a
        # document and for a library caller alike.
        with pytest.raises(ValueError) as caught:
            SingularPointData("P", Ordinary((F(1),)), incident, F(1))
        assert str(caught.value) == f"point P: {message}"

    def test_a_point_carries_a_germ(self):
        # Refused when the point is built, not when check_bmy evaluates it.
        with pytest.raises(TypeError, match="^point P: not a local singularity: int$"):
            SingularPointData("P", 42, (), 0)

    @pytest.mark.parametrize("field", ["components", "points"])
    def test_duplicate_ids_rejected(self, field):
        pair = quadrilateral_pair()
        twice = getattr(pair, field)[:1] * 2
        with pytest.raises(ValueError, match=f"^{field[:-1]} ids must be unique$"):
            rebuilt(pair, **{field: twice})

    def test_plane_mode_requires_degree(self):
        with pytest.raises(ValueError):
            PairDescription(
                SurfaceData.projective_plane(),
                (ComponentData(id="C", coeff=F(1), genus=0),),
                (),
            )

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "pair document must be an object, got list"),
            ({"surface": {"mode": "weird"}}, "unknown surface mode: 'weird'"),
            ({"surface": {"mode": "generic", "e_top": 4}}, "generic surface missing field 'c1_sq'"),
            ({"surface": {"mode": "plane", "e_top": 5}}, "plane mode fixes e_top = 3 and c1_sq = 9"),
            # Plane mode reads its surface numbers by the rule generic mode does.
            ({"surface": {"mode": "plane", "e_top": 3.0}}, "e_top must be an integer, got 3.0"),
            ({"surface": {"mode": "plane", "c1_sq": True}}, "c1_sq must be an integer, got True"),
            ({"surface": {"mode": "plane", "e_top": "3"}}, "e_top must be an integer, got '3'"),
            (
                {
                    "surface": {"mode": "plane"},
                    "components": [{"id": "C", "a": "1", "genus": 0, "degree": 3}],
                    "points": [
                        {"id": "P", "local": {"type": "ordinary", "coeffs": ["1"]},
                         "incident": [["C", 1]], "m_P": "-1"},
                    ],
                },
                "point P: multiplicity must be nonnegative",
            ),
            # A field the surface mode never reads is refused, not ignored.
            (
                {
                    "surface": {"mode": "plane"},
                    "components": [{"id": "C", "a": "1", "genus": 2, "degree": 4,
                                    "pairings": {"K": 999, "C": 5}}],
                },
                "component C: plane mode reads no pairings",
            ),
            *(
                (
                    {
                        "surface": {"mode": "plane"},
                        "components": [{"id": "C", "a": "1", "genus": 2, "degree": 4}],
                        "effective": effective,
                    },
                    "plane mode decides effectivity by degree, so it reads no 'effective'",
                )
                for effective in (True, False)
            ),
            (
                {
                    "surface": {"mode": "generic", "e_top": 4, "c1_sq": 8},
                    "components": [{"id": "E", "a": "1", "genus": 0, "degree": 7,
                                    "pairings": {"K": -2, "E": 0}}],
                    "effective": True,
                },
                "component E: generic mode reads no degree",
            ),
        ],
    )
    def test_bad_documents(self, doc, message):
        with pytest.raises(ValueError) as caught:
            pair_from_dict(doc)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"local": {}, "m_P": "0"}, "point entry missing field 'id'"),
            ({"id": "P", "m_P": "0"}, "point entry missing field 'local'"),
            ({"id": "P", "local": {}, "m_P": "0"}, "point entry missing field 'incident'"),
            ({"id": "P", "local": {}, "incident": []}, "point entry missing field 'm_P'"),
            # A dict subclass that makes up missing keys is refused the same way.
            (defaultdict(int, id="P", local={}, incident=[]), "point entry missing field 'm_P'"),
            (defaultdict(int, local={}, m_P="0"), "point entry missing field 'id'"),
            (["P"], "point entry must be an object, got list"),
        ],
    )
    def test_point_entry_fields(self, entry, message):
        doc = {"surface": {"mode": "plane"}, "points": [entry]}
        with pytest.raises(ValueError) as caught:
            pair_from_dict(doc)
        assert str(caught.value) == message
