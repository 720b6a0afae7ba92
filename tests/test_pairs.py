import json
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    euler_orbifold_global,
    euler_top_curve,
    max_canonical_degree_extremal,
    pair_from_dict,
    pair_kd_squared,
    pair_to_dict,
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

weights = st.fractions(min_value=0, max_value=1, max_denominator=24)


@st.composite
def chains(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    return Chain(n, draw(st.sampled_from([q for q in range(n) if gcd(n, q) == 1])))


local_singularities = st.one_of(
    st.builds(Ordinary, st.lists(weights, min_size=1, max_size=5).map(tuple)),
    st.builds(CyclicQuotient, chains(), weights, weights),
    st.builds(
        StarQuotient,
        st.integers(min_value=1, max_value=6),
        st.lists(st.tuples(chains(), weights), min_size=3, max_size=3).map(
            lambda arms: tuple((chain.n, chain.q, d) for chain, d in arms)
        ),
    ),
    st.integers(min_value=0, max_value=40).flatmap(
        lambda mu: st.builds(ReducedGerm, st.just(mu), st.integers(min_value=0, max_value=mu))
    ),
)
ids = st.lists(st.text(min_size=1, max_size=4), max_size=5, unique=True)


@st.composite
def pair_descriptions(draw):
    """Plane or generic pairs whose points draw from all four local classes."""
    plane = draw(st.booleans())
    component_ids = draw(ids)
    degree = st.integers(min_value=1, max_value=12)
    pairings = st.dictionaries(
        st.sampled_from(["K", *component_ids]), st.integers(min_value=-40, max_value=40)
    )
    components = []
    for cid in component_ids:
        use_degree = plane or draw(st.booleans())
        components.append(
            ComponentData(
                id=cid,
                coeff=draw(weights),
                genus=draw(st.integers(min_value=0, max_value=10)),
                degree=draw(degree) if use_degree else None,
                pairings=None if use_degree else draw(pairings),
            )
        )
    incidences = (
        st.lists(
            st.tuples(st.sampled_from(component_ids), st.integers(min_value=1, max_value=4)),
            max_size=len(component_ids),
            unique_by=lambda entry: entry[0],
        ).map(tuple)
        if component_ids
        else st.just(())
    )
    points = [
        SingularPointData(
            id=pid,
            local=draw(local_singularities),
            incident=draw(incidences),
            multiplicity=draw(st.fractions(min_value=0, max_value=12, max_denominator=24)),
        )
        for pid in draw(ids)
    ]
    if plane:
        surface = SurfaceData.projective_plane()
    else:
        surface = SurfaceData.generic(
            draw(st.integers(min_value=-20, max_value=40)),
            draw(st.integers(min_value=-20, max_value=40)),
        )
    return PairDescription(
        surface, tuple(components), tuple(points), draw(st.sampled_from([None, True, False]))
    )


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
        quadric = PairDescription(SurfaceData.generic(4, 8), (), (), effective=True)
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

    def test_quotient_point_off_boundary(self):
        pair = quotient_point_pair()
        with pytest.warns(UserWarning) as record:
            value = euler_orbifold_global(pair)
        assert value.value == 3 - F(1, 2)
        assert record[0].filename == __file__
        # The warning names the caller's line, whichever entry point it used.
        for checker in (check_bmy, check_bmy_multiplicities):
            with pytest.warns(UserWarning, match="incident to no component") as record:
                checker(pair)
            assert record[0].filename == __file__, checker.__name__


class TestKdSquared:
    def test_plane_examples(self):
        assert pair_kd_squared(smooth_plane_curve_pair(4, 1)) == 1
        assert pair_kd_squared(quadrilateral_pair()) == 1
        assert pair_kd_squared(concurrent_lines_pair(3, F(2, 3))) == 1

    def test_generic_bilinear_expansion(self):
        assert pair_kd_squared(quadric_pair()) == 8

    def test_missing_pairing(self):
        pair = PairDescription(
            SurfaceData.generic(4, 8),
            (ComponentData(id="D", coeff=F(1), genus=9, pairings={"K": -16}),),
            (),
            effective=True,
        )
        with pytest.raises(ValueError):
            pair_kd_squared(pair)

    def test_asymmetric_pairing_rejected(self):
        pair = PairDescription(
            SurfaceData.generic(4, 8),
            (
                ComponentData(id="A", coeff=F(1), genus=0, pairings={"K": 0, "A": 0, "B": 1}),
                ComponentData(id="B", coeff=F(1), genus=0, pairings={"K": 0, "B": 0, "A": 2}),
            ),
            (),
            effective=True,
        )
        with pytest.raises(ValueError):
            pair_kd_squared(pair)


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

    def test_branches_cannot_exceed_multiplicity(self):
        with pytest.raises(ValueError):
            max_canonical_degree_extremal(0, [(3, 2)])


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

    def test_duplicate_ids_rejected(self):
        component = ComponentData(id="C", coeff=F(1), genus=0, degree=3)
        with pytest.raises(ValueError):
            PairDescription(SurfaceData.projective_plane(), (component, component), ())

    def test_plane_mode_requires_degree(self):
        with pytest.raises(ValueError):
            PairDescription(
                SurfaceData.projective_plane(),
                (ComponentData(id="C", coeff=F(1), genus=0),),
                (),
            )

    def test_bad_documents(self):
        with pytest.raises(ValueError):
            pair_from_dict({"surface": {"mode": "weird"}})
        with pytest.raises(ValueError):
            pair_from_dict({"surface": {"mode": "generic", "e_top": 4}})
        with pytest.raises(ValueError):
            pair_from_dict(
                {"surface": {"mode": "plane", "e_top": 5}, "components": [], "points": []}
            )
