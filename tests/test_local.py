from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbeuler import (
    Chain,
    ChainError,
    CyclicQuotient,
    EulerValue,
    Exactness,
    NotQuotientError,
    Ordinary,
    ReducedGerm,
    StarArm,
    StarQuotient,
    cover_degree,
    euler_cyclic,
    euler_local,
    euler_ordinary,
    euler_ordinary3_cover_oracle,
    euler_star,
    singularity_from_dict,
    singularity_to_dict,
    validate_star,
)

weights = st.fractions(min_value=0, max_value=1, max_denominator=24)


def star(b, arms):
    return StarQuotient(b, tuple(StarArm(Chain(n, q), F(d)) for n, q, d in arms))


CUSP_ARMS = ((2, 1, 0), (3, 1, 0))


def cusp(alpha):
    return star(1, CUSP_ARMS + ((1, 0, alpha),))


ADE_STARS = {
    "D4": (2, ((2, 1, 0), (2, 1, 0), (2, 1, 0)), (2, 2, 2), F(1, 8)),
    "E6": (2, ((2, 1, 0), (3, 2, 0), (3, 2, 0)), (2, 3, 3), F(1, 24)),
    "E7": (2, ((2, 1, 0), (3, 2, 0), (4, 3, 0)), (2, 3, 4), F(1, 48)),
    "E8": (2, ((2, 1, 0), (3, 2, 0), (5, 4, 0)), (2, 3, 5), F(1, 120)),
}


class TestEulerValue:
    def test_not_lc_must_be_zero(self):
        with pytest.raises(ValueError):
            EulerValue(F(1, 2), Exactness.EXACT, lc=False)

    def test_lc_bounded_by_one(self):
        with pytest.raises(ValueError):
            EulerValue(F(3, 2), Exactness.EXACT, lc=True)

    def test_labels(self):
        value = EulerValue(F(0), Exactness.EXACT, lc=False)
        assert value.lc_label() == "non-lc"
        assert value.is_exact


class TestLcStatus:
    def test_examples(self):
        # The evaluator's flag is the only lc verdict.
        assert euler_local(Ordinary((F(1), F(1), F(1)))).lc is False
        assert euler_local(Ordinary((F(1, 2),) * 3)).lc is True
        assert euler_local(star(1, CUSP_ARMS + ((1, 0, F(9, 10)),))).lc is False
        assert euler_local(CyclicQuotient(Chain(4, 3), F(1), F(1))).lc is True
        assert euler_local(ReducedGerm(12, 11)).lc is True


class TestOrdinary:
    def test_three_halves(self):
        value = euler_ordinary([F(1, 2)] * 3)
        assert (value.value, value.exactness, value.lc) == (F(1, 16), Exactness.EXACT, True)

    def test_unbalanced_triple(self):
        assert euler_ordinary([F(1, 6), F(1, 3), F(1, 2)]).value == F(1, 4)

    def test_four_branch_upper_bound(self):
        value = euler_ordinary([F(1, 3)] * 4)
        assert value.value == F(1, 9)
        assert value.exactness is Exactness.UPPER_BOUND
        assert value.lc

    def test_single_branch_is_smooth_point(self):
        assert euler_ordinary([F(1, 2)]).value == F(1, 2)
        assert euler_ordinary([F(0)]).value == F(1)

    def test_non_lc_reports_zero_exact(self):
        value = euler_ordinary([F(1)] * 3)
        assert (value.value, value.exactness, value.lc) == (F(0), Exactness.EXACT, False)

    def test_weight_out_of_range(self):
        with pytest.raises(ValueError):
            euler_ordinary([F(3, 2)])
        with pytest.raises(ValueError):
            euler_ordinary([])

    @given(st.lists(weights, min_size=1, max_size=6))
    def test_permutation_invariance(self, coeffs):
        forward = euler_ordinary(coeffs)
        assert euler_ordinary(list(reversed(coeffs))) == forward
        assert euler_ordinary(sorted(coeffs)) == forward

    @given(st.lists(weights, min_size=2, max_size=6))
    def test_zero_padding_never_changes_value_or_kind(self, coeffs):
        base = euler_ordinary(coeffs)
        padded = euler_ordinary(coeffs + [F(0)])
        assert padded == base

    @given(st.lists(weights, min_size=1, max_size=6))
    def test_multiplicity_bound_for_lc(self, coeffs):
        total = sum(coeffs)
        value = euler_ordinary(coeffs)
        if total <= 2:
            assert value.value <= (1 - total / 2) ** 2
            assert value.value <= 1
        else:
            assert not value.lc

    @given(st.lists(weights, min_size=0, max_size=4))
    def test_weight_one_kill(self, coeffs):
        point = coeffs + [F(1)]
        value = euler_ordinary(point)
        if value.lc:
            assert value.value == 0

    def test_balanced_boundary_matches_both_cases(self):
        # At 2 a_n = a the two exact formulas agree: both give (1 - a_n)^2.
        for top in (F(1, 5), F(1, 3), F(2, 5), F(1, 2)):
            value = euler_ordinary([top, top / 2, top / 2])
            assert value.value == (1 - top) ** 2

    def test_sum_two_boundary_gives_zero(self):
        assert euler_ordinary([F(1), F(1, 2), F(1, 2)]).value == 0
        assert euler_ordinary([F(2, 3)] * 3).value == 0


class TestCyclic:
    def test_examples(self):
        assert euler_cyclic(Chain(1, 0), F(1, 2), F(1, 3)).value == F(1, 3)
        assert euler_cyclic(Chain(3, 1), F(0), F(0)).value == F(1, 3)
        assert euler_cyclic(Chain(4, 3), F(1), F(1, 2)).value == F(0)

    def test_value_independent_of_q(self):
        assert euler_cyclic(Chain(5, 2), F(1, 3), F(1, 7)) == euler_cyclic(
            Chain(5, 3), F(1, 3), F(1, 7)
        )

    def test_minus_one_curve_rejected(self):
        with pytest.raises(ChainError):
            euler_cyclic(Chain(1, 1), F(0), F(0))

    @given(
        st.integers(1, 40),
        weights,
        weights,
    )
    def test_scaling_identity(self, n, d1, d2):
        # Degree-n quotients scale the two-branch smooth value by 1/n.
        q = next(q for q in range(n) if gcd(n, q) == 1 and q < max(n, 1))
        lifted = euler_ordinary([d1, d2])
        assert n * euler_cyclic(Chain(n, q), d1, d2).value == lifted.value


class TestStars:
    def test_e8_validation(self):
        validation = validate_star(2, (StarArm(Chain(2, 1), F(0)), StarArm(Chain(3, 2), F(0)), StarArm(Chain(5, 4), F(0))))
        assert validation.invariants.b0 == F(1, 30)
        assert validation.triple == (2, 3, 5)
        assert validation.multipliers == (1, 1, 1)

    def test_cusp_star_assignment_prefers_exceptional(self):
        validation = validate_star(1, cusp(F(0)).arms)
        assert validation.invariants.b0 == F(1, 6)
        assert validation.triple == (2, 3, 3)
        assert validation.multipliers == (1, 1, 3)

    def test_not_quotient(self):
        with pytest.raises(NotQuotientError):
            validate_star(1, star(1, ((5, 1, 0), (5, 1, 0), (5, 1, 0))).arms)

    def test_negative_b0_rejected(self):
        with pytest.raises(NotQuotientError):
            validate_star(1, star(1, ((2, 1, 0), (3, 2, 0), (5, 4, 0))).arms)

    def test_ade_reciprocals(self):
        for name, (b, arms, triple, expected) in ADE_STARS.items():
            validation = validate_star(b, star(b, arms).arms)
            assert validation.triple == triple, name
            value = euler_star(b, star(b, arms).arms)
            record = cover_degree(validation.invariants.b0, *triple)
            assert value.value == expected == 1 / record.degree, name

    def test_cusp_values(self):
        assert euler_star(1, cusp(F(1, 2)).arms).value == F(1, 6)
        assert euler_star(1, cusp(F(1, 12)).arms).value == F(5, 6)
        non_lc = euler_star(1, cusp(F(9, 10)).arms)
        assert (non_lc.value, non_lc.lc) == (F(0), False)

    def test_case_boundaries_agree(self):
        # alpha = 1: the balanced formula vanishes like the non-lc case.
        boundary = euler_star(1, cusp(F(5, 6)).arms)
        assert (boundary.value, boundary.lc) == (F(0), True)
        # alpha = 2 beta + 1: both closed forms give beta^2 / b0.
        invariants = validate_star(1, cusp(F(1, 6)).arms).invariants
        assert invariants.alpha == 2 * invariants.beta + 1
        value = euler_star(1, cusp(F(1, 6)).arms).value
        assert value == (invariants.alpha - 1) ** 2 / (4 * invariants.b0)
        assert value == (invariants.alpha - 1 - invariants.beta) * invariants.beta / invariants.b0

    @given(st.fractions(min_value=0, max_value=1, max_denominator=60))
    def test_weight_one_arm_kills_value(self, d):
        value = euler_star(2, star(2, ((2, 1, 1), (3, 2, 0), (5, 4, d))).arms)
        assert value.value == 0

    @pytest.mark.parametrize(
        "b, arms, message",
        [
            (0, ((2, 1, 0), (3, 2, 0), (5, 4, 0)), "central weight b"),
            (-2, ((2, 1, 0), (3, 2, 0), (5, 4, 0)), "central weight b"),
            (2, ((2, 1, 0), (3, 2, 0)), "exactly 3 arms, got 2"),
        ],
    )
    def test_malformed_star_rejected(self, b, arms, message):
        with pytest.raises(ValueError, match=message):
            StarQuotient(b, arms)
        with pytest.raises(ValueError, match=message):
            euler_star(b, arms)


class TestCoverDegree:
    def test_examples(self):
        assert cover_degree(F(1, 30), 2, 3, 5).half_order == 30
        assert cover_degree(F(1, 30), 2, 3, 5).degree == 120
        assert cover_degree(F(1, 2), 2, 2, 2).degree == 8
        assert cover_degree(F(1, 6), 2, 3, 3).degree == 24

    def test_non_spherical_rejected(self):
        with pytest.raises(ValueError):
            cover_degree(F(1, 2), 3, 3, 3)
        with pytest.raises(ValueError):
            cover_degree(F(0), 2, 3, 5)


class TestCoverOracle:
    def test_examples(self):
        assert euler_ordinary3_cover_oracle(6, 5, 4, 3) == F(1, 4)
        assert euler_ordinary3_cover_oracle(3, 2, 2, 2) == F(1, 4)
        assert euler_ordinary3_cover_oracle(2, 1, 1, 1) == F(1, 16)

    def test_interior_range_enforced(self):
        with pytest.raises(ValueError):
            euler_ordinary3_cover_oracle(4, 0, 1, 1)
        with pytest.raises(ValueError):
            euler_ordinary3_cover_oracle(4, 1, 4, 1)

    @pytest.mark.parametrize(
        "args",
        [
            (F(4), 1, 1, 1),
            (4, 1.0, 1, 1),
            (4, 1, True, 1),
            (4, 1, 1, "1"),
            (1, 1, 1, 1),
            (0, 1, 1, 1),
            (-3, 1, 1, 1),
            (5, 0, 2, 2),
            (5, 2, 5, 2),
            (5, 2, 2, -1),
        ],
    )
    def test_bad_arguments_rejected(self, args):
        with pytest.raises(ValueError):
            euler_ordinary3_cover_oracle(*args)

    def test_matches_closed_form_small(self):
        for n in range(2, 6):
            for l1 in range(1, n):
                for l2 in range(1, n):
                    for l3 in range(1, n):
                        closed = euler_ordinary(
                            [1 - F(l, n) for l in (l1, l2, l3)]
                        )
                        assert closed.value == euler_ordinary3_cover_oracle(n, l1, l2, l3)


class TestDispatchAndSerialization:
    def test_reduced_germ_values(self):
        assert euler_local(ReducedGerm(2, 2)).value == 0
        assert euler_local(ReducedGerm(12, 11)).value == 1
        assert euler_local(Ordinary((F(1, 2), F(1, 2)))).value == F(1, 4)

    def test_reduced_germ_defect_above_one_rejected(self):
        with pytest.raises(ValueError):
            euler_local(ReducedGerm(5, 2))

    def test_mu_ge_tau_enforced(self):
        with pytest.raises(ValueError):
            ReducedGerm(2, 3)

    @pytest.mark.parametrize(
        "doc",
        [
            {"type": "ordinary", "coeffs": ["1/2", "1/2", "1/2"]},
            {"type": "cyclic", "n": 5, "q": 2, "d1": "1/3", "d2": "0"},
            {"type": "star", "b": 1, "arms": [[2, 1, "0"], [3, 1, "0"], [1, 0, "1/2"]]},
            {"type": "germ_mu_tau", "mu": 12, "tau": 11},
        ],
    )
    def test_document_round_trip(self, doc):
        singularity = singularity_from_dict(doc)
        again = singularity_from_dict(singularity_to_dict(singularity))
        assert euler_local(again) == euler_local(singularity)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            singularity_from_dict({"type": "mystery"})
        with pytest.raises(ValueError):
            singularity_from_dict({"type": "ordinary"})

    @pytest.mark.parametrize(
        "germ, evaluate",
        [
            (CyclicQuotient(Chain(5, 2), F(1, 3), F(0)), lambda g: euler_cyclic(g.chain, g.d1, g.d2)),
            (star(2, ADE_STARS["E8"][1]), lambda g: euler_star(g.b, g.arms)),
        ],
        ids=["cyclic", "star"],
    )
    def test_evaluation_reads_the_given_germ(self, monkeypatch, germ, evaluate):
        expected = evaluate(germ)
        built = []
        monkeypatch.setattr(type(germ), "__post_init__", built.append)
        assert euler_local(germ) == expected
        assert built == []
