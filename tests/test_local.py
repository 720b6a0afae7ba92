from fractions import Fraction as F
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import given, settings
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
    StarInvariants,
    StarQuotient,
    StarValidation,
    as_rational,
    euler_local,
    format_rational,
    singularity_from_dict,
    singularity_to_dict,
    validate_star,
)

from oracles import cover_degree, euler_ordinary3_cover_oracle

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


# The Fraction evaluators that the integer ones replaced, kept as the oracle.


def ordinary_oracle(coeffs):
    weights = sorted(c for c in coeffs if c)
    if not weights:
        return F(1), Exactness.EXACT, True
    a = sum(weights)
    top = weights[-1]
    if a > 2:
        return F(0), Exactness.EXACT, False
    if 2 * top >= a:
        return (1 - a + top) * (1 - top), Exactness.EXACT, True
    if len(weights) <= 3:
        return (a - 2) ** 2 / 4, Exactness.EXACT, True
    return (1 - a / 2) ** 2, Exactness.UPPER_BOUND, True


_EXCEPTIONAL_TRIPLES = ((2, 3, 3), (2, 3, 4), (2, 3, 5))


def star_validation_oracle(star):
    b0 = star.b - sum(F(arm.q, arm.n) for arm in star.arms)
    if b0 <= 0:
        raise NotQuotientError(f"b0 = {format_rational(b0)} <= 0: the central curve does not contract")
    shares = [(1 - arm.d) / arm.n for arm in star.arms]
    invariants = StarInvariants(b0, sum(shares), min(shares))
    ns = tuple(arm.n for arm in star.arms)
    for m1 in range(1, 5 // ns[0] + 1):
        for m2 in range(1, 5 // ns[1] + 1):
            for m3 in range(1, 5 // ns[2] + 1):
                triple = tuple(sorted((ns[0] * m1, ns[1] * m2, ns[2] * m3)))
                if triple in _EXCEPTIONAL_TRIPLES:
                    return StarValidation(invariants, triple, (m1, m2, m3))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if ns[i] <= 2 and ns[j] <= 2:
            k = 3 - i - j
            multipliers = [0, 0, 0]
            multipliers[i] = 2 // ns[i]
            multipliers[j] = 2 // ns[j]
            multipliers[k] = 1 if ns[k] >= 2 else 2
            triple = tuple(sorted((2, 2, ns[k] * multipliers[k])))
            return StarValidation(invariants, triple, tuple(multipliers))
    raise NotQuotientError(f"no polyhedral assignment for arm orders {ns}")


def star_oracle(star):
    inv = star_validation_oracle(star).invariants
    if inv.alpha < 1:
        return F(0), Exactness.EXACT, False
    if inv.alpha < 2 * inv.beta + 1:
        return (inv.alpha - 1) ** 2 / (4 * inv.b0), Exactness.EXACT, True
    return (inv.alpha - 1 - inv.beta) * inv.beta / inv.b0, Exactness.EXACT, True


def oracle(germ) -> EulerValue:
    if isinstance(germ, Ordinary):
        return EulerValue(*ordinary_oracle(germ.coeffs))
    if isinstance(germ, CyclicQuotient):
        return EulerValue((1 - germ.d1) * (1 - germ.d2) / germ.chain.n, Exactness.EXACT, True)
    return EulerValue(*star_oracle(germ))


def coprime_residue(n, k):
    """The k-th residue q in [0, n) coprime to n, cyclically."""
    residues = [q for q in range(n) if gcd(n, q) == 1]
    return residues[k % len(residues)]


def _polyhedral(ns):
    try:
        star_validation_oracle(star(3, [(n, 1 % n, 0) for n in ns]))
    except NotQuotientError:
        return False
    return True


# Sorted arm orders up to 6 that some star accepts; b = 3 exceeds every sum of q/n.
POLYHEDRAL_ORDERS = [ns for ns in product(range(1, 7), repeat=3) if ns == tuple(sorted(ns)) and _polyhedral(ns)]


@st.composite
def arm_orders(draw):
    """Polyhedral arm orders, any orders up to 6, or a dihedral (2, 2, n) up to 60."""
    polyhedral = st.sampled_from(POLYHEDRAL_ORDERS)
    small = st.tuples(*[st.integers(1, 6)] * 3)
    dihedral = st.integers(2, 60).map(lambda n: (2, 2, n))
    return tuple(draw(st.permutations(draw(st.one_of(polyhedral, small, dihedral)))))


@st.composite
def any_stars(draw):
    """Stars with b0 on either side of 0 and any arm orders."""
    arms = tuple(
        (n, coprime_residue(n, draw(st.integers(0, 30))), draw(weights)) for n in draw(arm_orders())
    )
    least_b = int(sum(F(q, n) for n, q, _ in arms)) + 1
    return star(draw(st.integers(max(least_b - 1, 1), least_b + 2)), arms)


# k weights of at most 5/(2k) keep the sum a near 2, where the ordinary formulas switch.
ordinary_points = st.one_of(
    st.lists(weights, min_size=1, max_size=7),
    st.integers(1, 7).flatmap(
        lambda k: st.lists(
            st.fractions(min_value=0, max_value=min(1, F(5, 2 * k)), max_denominator=24), min_size=k, max_size=k
        )
    ),
).map(lambda ws: Ordinary(tuple(ws)))
cyclic_points = st.integers(1, 60).flatmap(
    lambda n: st.builds(
        CyclicQuotient, st.integers(0, 30).map(lambda k: Chain(n, coprime_residue(n, k))), weights, weights
    )
)


class TestIntegerEvaluationOracle:
    @staticmethod
    def assert_matches(germ):
        try:
            expected = oracle(germ)
        except NotQuotientError as error:
            with pytest.raises(NotQuotientError) as caught:
                euler_local(germ)
            assert str(caught.value) == str(error)
            return
        value = euler_local(germ)
        assert type(value.value) is F
        assert (value.value, value.exactness, value.lc) == (expected.value, expected.exactness, expected.lc)

    @settings(max_examples=300)
    @given(ordinary_points)
    def test_ordinary_property(self, germ):
        self.assert_matches(germ)

    @given(cyclic_points)
    def test_cyclic_property(self, germ):
        self.assert_matches(germ)

    @settings(max_examples=300)
    @given(any_stars())
    def test_star_property(self, germ):
        self.assert_matches(germ)

    @given(any_stars())
    def test_validation_matches(self, germ):
        try:
            expected = star_validation_oracle(germ)
        except NotQuotientError as error:
            with pytest.raises(NotQuotientError) as caught:
                validate_star(germ.b, germ.arms)
            assert str(caught.value) == str(error)
            return
        assert validate_star(germ.b, germ.arms) == expected

    @pytest.mark.parametrize(
        "coeffs",
        [
            (F(1), F(1, 2), F(1, 2)),  # a = 2, dominant
            (F(2, 3),) * 3,  # a = 2, balanced
            (F(1, 2),) * 4,  # a = 2, four branches
            (F(1), F(1, 2), F(1, 2), F(1, 100)),  # just above a = 2
            (F(2, 5), F(1, 5), F(1, 5)),  # 2 a_n = a
            (F(1, 2), F(1, 4), F(1, 8), F(1, 8)),  # 2 a_n = a, four branches
            (F(0),),
            (F(0), F(0), F(0)),
            (F(1),),
            (F(1), F(1, 3)),
            (F(1, 3),) * 4,
            (F(1, 4),) * 5,
            (F(2, 7), F(1, 5), F(3, 11), F(1, 4), F(2, 9), F(1, 6)),
        ],
    )
    def test_ordinary_boundaries(self, coeffs):
        self.assert_matches(Ordinary(coeffs))

    def test_ordinary_boundary_values(self):
        assert euler_local(Ordinary((F(1), F(1, 2), F(1, 2)))) == EulerValue(F(0), Exactness.EXACT, True)
        assert euler_local(Ordinary((F(2, 3),) * 3)) == EulerValue(F(0), Exactness.EXACT, True)
        assert euler_local(Ordinary((F(1, 2),) * 4)) == EulerValue(F(0), Exactness.UPPER_BOUND, True)
        assert euler_local(Ordinary((F(0), F(0)))) == EulerValue(F(1), Exactness.EXACT, True)
        assert euler_local(Ordinary((F(1),))) == EulerValue(F(0), Exactness.EXACT, True)
        assert euler_local(Ordinary((F(1, 4),) * 5)) == EulerValue(F(9, 64), Exactness.UPPER_BOUND, True)

    @pytest.mark.parametrize(
        "alpha, value, lc",
        [(F(5, 6), F(0), True), (F(1, 6), F(2, 3), True), (F(6, 7), F(0), False), (F(0), F(1), True)],
        ids=["alpha=1", "alpha=2beta+1", "alpha<1", "alpha=7/6"],
    )
    def test_star_boundaries(self, alpha, value, lc):
        germ = cusp(alpha)
        self.assert_matches(germ)
        assert euler_local(germ) == EulerValue(value, Exactness.EXACT, lc)

    @pytest.mark.parametrize("n", range(2, 61))
    def test_dihedral_b0_one_over_n(self, n):
        # D_{n+2}: b0 = 1/n = 1/lcm(2, 2, n) and e_orb = 1/|G| for the binary
        # dihedral group of order 4n.
        germ = star(2, ((2, 1, 0), (2, 1, 0), (n, n - 1, 0)))
        validation = validate_star(germ.b, germ.arms)
        assert validation.invariants == StarInvariants(F(1, n), 1 + F(1, n), F(1, n))
        assert validation == star_validation_oracle(germ)
        assert euler_local(germ) == EulerValue(F(1, 4 * n), Exactness.EXACT, True)
        self.assert_matches(germ)

    def test_exceptional_b0_one_over_lcm(self):
        for name, (b, arms, _, expected) in ADE_STARS.items():
            germ = star(b, arms)
            assert validate_star(b, germ.arms).invariants.b0 == F(1, lcm(*(n for n, _, _ in arms))), name
            assert euler_local(germ).value == expected, name
            self.assert_matches(germ)

    @pytest.mark.parametrize("d1, d2", [(F(0), F(0)), (F(1, 2), F(1, 3)), (F(1), F(2, 7)), (F(3, 4), F(1))])
    def test_cyclic_n_one(self, d1, d2):
        germ = CyclicQuotient(Chain(1, 0), d1, d2)
        assert euler_local(germ).value == (1 - d1) * (1 - d2)
        self.assert_matches(germ)


class TestUnchangedRefusals:
    @pytest.mark.parametrize("bad", [F(3, 2), F(-1, 2), "5/4", "-1", 2])
    def test_weight_outside_unit_interval(self, bad):
        expected = f"boundary weight {format_rational(as_rational(bad))} outside \\[0, 1\\]"
        with pytest.raises(ValueError, match=expected):
            Ordinary((F(1, 2), bad))
        with pytest.raises(ValueError, match=expected):
            CyclicQuotient(Chain(3, 1), F(0), bad)
        with pytest.raises(ValueError, match=expected):
            star(1, CUSP_ARMS + ((1, 0, bad),))

    @pytest.mark.parametrize(
        "b, arms, b0",
        [
            (1, ((2, 1, 0), (3, 2, 0), (5, 4, 0)), "-29/30"),
            (1, ((2, 1, 0), (2, 1, 0), (1, 0, 0)), "0"),
            (2, ((5, 4, 0), (5, 4, 0), (5, 4, 0)), "-2/5"),  # not polyhedral either
        ],
    )
    def test_b0_refused_first(self, b, arms, b0):
        message = f"^b0 = {b0} <= 0: the central curve does not contract$"
        with pytest.raises(NotQuotientError, match=message):
            validate_star(b, star(b, arms).arms)
        with pytest.raises(NotQuotientError, match=message):
            euler_local(star(b, arms))

    def test_non_polyhedral_refused_after_b0(self):
        germ = star(3, ((5, 4, 0), (5, 4, 0), (5, 4, 0)))
        message = r"^no polyhedral assignment for arm orders \(5, 5, 5\)$"
        with pytest.raises(NotQuotientError, match=message):
            validate_star(germ.b, germ.arms)
        with pytest.raises(NotQuotientError, match=message):
            euler_local(germ)

    @pytest.mark.parametrize("bad", [0.5, 1.0, True, False])
    def test_floats_and_bools_refused(self, bad):
        with pytest.raises(TypeError):
            Ordinary((bad,))
        with pytest.raises(TypeError):
            CyclicQuotient(Chain(2, 1), bad, F(0))
        with pytest.raises(TypeError):
            EulerValue(bad, Exactness.EXACT, True)

    def test_zero_denominator_refused_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="zero denominator"):
                Ordinary(("1/0",))
            with pytest.raises(ValueError, match="zero denominator"):
                singularity_from_dict({"type": "cyclic", "n": 2, "q": 1, "d1": "1/0", "d2": "0"})

    def test_validation_invariants_are_the_fraction_triple(self):
        germ = star(3, ((2, 1, F(4, 9)), (2, 1, F(1, 5)), (55, 19, F(0))))
        expected = StarInvariants(
            3 - F(1, 2) - F(1, 2) - F(19, 55),
            (1 - F(4, 9)) / 2 + (1 - F(1, 5)) / 2 + F(1, 55),
            F(1, 55),
        )
        assert validate_star(germ.b, germ.arms).invariants == expected
        assert validate_star(germ.b, germ.arms) == star_validation_oracle(germ)


def outcome(doc):
    """The printed value of a document, or the type of the error refusing it."""
    try:
        return format_rational(euler_local(singularity_from_dict(doc)).value)
    except ValueError as error:
        return type(error).__name__


# Each template puts one of 1, "1", True and 1.0 in one place; these hash
# alike or equal each other, and must keep the verdicts listed for them.
CONFLATED = (1, "1", True, 1.0)
TEMPLATES = [
    pytest.param(lambda x: {"type": "ordinary", "coeffs": [x, "1/2"]},
                 ("0", "0", "InexactError", "InexactError"), id="ordinary-weight"),
    pytest.param(lambda x: {"type": "cyclic", "n": 5, "q": 2, "d1": x, "d2": "1/3"},
                 ("0", "0", "InexactError", "InexactError"), id="cyclic-weight"),
    pytest.param(lambda x: {"type": "cyclic", "n": 2, "q": x, "d1": "1/2", "d2": "1/3"},
                 ("1/6", "ChainError", "ChainError", "ChainError"), id="cyclic-chain"),
    pytest.param(lambda x: {"type": "star", "b": 2, "arms": [[2, 1, x], [3, 1, "0"], [5, 1, "1/3"]]},
                 ("0", "0", "InexactError", "InexactError"), id="star-weight"),
    pytest.param(lambda x: {"type": "star", "b": 2, "arms": [[2, x, "1/2"], [3, 1, "0"], [5, 1, "1/3"]]},
                 ("0", "ChainError", "ChainError", "ChainError"), id="star-chain"),
    pytest.param(lambda x: {"type": "star", "b": x, "arms": [[1, 0, "1/2"], [1, 0, "0"], [2, 1, "1/3"]]},
                 ("1/3", "ValueError", "ValueError", "ValueError"), id="star-b"),
]


class TestCachedChecks:
    """The weight and star-shape caches answer exactly as a fresh check would."""

    @pytest.mark.parametrize("order", [CONFLATED, CONFLATED[::-1]], ids=["int-first", "float-first"])
    @pytest.mark.parametrize("template, verdicts", TEMPLATES)
    def test_equal_keys_keep_their_own_verdicts(self, template, verdicts, order):
        # Each entry runs after the others of its order were evaluated, and
        # cached where they were accepted.  Keyed by repr: as dict keys, 1,
        # True and 1.0 are one key.
        expected = dict(zip(map(repr, CONFLATED), verdicts))
        for x in order:
            assert (x, outcome(template(x))) == (x, expected[repr(x)])

    @pytest.mark.parametrize("literal", ["3/2", "-1", "1/0", "x", " "])
    def test_refused_literal_raises_on_every_use(self, literal):
        for _ in range(2):
            with pytest.raises(ValueError):
                Ordinary((literal,))
            with pytest.raises(ValueError):
                singularity_from_dict({"type": "star", "b": 2, "arms": [[2, 1, literal], [3, 1, 0], [5, 1, 0]]})

    def test_refused_shape_raises_on_every_use(self):
        for b, arms in ((1, ((2, 1, 0), (3, 2, 0), (5, 4, 0))), (3, ((5, 4, 0), (5, 4, 0), (5, 4, 0)))):
            for weight in (0, F(1, 2)):
                germ = star(b, tuple((n, q, weight) for n, q, _ in arms))
                with pytest.raises(NotQuotientError):
                    euler_local(germ)

    def test_one_shape_many_weights(self):
        # The shape is shared; the weight-dependent shares are not.
        for weight in (F(0), F(1, 3), F(1, 2), F(9, 10), F(1)):
            germ = star(2, ((2, 1, weight), (3, 1, 0), (5, 1, F(1, 3))))
            assert euler_local(germ) == oracle(germ)


class TestEulerValue:
    def test_value_is_a_fraction(self):
        for given, value in ((1, F(1)), ("1/2", F(1, 2)), (F(1, 3), F(1, 3))):
            result = EulerValue(given, Exactness.EXACT, lc=True).value
            assert (result, type(result)) == (value, F)

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
        value = euler_local(Ordinary([F(1, 2)] * 3))
        assert (value.value, value.exactness, value.lc) == (F(1, 16), Exactness.EXACT, True)

    def test_unbalanced_triple(self):
        assert euler_local(Ordinary([F(1, 6), F(1, 3), F(1, 2)])).value == F(1, 4)

    def test_four_branch_upper_bound(self):
        value = euler_local(Ordinary([F(1, 3)] * 4))
        assert value.value == F(1, 9)
        assert value.exactness is Exactness.UPPER_BOUND
        assert value.lc

    def test_single_branch_is_smooth_point(self):
        assert euler_local(Ordinary([F(1, 2)])).value == F(1, 2)
        assert euler_local(Ordinary([F(0)])).value == F(1)

    def test_non_lc_reports_zero_exact(self):
        value = euler_local(Ordinary([F(1)] * 3))
        assert (value.value, value.exactness, value.lc) == (F(0), Exactness.EXACT, False)

    def test_weight_out_of_range(self):
        with pytest.raises(ValueError):
            euler_local(Ordinary([F(3, 2)]))
        with pytest.raises(ValueError):
            euler_local(Ordinary([]))

    @given(st.lists(weights, min_size=1, max_size=6))
    def test_permutation_invariance(self, coeffs):
        forward = euler_local(Ordinary(coeffs))
        assert euler_local(Ordinary(list(reversed(coeffs)))) == forward
        assert euler_local(Ordinary(sorted(coeffs))) == forward

    @given(st.lists(weights, min_size=2, max_size=6))
    def test_zero_padding_never_changes_value_or_kind(self, coeffs):
        base = euler_local(Ordinary(coeffs))
        padded = euler_local(Ordinary(coeffs + [F(0)]))
        assert padded == base

    @given(st.lists(weights, min_size=1, max_size=6))
    def test_multiplicity_bound_for_lc(self, coeffs):
        total = sum(coeffs)
        value = euler_local(Ordinary(coeffs))
        if total <= 2:
            assert value.value <= (1 - total / 2) ** 2
            assert value.value <= 1
        else:
            assert not value.lc

    @given(st.lists(weights, min_size=0, max_size=4))
    def test_weight_one_kill(self, coeffs):
        point = coeffs + [F(1)]
        value = euler_local(Ordinary(point))
        if value.lc:
            assert value.value == 0

    def test_balanced_boundary_matches_both_cases(self):
        # At 2 a_n = a the two exact formulas agree: both give (1 - a_n)^2.
        for top in (F(1, 5), F(1, 3), F(2, 5), F(1, 2)):
            value = euler_local(Ordinary([top, top / 2, top / 2]))
            assert value.value == (1 - top) ** 2

    def test_sum_two_boundary_gives_zero(self):
        assert euler_local(Ordinary([F(1), F(1, 2), F(1, 2)])).value == 0
        assert euler_local(Ordinary([F(2, 3)] * 3)).value == 0


class TestCyclic:
    def test_examples(self):
        assert euler_local(CyclicQuotient(Chain(1, 0), F(1, 2), F(1, 3))).value == F(1, 3)
        assert euler_local(CyclicQuotient(Chain(3, 1), F(0), F(0))).value == F(1, 3)
        assert euler_local(CyclicQuotient(Chain(4, 3), F(1), F(1, 2))).value == F(0)

    def test_value_independent_of_q(self):
        assert euler_local(CyclicQuotient(Chain(5, 2), F(1, 3), F(1, 7))) == euler_local(
            CyclicQuotient(Chain(5, 3), F(1, 3), F(1, 7))
        )

    def test_minus_one_curve_rejected(self):
        with pytest.raises(ChainError):
            euler_local(CyclicQuotient(Chain(1, 1), F(0), F(0)))

    @given(
        st.integers(1, 40),
        weights,
        weights,
    )
    def test_scaling_identity(self, n, d1, d2):
        # Degree-n quotients scale the two-branch smooth value by 1/n.
        q = next(q for q in range(n) if gcd(n, q) == 1 and q < max(n, 1))
        lifted = euler_local(Ordinary([d1, d2]))
        assert n * euler_local(CyclicQuotient(Chain(n, q), d1, d2)).value == lifted.value


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
            value = euler_local(star(b, arms))
            record = cover_degree(validation.invariants.b0, *triple)
            assert value.value == expected == 1 / record.degree, name

    def test_cusp_values(self):
        assert euler_local(cusp(F(1, 2))).value == F(1, 6)
        assert euler_local(cusp(F(1, 12))).value == F(5, 6)
        non_lc = euler_local(cusp(F(9, 10)))
        assert (non_lc.value, non_lc.lc) == (F(0), False)

    def test_case_boundaries_agree(self):
        # alpha = 1: the balanced formula vanishes like the non-lc case.
        boundary = euler_local(cusp(F(5, 6)))
        assert (boundary.value, boundary.lc) == (F(0), True)
        # alpha = 2 beta + 1: both closed forms give beta^2 / b0.
        invariants = validate_star(1, cusp(F(1, 6)).arms).invariants
        assert invariants.alpha == 2 * invariants.beta + 1
        value = euler_local(cusp(F(1, 6))).value
        assert value == (invariants.alpha - 1) ** 2 / (4 * invariants.b0)
        assert value == (invariants.alpha - 1 - invariants.beta) * invariants.beta / invariants.b0

    @given(st.fractions(min_value=0, max_value=1, max_denominator=60))
    def test_weight_one_arm_kills_value(self, d):
        value = euler_local(star(2, ((2, 1, 1), (3, 2, 0), (5, 4, d))))
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


class TestCoverDegree:
    def test_examples(self):
        assert cover_degree(F(1, 30), 2, 3, 5).half_order == 30
        assert cover_degree(F(1, 30), 2, 3, 5).degree == 120
        assert cover_degree(F(1, 2), 2, 2, 2).degree == 8
        assert cover_degree(F(1, 6), 2, 3, 3).degree == 24

    @pytest.mark.parametrize(
        "args, message",
        [
            ((F(1, 2), 3, 3, 3), "(3, 3, 3) is not a spherical triple"),
            ((F(0), 2, 3, 5), "b0 must be positive, got 0"),
            ((F(1, 2), 0, 3, 5), "triple entry must be a positive integer, got 0"),
            ((F(1, 2), 2, 3.0, 5), "triple entry must be a positive integer, got 3.0"),
            ((F(1, 2), 2, 3, True), "triple entry must be a positive integer, got True"),
        ],
    )
    def test_non_spherical_rejected(self, args, message):
        with pytest.raises(ValueError) as caught:
            cover_degree(*args)
        assert str(caught.value) == message


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
                        closed = euler_local(Ordinary([1 - F(l, n) for l in (l1, l2, l3)]))
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
        "germ",
        [CyclicQuotient(Chain(5, 2), F(1, 3), F(0)), star(2, ADE_STARS["E8"][1])],
        ids=["cyclic", "star"],
    )
    def test_evaluation_reads_the_given_germ(self, monkeypatch, germ):
        expected = oracle(germ)
        built = []
        monkeypatch.setattr(type(germ), "__init__", lambda *args, **kwargs: built.append(args))
        assert euler_local(germ) == expected
        assert built == []
