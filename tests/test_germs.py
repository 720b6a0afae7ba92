import random
from fractions import Fraction as F

import pytest

from orbeuler import (
    DEFAULT_CAP,
    CurveGerm,
    NotIsolatedError,
    euler_reduced_germ,
    euler_top_complement,
    germ_from_dict,
    germ_invariants,
    germ_to_dict,
    lct_obstruction,
    log_chern_c2,
    milnor_number,
    tjurina_number,
)

# Frozen from the truncated-ideal oracle; the perturbation x^2 y^3 sits above
# the Newton diagram of x^4 + y^5, so mu stays 12 while tau drops.
PERTURBED_GERM = "x^4+y^5+x^2y^3"
PERTURBED_TAU = 11

ADE_NORMAL_FORMS = (
    [f"x^2+y^{k + 1}" for k in range(1, 9)]          # A_k, k <= 8
    + [f"x^2y+y^{k - 1}" for k in range(4, 7)]       # D_k, k <= 6
    + ["x^3+y^4", "x^3+xy^3", "x^3+y^5"]             # E6, E7, E8
)

BRIESKORN_FORMS = [f"x^{p}+y^{q}" for p in range(2, 8) for q in range(p, 8)]

# x^a + y^b + x^i y^j with (i, j) strictly above the Newton diagram, i/a + j/b > 1.
SEMI_QUASI_HOMOGENEOUS_FORMS = [
    f"x^{a}+y^{b}+x^{i}y^{j}"
    for a in range(3, 6)
    for b in range(a, 7)
    for i in range(1, a)
    for j in (b * (a - i) // a + 1, b * (a - i) // a + 2)
]

NON_ISOLATED_FORMS = ["x^2", "x^3", "x^2y^2", "x^3y^2+x^2y^3"]


def seeded_perturbations():
    """Random x^p + y^q + c x^i y^j with the perturbation above the Newton diagram."""
    rng = random.Random(20240229)
    germs = []
    for _ in range(20):
        p = rng.randint(3, 5)
        q = rng.randint(p, 5)
        i = rng.randint(1, p - 1)
        # exponent above the Newton diagram keeps the singularity and mu
        j = q - (q * i) // p + rng.randint(1, 2)
        coeff = F(rng.randint(1, 5), rng.randint(1, 5))
        germs.append(CurveGerm(((p, 0, F(1)), (0, q, F(1)), (i, j, coeff))))
    return germs


def restart_dimension(generators, cap):
    """The first N <= cap with dim(N) = dim(N - 1), and that dim.

    Each dim(N) of Q[x, y]/(ideal + (x, y)^N) comes from a fresh elimination
    of every multiple x^a y^b g truncated below degree N, pivoting on the
    largest monomial: the engine's former method, kept as its oracle.
    """
    previous = None
    for n in range(1, cap + 1):
        pivots = {}
        for gen in generators:
            for a in range(n):
                for b in range(n - a):
                    row = {(i + a, j + b): c for (i, j), c in gen.items() if i + a + j + b < n}
                    while row:
                        lead = max(row)
                        if lead not in pivots:
                            pivots[lead] = {m: c / row[lead] for m, c in row.items()}
                            break
                        factor = row[lead]
                        for m, c in pivots[lead].items():
                            row[m] = row.get(m, 0) - factor * c
                            if not row[m]:
                                del row[m]
        dim = n * (n + 1) // 2 - len(pivots)
        if dim == previous:
            return dim, n
        previous = dim
    raise NotIsolatedError(f"no stabilisation up to truncation {cap}")


def restart_invariants(germ, cap):
    """(mu, tau, truncation_used) by :func:`restart_dimension`."""
    poly = germ.coefficients()
    if any(i + j == 1 for i, j in poly):
        return 0, 0, 1
    f_x = {(i - 1, j): c * i for (i, j), c in poly.items() if i}
    f_y = {(i, j - 1): c * j for (i, j), c in poly.items() if j}
    mu, used_mu = restart_dimension([f_x, f_y], cap)
    tau, used_tau = restart_dimension([poly, f_x, f_y], cap)
    return mu, tau, max(used_mu, used_tau)


def outcome(compute, germ, cap):
    try:
        return tuple(compute(germ, cap))
    except NotIsolatedError:
        return NotIsolatedError


def engine_invariants(germ, cap):
    invariants = germ_invariants(germ, cap)
    return invariants.mu, invariants.tau, invariants.truncation_used


class TestRestartOracle:
    @pytest.mark.parametrize(
        "germ",
        [
            CurveGerm.parse(text)
            for text in ADE_NORMAL_FORMS + BRIESKORN_FORMS + SEMI_QUASI_HOMOGENEOUS_FORMS
        ]
        + seeded_perturbations(),
        ids=str,
    )
    def test_matches_at_first_stable_truncation_and_below(self, germ):
        _, _, first = restart_invariants(germ, DEFAULT_CAP)
        for cap in (first, first - 1):
            if cap >= 1:
                expected = outcome(restart_invariants, germ, cap)
                assert outcome(engine_invariants, germ, cap) == expected, cap

    @pytest.mark.parametrize("text", NON_ISOLATED_FORMS)
    def test_both_refuse_non_isolated(self, text):
        germ = CurveGerm.parse(text)
        for cap in (1, 2, 12):
            assert outcome(engine_invariants, germ, cap) is NotIsolatedError
            assert outcome(restart_invariants, germ, cap) is NotIsolatedError

    def test_recorded_long_a_k(self):
        assert engine_invariants("x^2+y^45", 50) == (44, 44, 45)


class TestParsing:
    def test_basic_forms(self):
        assert CurveGerm.parse("x^2+y^3").coefficients() == {(2, 0): F(1), (0, 3): F(1)}
        assert CurveGerm.parse("xy").coefficients() == {(1, 1): F(1)}
        assert CurveGerm.parse("x*y").coefficients() == {(1, 1): F(1)}
        assert CurveGerm.parse("-x^2 + 2y^3").coefficients() == {(2, 0): F(-1), (0, 3): F(2)}
        assert CurveGerm.parse("1/2x^2y^3").coefficients() == {(2, 3): F(1, 2)}
        assert CurveGerm.parse("x^2−y^3").coefficients() == {(2, 0): F(1), (0, 3): F(-1)}

    def test_like_terms_combine(self):
        assert CurveGerm.parse("x^2+x^2") == CurveGerm.parse("2x^2")

    @pytest.mark.parametrize("bad", ["", "5", "x+", "z^2", "x^2+3", "1/0x", "x^2++y"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            CurveGerm.parse(bad)

    def test_cancellation_to_zero_rejected(self):
        with pytest.raises(ValueError):
            CurveGerm.parse("x^2-x^2")

    def test_float_coefficients_refused(self):
        with pytest.raises(TypeError):
            CurveGerm(((2, 0, 0.5),))

    def test_document_round_trip(self):
        germ = CurveGerm.parse("x^4+y^5+x^2y^3")
        assert germ_from_dict(germ_to_dict(germ)) == germ


class TestMilnor:
    def test_examples(self):
        assert milnor_number("x^2+y^3") == 2
        assert milnor_number("xy") == 1
        assert milnor_number("x^3+y^3") == 4

    def test_product_formula(self):
        for p in range(2, 7):
            for q in range(p, 7):
                assert milnor_number(f"x^{p}+y^{q}") == (p - 1) * (q - 1)

    def test_smooth_short_circuit(self):
        assert milnor_number("x+y^5") == 0
        assert tjurina_number("y") == 0
        assert engine_invariants("x+y^2", DEFAULT_CAP) == (0, 0, 1)

    def test_non_isolated(self):
        with pytest.raises(NotIsolatedError):
            milnor_number("x^2", cap=12)
        with pytest.raises(NotIsolatedError):
            milnor_number("x^2y^2", cap=12)

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            milnor_number("x^2+y^3", cap=0)


class TestTjurina:
    def test_examples(self):
        assert tjurina_number("x^2+y^3") == 2
        assert tjurina_number("x^4+y^5") == 12

    def test_perturbed_germ_regression(self):
        invariants = germ_invariants(PERTURBED_GERM)
        assert invariants.mu == 12
        assert invariants.tau == PERTURBED_TAU

    def test_ade_forms_are_weighted_homogeneous(self):
        for form in ("x^2+y^3", "x^3+xy^3"):
            invariants = germ_invariants(form)
            assert invariants.mu == invariants.tau

    def test_stable_under_larger_cap(self):
        base = germ_invariants(PERTURBED_GERM)
        again = germ_invariants(PERTURBED_GERM, cap=base.truncation_used + 5)
        assert (again.mu, again.tau) == (base.mu, base.tau)


class TestEulerReducedGerm:
    def test_examples(self):
        assert euler_reduced_germ("x^2+y^3") == 0
        assert euler_reduced_germ("xy") == 0
        assert euler_reduced_germ(PERTURBED_GERM) == 1

    def test_random_perturbations_nonnegative(self):
        for germ in seeded_perturbations():
            invariants = germ_invariants(germ)
            assert invariants.mu >= invariants.tau >= 1


class TestChernAndComplement:
    def test_log_chern_examples(self):
        assert log_chern_c2(3, 18, []) == 21
        assert log_chern_c2(3, 18, [2] * 9) == 3
        assert log_chern_c2(3, 0, []) == 3

    def test_complement_examples(self):
        assert euler_top_complement(3, 0, [1]) == 2
        assert euler_top_complement(3, 18, []) == 21
        assert euler_top_complement(3, 0, [2]) == 1

    def test_difference_is_obstruction(self):
        rng = random.Random(7)
        for _ in range(25):
            pairs = [
                (rng.randint(0, 9) + t, t)
                for t in (rng.randint(0, 9) for _ in range(rng.randint(0, 5)))
            ]
            c2, kd = rng.randint(-5, 10), rng.randint(-20, 20)
            mus = [mu for mu, _ in pairs]
            taus = [tau for _, tau in pairs]
            difference = log_chern_c2(c2, kd, taus) - euler_top_complement(c2, kd, mus)
            assert difference == lct_obstruction(pairs)[0]


class TestLctObstruction:
    def test_examples(self):
        assert lct_obstruction([(2, 2)]) == (0, "no-obstruction")
        assert lct_obstruction([(12, 11)]) == (1, "LCT-fails")
        assert lct_obstruction([]) == (0, "no-obstruction")

    def test_rejects_mu_below_tau(self):
        with pytest.raises(ValueError):
            lct_obstruction([(1, 2)])


def test_full_ade_suite():
    for form in ADE_NORMAL_FORMS:
        invariants = germ_invariants(form)
        assert invariants.mu == invariants.tau, form
