"""Acceptance gate: every criterion exact, one pass/fail line per criterion.

All comparisons are exact rational identities (tolerance zero) except where
a criterion itself states a decimal window; those windows are encoded with
exact rational endpoints.  Criterion 6 checks the paper's five-decimal cusp
constant 0.30913 as the half-open window [0.309125, 0.309135) of values that
round to it, next to an exact bracket around (125 + sqrt(73))/432.
"""

import math
from contextlib import contextmanager
from fractions import Fraction as F

from orbeuler import (
    CurveGerm,
    CyclicQuotient,
    Exactness,
    Ordinary,
    StarQuotient,
    Verdict,
    canonical_degree_bound,
    check_arrangement,
    check_bmy,
    check_singularity_budget,
    cusp_count_bound,
    cusp_ratio_optimize,
    cusp_star,
    euler_local,
    germ_invariants,
    validate_star,
)

from fixtures import lc_effective_corpus, quadrilateral_pair
from oracles import cover_degree, euler_ordinary3_cover_oracle
from test_applications import fermat_family_counts, paper_cusp_constant_bracket
from test_germs import ADE_NORMAL_FORMS, PERTURBED_GERM, PERTURBED_TAU
from test_local import ADE_STARS


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} ({label}): FAIL")
        raise
    print(f"criterion {number:02d} ({label}): PASS")


def test_criterion_01_cusp_table():
    with criterion(1, "cusp piecewise table"):
        expected = {
            F(0): F(1),
            F(1, 12): F(5, 6),
            F(1, 6): F(2, 3),
            F(1, 2): F(1, 6),
            F(5, 6): F(0),
            F(1): F(0),
        }
        for alpha, value in expected.items():
            star = cusp_star(alpha)
            assert euler_local(star).value == value, alpha


def test_criterion_02_oracle_equivalence():
    with criterion(2, "cover oracle equivalence, n <= 8"):
        cases = 0
        for n in range(2, 9):
            for l1 in range(1, n):
                for l2 in range(1, n):
                    for l3 in range(1, n):
                        closed = euler_local(Ordinary([1 - F(l, n) for l in (l1, l2, l3)]))
                        oracle = euler_ordinary3_cover_oracle(n, l1, l2, l3)
                        assert closed.value == oracle, (n, l1, l2, l3)
                        cases += 1
        assert cases >= 343


def test_criterion_03_quotient_reciprocals():
    with criterion(3, "ADE quotient reciprocals"):
        expected = {"D4": F(1, 8), "E6": F(1, 24), "E7": F(1, 48), "E8": F(1, 120)}
        for name, (b, arms, triple, value) in ADE_STARS.items():
            star_value = euler_local(StarQuotient(b, arms))
            assert tuple(sorted(n for n, _, _ in arms)) == triple, name
            degree = cover_degree(validate_star(b, arms).b0, *triple).degree
            assert star_value.value == expected[name] == 1 / degree, name


def test_criterion_04_fermat_family_equality():
    with criterion(4, "Fermat-family arrangement equality"):
        for m in (2, 3, 4, 5, 10):
            report = check_arrangement(*fermat_family_counts(m))
            assert report.verdict == "holds", m
            assert report.incidence_equality, m
            assert report.square_equality, m


def test_criterion_05_global_bmy_equality():
    with criterion(5, "global equality for the six-line pair"):
        report = check_bmy(quadrilateral_pair())
        assert report.lhs == 1
        assert report.rhs == 1
        assert report.verdict is Verdict.PROVED
        assert report.equality
        assert report.global_value.exactness is Exactness.EXACT


def test_criterion_06_cusp_ratio_grid():
    with criterion(6, "cusp ratio grid minimization"):
        alpha_star, ratio_star = cusp_ratio_optimize(10**4)
        assert F(9, 32) < ratio_star < F(5, 16)
        low, high = paper_cusp_constant_bracket()
        # (125 + sqrt(73))/432 is the infimum of the objective, attained at
        # alpha* = (sqrt(73) - 1)/24, so no grid point lies below it.  With
        # step h = 1e-4 the nearest grid point is within h/2 of alpha*, and
        # f''(alpha*) = 0.2864... bounds the excess by f''/2 (h/2)^2 =
        # 3.58e-10 (the cubic term is below 1e-13).  The runner-up grid
        # point, 3144/10000, lies 6.3e-10 above and is rejected.
        detail = (
            f"grid minimum {ratio_star} = {float(ratio_star):.12f} at alpha = "
            f"{alpha_star}; (125+sqrt(73))/432 lies in [{float(low):.12f}, "
            f"{float(high):.12f}]"
        )
        assert low <= ratio_star <= high + F(4, 10**10), detail
        # the paper's constant to five decimals, 0.30913, as the half-open
        # window of values that round to it
        assert F(309125, 10**6) <= ratio_star < F(309135, 10**6), detail


def test_criterion_07_cusp_sharpness():
    with criterion(7, "nine-cusp sextic sharpness"):
        assert cusp_count_bound(6, F(1, 2)) == 9
        report = check_singularity_budget(9, 3, F(1, 2), -18, 36, [(2, F(1, 6))] * 9)
        assert report.verdict == "holds"
        assert report.equality
        assert report.lhs == report.rhs == 36


def test_criterion_08_canonical_degree_degeneration():
    with criterion(8, "extremal surfaces exclude low genus"):
        for c2 in (1, 2, 3, 4, 5):
            for genus in (0, 1):
                for ordinary in (False, True):
                    bound = canonical_degree_bound(3 * c2, c2, genus, ordinary)
                    assert bound <= 0, (c2, genus, ordinary)


def test_criterion_09_milnor_tjurina_suite():
    with criterion(9, "Milnor/Tjurina suite"):
        for p in range(2, 7):
            for q in range(p, 7):
                assert germ_invariants(f"x^{p}+y^{q}").mu == (p - 1) * (q - 1), (p, q)
        for form in ADE_NORMAL_FORMS:
            invariants = germ_invariants(form)
            assert invariants.mu == invariants.tau, form
        import random

        rng = random.Random(97)
        seen = 0
        while seen < 50:
            p = rng.randint(3, 5)
            q = rng.randint(p, 5)
            i = rng.randint(1, p - 1)
            j = q - (q * i) // p + rng.randint(1, 2)
            coeff = F(rng.randint(1, 7), rng.randint(1, 7))
            invariants = germ_invariants(CurveGerm(((p, 0, F(1)), (0, q, F(1)), (i, j, coeff))))
            assert invariants.mu >= invariants.tau, (p, q, i, j, coeff)
            seen += 1
        perturbed = germ_invariants(PERTURBED_GERM)
        assert perturbed.mu == 12
        assert perturbed.tau < 12
        assert perturbed.tau == PERTURBED_TAU


def test_criterion_10_property_gates():
    with criterion(10, "property gates"):
        # multiplicity bound for lc ordinary points
        samples = [
            [F(1, 2), F(1, 2), F(1, 2)],
            [F(1, 6), F(1, 3), F(1, 2)],
            [F(1, 3)] * 4,
            [F(2, 3), F(2, 3), F(2, 3)],
            [F(1), F(1, 2), F(1, 4)],
            [F(1, 5)] * 5,
            [F(3, 4), F(3, 4), F(1, 2)],
        ]
        for coeffs in samples:
            total = sum(coeffs)
            value = euler_local(Ordinary(coeffs))
            if value.lc:
                assert value.value <= (1 - total / 2) ** 2, coeffs
                assert value.value <= 1, coeffs
        # weight-1 kill for ordinary and cyclic germs
        for extra in ([F(1)], [F(1), F(1)], [F(1), F(1, 2)], [F(1), F(1, 3), F(1, 3)]):
            value = euler_local(Ordinary(extra))
            if value.lc:
                assert value.value == 0, extra
        for n, q in ((1, 0), (2, 1), (5, 2), (7, 3)):
            assert euler_local(CyclicQuotient(n, q, F(1), F(1, 3))).value == 0, (n, q)
        # cyclic scaling identity against the two-branch smooth value
        for n, q in ((1, 0), (2, 1), (3, 1), (5, 2), (8, 3), (12, 5)):
            for d1, d2 in ((F(0), F(0)), (F(1, 2), F(1, 3)), (F(1), F(2, 5))):
                lifted = euler_local(Ordinary([d1, d2])).value
                assert n * euler_local(CyclicQuotient(n, q, d1, d2)).value == lifted, (n, q, d1, d2)
        # piecewise continuity at every case boundary
        for top in (F(1, 4), F(1, 3), F(2, 5), F(1, 2), F(3, 5)):
            balanced = euler_local(Ordinary([top, top / 2, top / 2]))
            assert balanced.value == (1 - top) ** 2 == (1 - (2 * top) / 2) ** 2, top
        assert euler_local(Ordinary([F(2, 3)] * 3)).value == 0
        assert euler_local(Ordinary([F(1), F(1, 2), F(1, 2)])).value == 0
        boundary_star = cusp_star(F(5, 6))
        assert euler_local(boundary_star).value == 0
        split_star = cusp_star(F(1, 6))
        split = euler_local(split_star).value
        assert split == F(2, 3)
        for beta in (F(1, 5), F(1, 3), F(2, 7)):
            for b0 in (F(1, 6), F(1, 30), F(1, 2)):
                assert (2 * beta) ** 2 / (4 * b0) == beta * beta / b0, (beta, b0)
        # the lc + effective corpus never produces a violation
        for name, pair in lc_effective_corpus():
            report = check_bmy(pair)
            assert report.verdict is not Verdict.VIOLATION, name


def test_acceptance_constants_are_verified():
    # The bracketing integers used for sqrt(73) are certified in place.
    z = math.isqrt(73 * 10**16)
    assert z * z <= 73 * 10**16 < (z + 1) * (z + 1)
