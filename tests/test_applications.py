import math
import random
from fractions import Fraction as F

import pytest

from orbeuler import (
    ArrangementData,
    InvalidArrangementError,
    canonical_degree_bound,
    check_arrangement,
    check_singularity_budget,
    cusp_count_bound,
    cusp_euler,
    cusp_ratio_optimize,
    cusp_star,
    euler_local,
)


def fermat_family_counts(m: int):
    """k = 3m lines with t_3 = m^2 and t_m = 3 (merged into t_3 for m = 3)."""
    counts = {3: m * m}
    if m == 3:
        counts[3] += 3
    else:
        counts[m] = counts.get(m, 0) + 3
    return 3 * m, counts


def paper_cusp_constant_bracket():
    """Rational lower/upper bounds for (125 + sqrt(73))/432."""
    z = math.isqrt(73 * 10**16)
    assert z * z <= 73 * 10**16 < (z + 1) * (z + 1)
    return (125 + F(z, 10**8)) / 432, (125 + F(z + 1, 10**8)) / 432


def cusp_objective(alpha):
    return (3 * alpha - alpha**2) / (3 * (alpha + 1 - F(3, 2) * (alpha - F(5, 6)) ** 2))


def cusp_integer_objective(j, g):
    """Numerator and denominator of the objective at alpha = j/g, both in Z."""
    return 8 * (3 * j * g - j * j), 24 * j * g + 24 * g * g - (6 * j - 5 * g) ** 2


def cusp_grid_scan(g):
    """The first grid point of (1/6, 5/6] minimising the objective, by a full scan.

    Comparing integer cross products keeps the scan fast enough to run
    over thousands of grids; the winner's ratio comes from the objective.
    """
    best = None
    for j in range(g // 6 + 1, 5 * g // 6 + 1):
        num, den = cusp_integer_objective(j, g)
        if best is None or num * best[2] < best[1] * den:
            best = (j, num, den)
    return F(best[0], g), cusp_objective(F(best[0], g))


class TestArrangements:
    def test_fermat_equality_family(self):
        for m in (2, 3, 4, 5, 10):
            report = check_arrangement(*fermat_family_counts(m))
            assert report.verdict == "holds", m
            assert report.incidence_equality and report.square_equality, m

    def test_generic_four_lines(self):
        report = check_arrangement(4, {2: 6})
        assert report.verdict == "holds"
        assert (report.incidence_slack, report.square_slack) == (2, 2)
        assert (report.incidence_bound, report.square_bound) == (10, 22)

    def test_near_pencil_hypothesis(self):
        report = check_arrangement(5, {4: 1, 2: 4})
        assert report.verdict == "hypothesis-not-met"
        assert report.large_pencil_r == 4
        # this arrangement also witnesses necessity of the hypothesis
        assert report.incidence_sum < report.incidence_bound

    def test_pair_count_identity_gate(self):
        with pytest.raises(InvalidArrangementError):
            check_arrangement(4, {2: 5})
        with pytest.raises(InvalidArrangementError):
            ArrangementData.from_counts(6, {2: 3, 3: 5})

    def test_entry_validation(self):
        with pytest.raises(InvalidArrangementError):
            ArrangementData.from_counts(3, {1: 3})
        with pytest.raises(InvalidArrangementError):
            ArrangementData.from_counts(3, {2: -3})
        with pytest.raises(InvalidArrangementError):
            ArrangementData(3, ((2, 3), (2, 0)))
        for entry in (3, (2,), (2, 3, 0)):
            with pytest.raises(InvalidArrangementError, match=r"^t entry .* is not an \(r, t_r\) pair$"):
                ArrangementData(3, (entry,))
        for k in (0, -1):
            with pytest.raises(InvalidArrangementError, match="k must be a positive integer"):
                ArrangementData(k, ())

    def test_counts_name_their_field(self):
        with pytest.raises(InvalidArrangementError, match="^t must map r to t_r, got list$"):
            ArrangementData.from_counts(4, [1, 2])
        for key in ("x", "", "2.0"):
            with pytest.raises(InvalidArrangementError, match=f"^point order r must be an integer >= 2, got '{key}'$"):
                ArrangementData.from_counts(4, {key: 6})
        # Only string keys are read as integers; others are checked as given.
        with pytest.raises(InvalidArrangementError, match="point order r must be an integer >= 2, got 2.0"):
            ArrangementData.from_counts(4, {2.0: 6})
        assert ArrangementData.from_counts(4, {"2": 6}) == ArrangementData.from_counts(4, {2: 6})

    def test_generic_three_lines_equality(self):
        report = check_arrangement(3, {2: 3})
        assert report.verdict == "holds"
        assert report.incidence_equality and report.square_equality

    def test_fano_configuration_violates(self):
        # Seven lines through seven triple points exist only in characteristic 2.
        report = check_arrangement(7, {3: 7})
        assert report.verdict == "violation"
        assert (report.incidence_sum, report.incidence_bound) == (21, 24)
        assert (report.square_sum, report.square_bound) == (63, 66)

    def test_two_lines_are_a_pencil(self):
        assert check_arrangement(2, {2: 1}).verdict == "hypothesis-not-met"

    def test_one_line_is_outside_the_hypothesis(self):
        # Every point of a single line lies on 1 > 2k/3 lines; the line
        # exists, so "violation" would be a false certificate.
        for report in (check_arrangement(1, {}), check_arrangement(ArrangementData(1, ()))):
            assert (report.verdict, report.large_pencil_r) == ("hypothesis-not-met", 1)

    def test_bounds_are_the_least_integers_above(self):
        for k in range(2, 60):
            report = check_arrangement(k, {2: k * (k - 1) // 2})
            for bound, value in (
                (report.incidence_bound, F(k * k, 3) + k),
                (report.square_bound, F(4 * k * k, 3)),
            ):
                assert type(bound) is int and bound - 1 < value <= bound, k


class TestCuspEuler:
    def test_piecewise_values(self):
        table = {
            F(0): F(1),
            F(1, 12): F(5, 6),
            F(1, 6): F(2, 3),
            F(1, 2): F(1, 6),
            F(5, 6): F(0),
            F(9, 10): F(0),
            F(1): F(0),
        }
        for alpha, expected in table.items():
            assert cusp_euler(alpha) == expected, alpha

    def test_outside_unit_interval(self):
        with pytest.raises(ValueError):
            cusp_euler(F(-1, 10))
        with pytest.raises(ValueError):
            cusp_euler(F(11, 10))

    def test_matches_star_evaluation_on_200_random_rationals(self):
        rng = random.Random(1213)
        for _ in range(200):
            denominator = rng.randint(1, 60)
            alpha = F(rng.randint(0, denominator), denominator)
            star = cusp_star(alpha)
            assert cusp_euler(alpha) == euler_local(star).value, alpha


class TestCuspCountBound:
    def test_examples(self):
        assert cusp_count_bound(12, F(1, 2)) == 40
        assert cusp_count_bound(6, F(1, 2)) == 9
        assert cusp_count_bound(6, F(5, 6)) == 9

    def test_preconditions(self):
        with pytest.raises(ValueError):
            cusp_count_bound(4, F(1, 2))  # alpha d = 2 < 3
        with pytest.raises(ValueError):
            cusp_count_bound(6, F(9, 10))  # cusp not lc
        with pytest.raises(ValueError):
            cusp_count_bound(0, F(1, 2))

    def test_is_the_greatest_affordable_count(self):
        # The largest s with s cusps' cost within the degree's budget.
        for alpha in (F(1, 2), F(2, 3), F(5, 6), F(3, 7)):
            cost = 3 * (alpha + 1 - cusp_euler(alpha))
            for d in (d for d in range(4, 40) if alpha * d >= 3):
                budget = -3 * alpha * d + (3 * alpha - alpha * alpha) * d * d
                count = cusp_count_bound(d, alpha)
                assert type(count) is int and count * cost <= budget < (count + 1) * cost, (alpha, d)

    def test_monotone_in_degree(self):
        for alpha in (F(1, 2), F(2, 3), F(5, 6)):
            degrees = [d for d in range(4, 40) if alpha * d >= 3]
            bounds = [cusp_count_bound(d, alpha) for d in degrees]
            assert bounds == sorted(bounds)


class TestCuspRatio:
    def test_endpoint_value(self):
        assert cusp_objective(F(5, 6)) == F(65, 198)

    def test_coarse_grid(self):
        alpha_star, ratio_star = cusp_ratio_optimize(48)
        assert alpha_star == F(15, 48)
        assert ratio_star <= F(31, 100)

    def test_grid_requires_48(self):
        with pytest.raises(ValueError):
            cusp_ratio_optimize(47)

    def test_fine_grid_encloses_paper_constant(self):
        low, high = paper_cusp_constant_bracket()
        alpha_star, ratio_star = cusp_ratio_optimize(10**4)
        assert F(1, 6) < alpha_star <= F(5, 6)
        # the grid minimum sits above the true infimum and within 1e-4 of it
        assert low <= ratio_star <= high + F(1, 10**4)
        assert F(9, 32) < ratio_star < F(5, 16)

    def test_integer_objective_is_the_objective(self):
        for g in (48, 97, 272):
            for j in range(g // 6 + 1, 5 * g // 6 + 1):
                assert F(*cusp_integer_objective(j, g)) == cusp_objective(F(j, g)), (j, g)

    def test_matches_grid_scan(self):
        for g in range(48, 3001):
            assert cusp_ratio_optimize(g) == cusp_grid_scan(g), g
        for g in (10**4, 10**5, 60000, 60048, 60096):
            assert cusp_ratio_optimize(g) == cusp_grid_scan(g), g

    def test_tie_keeps_the_first_grid_point(self):
        # At g = 272 the two grid points around alpha* tie exactly.
        assert cusp_objective(F(5, 16)) == cusp_objective(F(43, 136)) == F(430, 1391)
        assert cusp_ratio_optimize(272) == (F(5, 16), F(430, 1391))

    def test_finer_grids_do_not_worsen(self):
        _, coarse = cusp_ratio_optimize(48)
        _, fine = cusp_ratio_optimize(48 * 10)
        assert fine <= coarse


class TestCanonicalDegreeBound:
    def test_examples(self):
        assert canonical_degree_bound(9, 3, 0, ordinary=False) == 0
        assert canonical_degree_bound(8, 3, 2, ordinary=False) == F(29, 2)
        assert canonical_degree_bound(9, 3, 2, ordinary=True) == 6

    @pytest.mark.parametrize(
        "args, message",
        [
            ((6, 3, 0, False), "hypothesis c1^2 > 2 c2 fails: 6 <= 6"),
            ((3, 3, 0, True), "hypothesis c1^2 > c2 fails: 3 <= 3"),
            ((9.0, 3, 0, True), "c1_sq must be an integer, got 9.0"),
            ((9, True, 0, True), "c2 must be an integer, got True"),
            ((9, 3, -1, True), "genus must be a nonnegative integer, got -1"),
            ((9, 3, "2", False), "genus must be a nonnegative integer, got '2'"),
        ],
    )
    def test_hypotheses(self, args, message):
        with pytest.raises(ValueError) as caught:
            canonical_degree_bound(*args[:3], ordinary=args[3])
        assert str(caught.value) == message

    def test_extremal_surfaces_exclude_low_genus(self):
        for c2 in (1, 2, 3, 5, 8):
            for genus in (0, 1):
                for ordinary in (False, True):
                    assert canonical_degree_bound(3 * c2, c2, genus, ordinary) <= 0


class TestSingularityBudget:
    def test_nine_cusp_sextic_equality(self):
        report = check_singularity_budget(9, 3, F(1, 2), -18, 36, [(2, F(1, 6))] * 9)
        assert report.verdict == "holds"
        assert report.equality
        assert report.lhs == report.rhs == 36

    def test_empty_points(self):
        report = check_singularity_budget(9, 3, F(1, 2), -9, 9, [])
        assert report.lhs == 0
        assert report.verdict == "holds"

    def test_single_node_cost(self):
        alpha = F(1, 2)
        node_value = (1 - alpha) ** 2
        report = check_singularity_budget(9, 3, alpha, -9, 9, [(1, node_value)])
        assert report.lhs == F(9, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            check_singularity_budget(9, 3, F(1, 2), -9, 9, [(0, F(0))])
