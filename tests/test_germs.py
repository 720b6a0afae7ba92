import json
import random
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import orbeuler.germs as engine
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

# A_6 after the shear u = x - y: its Newton polygon's intercepts (a + b = 4)
# undershoot the truncation N = 7 at which it stabilises.
SHEARED_A6 = "x^2-2xy+y^2+y^7"

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


def engine_numbers(germ, cap):
    return milnor_number(germ, cap), tjurina_number(germ, cap)


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
                numbers = expected if expected is NotIsolatedError else expected[:2]
                assert outcome(engine_numbers, germ, cap) == numbers, cap

    @pytest.mark.parametrize("text", NON_ISOLATED_FORMS)
    def test_both_refuse_non_isolated(self, text):
        germ = CurveGerm.parse(text)
        for cap in (1, 2, 12):
            assert outcome(engine_invariants, germ, cap) is NotIsolatedError
            assert outcome(restart_invariants, germ, cap) is NotIsolatedError

    def test_recorded_long_a_k(self):
        assert engine_invariants("x^2+y^45", 50) == (44, 44, 45)

    def test_benchmark_recorded_germs(self):
        recorded = json.loads((Path(__file__).resolve().parents[1] / "bench" / "recorded.json").read_text())
        assert len(recorded["germs"]) > 500
        mismatches = {
            poly: expected
            for poly, expected in recorded["germs"].items()
            if list(engine_invariants(poly, 64)) != expected
        }
        assert mismatches == {}


class TestKouchnirenkoOracle:
    """mu = 2V - a - b + 1 for a convenient Newton-nondegenerate germ.

    On x^a + y^b + c x^i y^j with i/a + j/b < 1 the Newton polygon has the
    two edges (a, 0)-(i, j) and (i, j)-(0, b), each carrying only its two
    endpoint terms, and a binomial edge is nondegenerate for every c != 0.
    Twice the area under the polygon is a j + i b.
    """

    COEFFICIENTS = (F(3, 2), F(-2, 7), F(-5), F(7, 3))

    @staticmethod
    def two_edge_germs():
        for a in range(2, 10):
            for b in range(a, 12):
                for i in range(1, a):
                    for j in range(1, b):
                        if i * b + j * a < a * b:
                            yield a, b, i, j

    def test_two_edge_polygons(self):
        mismatches = []
        for n, (a, b, i, j) in enumerate(self.two_edge_germs()):
            c = self.COEFFICIENTS[n % len(self.COEFFICIENTS)]
            germ = CurveGerm(((a, 0, F(1)), (0, b, F(1)), (i, j, c)))
            expected = a * j + i * b - a - b + 1
            if milnor_number(germ, 64) != expected:
                mismatches.append((str(germ), expected))
        assert n + 1 == 688
        assert mismatches == []

    def test_recorded_example(self):
        assert milnor_number("x^7+y^9+x^3y^5", 64) == 7 * 5 + 3 * 9 - 7 - 9 + 1 == 47


_NONZERO_RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


@given(st.integers(2, 6), st.integers(2, 6), st.data())
def test_quasi_homogeneous_germs_have_mu_equal_tau(a, b, data):
    """Saito: f in its Jacobian ideal by the Euler relation, so mu = tau."""
    terms = tuple(
        (i, (a * b - i * b) // a, data.draw(_NONZERO_RATIONALS))
        for i in range(a + 1)
        if (a * b - i * b) % a == 0
    )
    try:
        invariants = germ_invariants(CurveGerm(terms))
    except NotIsolatedError:
        return
    assert invariants.mu == invariants.tau


@pytest.fixture
def pivot_tables(monkeypatch):
    """Every pivot table the engine inserts a row into, once per insertion."""
    tables = []
    reduce_insert = engine._reduce_insert

    def recording(row, pivots):
        tables.append(pivots)
        reduce_insert(row, pivots)

    monkeypatch.setattr(engine, "_reduce_insert", recording)
    return tables


def test_one_pivot_table_per_germ(pivot_tables):
    # Stabilises at N = 7, within its first truncation a + b = 4 + 5 = 9.
    assert engine_invariants(PERTURBED_GERM, DEFAULT_CAP)[:2] == (12, PERTURBED_TAU)
    assert len({id(t) for t in pivot_tables}) == 1


@pytest.mark.parametrize("cap", [7, 64])
def test_one_restart_past_the_intercepts(pivot_tables, cap):
    assert engine_invariants(SHEARED_A6, cap) == (6, 6, 7)
    assert len({id(t) for t in pivot_tables}) == 2


def test_failed_first_truncation_is_invisible():
    # (x - y)^2 is not reduced: the first truncation (4) fails, then the cap does.
    with pytest.raises(NotIsolatedError) as caught:
        germ_invariants("x^2-2xy+y^2", 12)
    assert str(caught.value) == (
        "no stabilisation up to truncation 12: "
        "non-isolated singularity (possibly a non-reduced germ) or cap too small"
    )


def test_pivot_rows_are_primitive_integer_rows(pivot_tables):
    for text in ("6x^4-10/3y^6+15x^2y^3", PERTURBED_GERM, SHEARED_A6):
        expected = restart_invariants(CurveGerm.parse(text), DEFAULT_CAP)
        assert engine_invariants(text, DEFAULT_CAP) == expected
    rows = [row for pivots in {id(t): t for t in pivot_tables}.values() for row in pivots.values()]
    assert len(rows) > 50
    for row in rows:
        assert all(type(c) is int for c in row.values())
        assert gcd(*row.values()) == 1


_SMALL_TERMS = st.tuples(st.integers(0, 7), st.integers(0, 7), _NONZERO_RATIONALS).filter(
    lambda term: term[0] + term[1] <= 7
)


@given(st.lists(_SMALL_TERMS, min_size=1, max_size=4), st.integers(1, 24))
def test_matches_restart_oracle(terms, cap):
    # Caps stay small: the oracle is slow on non-isolated germs at high caps.
    try:
        germ = CurveGerm(tuple(terms))
    except ValueError:
        return
    assert outcome(engine_invariants, germ, cap) == outcome(restart_invariants, germ, cap)


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

    def test_needs_the_cap_mu_needs(self):
        # tau stabilises at N = 6 and mu at N = 7; tau is read off mu's elimination.
        with pytest.raises(NotIsolatedError):
            tjurina_number(PERTURBED_GERM, 6)
        assert tjurina_number(PERTURBED_GERM, 7) == PERTURBED_TAU

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

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: lct_obstruction([(1, 2)]), "need mu >= tau >= 0, got (mu, tau) = (1, 2)"),
            (lambda: lct_obstruction([(2.0, 1)]), "mu must be an integer, got 2.0"),
            (lambda: lct_obstruction([(2, True)]), "tau must be an integer, got True"),
            (lambda: log_chern_c2(3.0, 18, []), "c2_surface must be an integer, got 3.0"),
            (lambda: log_chern_c2(3, 18, [2, "2"]), "tau must be an integer, got '2'"),
            (lambda: euler_top_complement(3, True, []), "kd_dot_d must be an integer, got True"),
            (lambda: euler_top_complement(3, 0, [F(1)]), "mu must be an integer, got Fraction(1, 1)"),
        ],
    )
    def test_bad_arguments_rejected(self, call, message):
        # The last four pin the integrality checks of the two adjoint differences.
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == message


def test_full_ade_suite():
    for form in ADE_NORMAL_FORMS:
        invariants = germ_invariants(form)
        assert invariants.mu == invariants.tau, form
