from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import orbeuler
from orbeuler import (
    Chain,
    ChainError,
    InexactError,
    as_rational,
    format_rational,
    hj_eval,
    hj_expand,
    parse_rational,
)
from orbeuler.rationals import parse_integer


class Text(str):
    pass


class Whole(int):
    pass


class Ratio(F):
    pass


class TestParsing:
    def test_literals(self):
        assert parse_rational("2/3") == F(2, 3)
        assert parse_rational("-3/2") == F(-3, 2)
        assert parse_rational("+5") == F(5)
        assert parse_rational(" 7 ") == F(7)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            parse_rational("1/0")

    def test_bad_literal_rejected_on_every_call(self):
        # Parses are memoised, errors are not: a repeated bad literal keeps
        # raising its own message.
        for bad, message in (("1/0", "zero denominator"), ("1.5", "not a rational literal")):
            for _ in range(3):
                with pytest.raises(ValueError, match=message):
                    parse_rational(bad)
                with pytest.raises(ValueError, match=message):
                    as_rational(bad)

    def test_each_literal_parsed_once_in_a_bounded_cache(self):
        assert parse_rational.cache_info().maxsize is not None
        first = parse_rational("22/7")
        assert parse_rational("22/7") is first
        assert as_rational("22/7") is first
        assert parse_rational("44/14") == first

    @pytest.mark.parametrize("bad", ["", "1.5", "x", "1/-2", "2/3/4", "1e3"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @pytest.mark.parametrize("bad", ["\u0663/\u0664", "\uff13", "1/\uff14", "\u0663", "\u00b2"])
    def test_only_ascii_digits(self, bad):
        # Arabic-Indic and fullwidth digits are decimal digits to int() and to
        # the regex class \d, but a literal is ASCII "p/q".
        with pytest.raises(ValueError, match="not a rational literal"):
            parse_rational(bad)
        with pytest.raises(ValueError, match="not a rational literal"):
            as_rational(bad)

    def test_floats_refused(self):
        with pytest.raises(TypeError):
            as_rational(0.5)
        with pytest.raises(TypeError):
            as_rational(True)

    @pytest.mark.parametrize("bad", [0.5, True, None, [1], {"a": 1}])
    def test_inexact_is_invalid_input(self, bad):
        # A document field holding any of these is refused as input, which
        # the CLI knows by ValueError.
        with pytest.raises(InexactError) as caught:
            as_rational(bad)
        assert isinstance(caught.value, ValueError) and isinstance(caught.value, TypeError)

    @pytest.mark.parametrize(
        "value, expected",
        [
            ("3/4", F(3, 4)),
            (" -2 ", F(-2)),
            (7, F(7)),
            (-7, F(-7)),
            (F(5, 3), F(5, 3)),
            (Text("3/4"), F(3, 4)),
            (Whole(5), F(5)),
            (Ratio(1, 2), Ratio(1, 2)),
        ],
        ids=["str", "str-spaces", "int", "negative-int", "Fraction", "str-subclass", "int-subclass",
             "Fraction-subclass"],
    )
    def test_exact_values_and_subclasses(self, value, expected):
        result = as_rational(value)
        assert result == expected and type(result) is type(expected)
        if isinstance(value, F):
            assert result is value

    @pytest.mark.parametrize(
        "bad, message",
        [
            (True, "a boolean is not a rational value"),
            (False, "a boolean is not a rational value"),
            (0.5, "expected an exact rational, got float"),
            (1.0, "expected an exact rational, got float"),
            (None, "expected an exact rational, got NoneType"),
            (b"1", "expected an exact rational, got bytes"),
            ([1], "expected an exact rational, got list"),
            (1j, "expected an exact rational, got complex"),
        ],
    )
    def test_inexact_messages(self, bad, message):
        with pytest.raises(InexactError) as caught:
            as_rational(bad)
        assert str(caught.value) == message

    @pytest.mark.parametrize("bad", ["1.5", Text("1/0")])
    def test_bad_literal_is_a_value_error(self, bad):
        with pytest.raises(ValueError) as caught:
            as_rational(bad)
        assert not isinstance(caught.value, InexactError)

    def test_format_round_trip(self):
        for x in (F(2, 3), F(-7, 5), F(4), F(0)):
            assert parse_rational(format_rational(x)) == x


class TestIntegerLiteral:
    @pytest.mark.parametrize("text, value", [("0", 0), ("42", 42), ("-7", -7), ("+3", 3), ("007", 7)])
    def test_ascii_literals(self, text, value):
        assert parse_integer(text) == value

    # int() reads the first six, which are not ASCII integer literals.
    @pytest.mark.parametrize("bad", ["\u0663", "\u0663\u0660", "1_000", " 3", "3 ", "3\n", "", "+", "3.0", 3, None])
    def test_other_text_is_refused(self, bad):
        with pytest.raises(ValueError, match="^not an integer literal: "):
            parse_integer(bad)


class TestChain:
    @pytest.mark.parametrize(
        "n,q", [(1, 1), (2, 2), (4, 2), (3, -1), (0, 0), (3, 5), (True, 0), (2, True)]
    )
    def test_invalid_descriptors(self, n, q):
        with pytest.raises(ChainError):
            Chain(n, q)


class TestExpansion:
    def test_examples(self):
        assert hj_expand(1, 0) == []
        assert hj_expand(5, 2) == [3, 2]
        assert hj_expand(5, 4) == [2, 2, 2, 2]
        assert hj_expand(7, 1) == [7]

    def test_minus_one_token_refused(self):
        with pytest.raises(ChainError):
            hj_expand(1, 1)

    @pytest.mark.parametrize("n,q", [(4, 2), (6, 3), (5, 7)])
    def test_invalid_inputs(self, n, q):
        with pytest.raises(ChainError):
            hj_expand(n, q)

    def test_eval_examples(self):
        assert hj_eval([3, 2]) == Chain(5, 2)
        assert hj_eval([2, 2, 2, 2]) == Chain(5, 4)
        assert hj_eval([7]) == Chain(7, 1)
        assert hj_eval([]) == Chain(1, 0)

    @pytest.mark.parametrize("bad", [[1], [2, 0], [3, -2], [2.5]])
    def test_eval_rejects_bad_entries(self, bad):
        with pytest.raises(ChainError):
            hj_eval(bad)

    def test_round_trip_up_to_200(self):
        # Evaluation is the independent oracle for the greedy expansion.
        for n in range(2, 201):
            for q in range(1, n):
                if gcd(n, q) != 1:
                    continue
                entries = hj_expand(n, q)
                assert all(b >= 2 for b in entries)
                assert len(entries) <= n - 1
                assert hj_eval(entries) == Chain(n, q)


@given(
    st.integers(-10**6, 10**6),
    st.integers(1, 10**6),
    st.integers(-10**6, 10**6),
    st.integers(1, 10**6),
)
def test_exact_addition_identity(a, b, c, d):
    assert (F(a, b) + F(c, d)) * (b * d) == a * d + c * b



def budget_with(index, value):
    """check_singularity_budget with argument ``index`` replaced by ``value``."""
    args = [9, 3, "1/2", -18, 36, []]
    args[index] = value
    return orbeuler.check_singularity_budget(*args)


# One row per integer field that `as_integer` guards: where it is read, how to
# feed it a value, the text that names it (with its owner's id, if it has
# one), its least value (None for any integer) and the exception its owner
# raises.  `{value!r}` stands for the value fed where the owner's id holds it.
INTEGER_FIELDS = [
    ("Chain.n", lambda v: Chain(v, 1), "chain n", None, ChainError),
    ("Chain.q", lambda v: Chain(3, v), "chain q", None, ChainError),
    ("hj_eval", lambda v: hj_eval([3, v]), "chain entry", 2, ChainError),
    ("StarQuotient.b", lambda v: orbeuler.StarQuotient(v, ((2, 1, "0"), (3, 1, "0"), (1, 0, "1/2"))),
     "central weight b", 1, ValueError),
    ("ReducedGerm.mu", lambda v: orbeuler.ReducedGerm(v, 0), "mu", 0, ValueError),
    ("ReducedGerm.tau", lambda v: orbeuler.ReducedGerm(3, v), "tau", 0, ValueError),
    ("SurfaceData.e_top", lambda v: orbeuler.SurfaceData(v, 9), "e_top", None, ValueError),
    ("SurfaceData.c1_sq", lambda v: orbeuler.SurfaceData(3, v), "c1_sq", None, ValueError),
    ("ComponentData.genus", lambda v: orbeuler.ComponentData("D", "1/2", v), "component D: genus", 0, ValueError),
    ("ComponentData.degree", lambda v: orbeuler.ComponentData("D", "1/2", 0, degree=v),
     "component D: degree", 1, ValueError),
    ("ComponentData.pairings", lambda v: orbeuler.ComponentData("D", "1/2", 0, pairings={"K": v}),
     "component D: pairing 'K'", None, ValueError),
    ("SingularPointData.incident",
     lambda v: orbeuler.SingularPointData("P", orbeuler.Ordinary(("1",)), (("C", v),), "1"),
     "point P: branch count", 1, ValueError),
    ("max_canonical_degree_extremal.genus", lambda v: orbeuler.max_canonical_degree_extremal(v, []),
     "genus", 0, ValueError),
    ("max_canonical_degree_extremal.points", lambda v: orbeuler.max_canonical_degree_extremal(0, [(v, 2)]),
     "branch count", 1, ValueError),
    ("CurveGerm.i", lambda v: orbeuler.CurveGerm(((v, 2, 1),)), "term ({value!r}, 2, 1): exponent i", 0, ValueError),
    ("CurveGerm.j", lambda v: orbeuler.CurveGerm(((2, v, 1),)), "term (2, {value!r}, 1): exponent j", 0, ValueError),
    ("germ_invariants.cap", lambda v: orbeuler.germ_invariants("x^2+y^3", v), "cap", 1, ValueError),
    ("log_chern_c2.c2_surface", lambda v: orbeuler.log_chern_c2(v, 0, []), "c2_surface", None, ValueError),
    ("log_chern_c2.kd_dot_d", lambda v: orbeuler.log_chern_c2(3, v, []), "kd_dot_d", None, ValueError),
    ("log_chern_c2.taus", lambda v: orbeuler.log_chern_c2(3, 0, [v]), "tau", None, ValueError),
    ("euler_top_complement.mus", lambda v: orbeuler.euler_top_complement(3, 0, [v]), "mu", None, ValueError),
    ("lct_obstruction.mu", lambda v: orbeuler.lct_obstruction([(v, 0)]), "mu", None, ValueError),
    ("lct_obstruction.tau", lambda v: orbeuler.lct_obstruction([(1, v)]), "tau", None, ValueError),
    ("ArrangementData.k", lambda v: orbeuler.ArrangementData(v, ()), "k", 1, orbeuler.InvalidArrangementError),
    ("ArrangementData.r", lambda v: orbeuler.ArrangementData(3, ((v, 3),)),
     "point order r", 2, orbeuler.InvalidArrangementError),
    ("ArrangementData.t_r", lambda v: orbeuler.ArrangementData(3, ((2, v),)),
     "t_2", 0, orbeuler.InvalidArrangementError),
    ("cusp_count_bound.degree", lambda v: orbeuler.cusp_count_bound(v, "1/2"), "degree", 1, ValueError),
    ("cusp_ratio_optimize", orbeuler.cusp_ratio_optimize, "grid denominator", 48, ValueError),
    ("canonical_degree_bound.c1_sq", lambda v: orbeuler.canonical_degree_bound(v, 3, 0, False),
     "c1_sq", None, ValueError),
    ("canonical_degree_bound.c2", lambda v: orbeuler.canonical_degree_bound(9, v, 0, False),
     "c2", None, ValueError),
    ("canonical_degree_bound.genus", lambda v: orbeuler.canonical_degree_bound(9, 3, v, False),
     "genus", 0, ValueError),
    ("check_singularity_budget.c1_sq", lambda v: budget_with(0, v), "c1_sq", None, ValueError),
    ("check_singularity_budget.c2", lambda v: budget_with(1, v), "c2", None, ValueError),
    ("check_singularity_budget.k_dot_c", lambda v: budget_with(3, v), "k_dot_c", None, ValueError),
    ("check_singularity_budget.c_sq", lambda v: budget_with(4, v), "c_sq", None, ValueError),
    ("check_singularity_budget.points", lambda v: budget_with(5, [(v, "1/6")]), "mu", 1, ValueError),
]
INTEGER_KINDS = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}
# Exact but not integers, then a value below the field's least value.
REFUSED = [(True, "bool"), (1.0, "float"), ("1", "str"), (F(1), "Fraction")]
INTEGER_CASES = [
    pytest.param(build, what, least, error, value, id=f"{field}-{kind}")
    for field, build, what, least, error in INTEGER_FIELDS
    for value, kind in REFUSED + ([] if least is None else [(least - 1, "below")])
]


@pytest.mark.parametrize("build, what, least, error, value", INTEGER_CASES)
def test_integer_field_refusal_names_field_owner_and_value(build, what, least, error, value):
    with pytest.raises(error) as caught:
        build(value)
    kind = INTEGER_KINDS.get(least, f"an integer >= {least}")
    assert type(caught.value) is error
    assert str(caught.value) == f"{what.format(value=value)} must be {kind}, got {value!r}"
