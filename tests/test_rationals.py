from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbeuler import (
    Chain,
    ChainError,
    InexactError,
    as_rational,
    format_rational,
    hj_eval,
    hj_expand,
    parse_rational,
    rat_ceil,
    rat_floor,
)


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


class TestCeilFloor:
    def test_ceil_examples(self):
        assert rat_ceil(F(28, 3)) == 10
        assert rat_ceil(F(-3, 2)) == -1
        assert rat_ceil(F(4, 1)) == 4

    def test_floor(self):
        assert rat_floor(F(28, 3)) == 9
        assert rat_floor(F(-3, 2)) == -2
        assert rat_floor(F(4)) == 4

    @given(st.fractions(max_denominator=1000))
    def test_ceil_floor_sandwich(self, x):
        assert rat_floor(x) <= x <= rat_ceil(x)
        assert rat_ceil(x) - rat_floor(x) in (0, 1)


class TestChain:
    def test_empty(self):
        assert Chain(1, 0).is_empty
        assert Chain(1, 0).describe() == "empty"
        with pytest.raises(ChainError):
            Chain(1, 0).value

    @pytest.mark.parametrize(
        "n,q", [(1, 1), (2, 2), (4, 2), (3, -1), (0, 0), (3, 5), (True, 0), (2, True)]
    )
    def test_invalid_descriptors(self, n, q):
        with pytest.raises(ChainError):
            Chain(n, q)

    def test_value(self):
        assert Chain(5, 2).value == F(5, 2)


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
