"""Canonical rational strings."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ballint.rationals import format_rational, parse_rational


class TestFormatParse:
    @given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
    def test_round_trip(self, p, q):
        value = Fraction(p, q)
        assert parse_rational(format_rational(value)) == value

    def test_known_strings(self):
        assert format_rational(Fraction(-3, 20)) == "-3/20"
        assert format_rational(Fraction(4)) == "4"
        assert format_rational(Fraction(0)) == "0"
        assert parse_rational("-13/1120") == Fraction(-13, 1120)
        assert parse_rational("0") == Fraction(0)
        assert parse_rational("-5270328789/136478720000") == Fraction(-5270328789, 136478720000)

    @pytest.mark.parametrize("text", [
        "", " 1", "1 ", "+3", "-0", "03", "3/1", "2/4", "0/5", "1.5",
        "1/-2", "--2", "7/", "/3", "1/0", "1/01", "nan", "1e3",
    ])
    def test_rejects_non_canonical(self, text):
        # the fixture parser depends on these rejections to catch typos
        with pytest.raises(ValueError):
            parse_rational(text)

