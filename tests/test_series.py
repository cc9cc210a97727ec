"""Sparse even polynomials and the binomial collection of [1 + S]^n.

The central oracle: for every fixed integer n0, expanding [1 + S]^{n0}
directly by repeated truncated multiplication must agree monomial by
monomial with regrouping the collected rows at n = n0, because the
binomial collection is an exact polynomial identity in n.
"""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from ballint.series import (
    EvenPoly,
    InvNSeries,
    collect_binomial_rows,
    nseries_pow_binomial,
)

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=12)


class TestEvenPoly:
    def test_rejects_odd_or_negative_exponents(self):
        with pytest.raises(ValueError):
            EvenPoly({3: Fraction(1)})
        with pytest.raises(ValueError):
            EvenPoly({-2: Fraction(1)})

    def test_zero_coefficients_dropped(self):
        assert EvenPoly({2: Fraction(0), 4: Fraction(1)}) == EvenPoly({4: Fraction(1)})

    @given(st.dictionaries(st.integers(0, 6).map(lambda w: 2 * w), small_fractions, max_size=5),
           st.fractions(min_value=-2, max_value=2, max_denominator=8))
    def test_eval_matches_horner_reference(self, coeffs, t):
        # exact monomial sum at a rational point against eval_mpf's Horner
        # scheme in t^2; no term exceeds 3 * 2^12, so at 40 digits the
        # rounding stays some eight orders below the 1e-25 margin
        p = EvenPoly(coeffs)
        reference = sum((v * t**e for e, v in coeffs.items()), Fraction(0))
        with mp.workdps(40):
            got = p.eval_mpf(mp.mpf(t.numerator) / t.denominator)
            assert abs(got - mp.mpf(reference.numerator) / reference.denominator) < mp.mpf(10) ** -25

    def test_eval_mpf_tracks_exact(self):
        p = EvenPoly({0: Fraction(1), 2: Fraction(-1, 6), 4: Fraction(1, 120)})
        want = 1 - Fraction(9, 49) / 6 + Fraction(9, 49) ** 2 / 120  # p at t = 3/7
        with mp.workdps(30):
            got = p.eval_mpf(mp.mpf(3) / 7)
            assert abs(got - mp.mpf(want.numerator) / want.denominator) < mp.mpf(10) ** -25


def _pow_truncated(a: dict[int, Fraction], n0: int, max_w: int) -> dict[int, Fraction]:
    """(1 + sum_j a_j x^j / n0^j)^{n0} keeping x^w with w <= max_w."""
    base = {0: Fraction(1)}
    for j, v in a.items():
        base[j] = base.get(j, Fraction(0)) + Fraction(v) / Fraction(n0) ** j
    acc = {0: Fraction(1)}
    for _ in range(n0):
        nxt: dict[int, Fraction] = {}
        for w1, v1 in acc.items():
            for w2, v2 in base.items():
                w = w1 + w2
                if w <= max_w:
                    nxt[w] = nxt.get(w, Fraction(0)) + v1 * v2
        acc = {w: v for w, v in nxt.items() if v}
    return acc


class TestCollectBinomialRows:
    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.integers(2, 5), small_fractions, max_size=3),
           st.integers(1, 7), st.integers(2, 6))
    def test_exact_identity_at_fixed_n(self, a, n0, max_w):
        # identity in n: regrouped rows evaluated at positive integer n0 must
        # equal the directly expanded power, monomial by monomial
        rows = collect_binomial_rows(a, max_row=max_w, max_w=max_w)
        direct = _pow_truncated(a, n0, max_w)
        regrouped: dict[int, Fraction] = {}
        for i, row in enumerate(rows):
            for w, v in row.items():
                regrouped[w] = regrouped.get(w, Fraction(0)) + v / Fraction(n0) ** i
        regrouped = {w: v for w, v in regrouped.items() if v}
        assert regrouped == direct

    def test_row_degree_cap(self):
        # each S factor has x-degree >= 2, so row i never exceeds degree 2i
        a = {2: Fraction(1, 7), 3: Fraction(-2, 5), 4: Fraction(3)}
        rows = collect_binomial_rows(a, max_row=6, max_w=12)
        for i, row in enumerate(rows):
            assert all(w <= 2 * i for w in row), (i, row)

    def test_row_zero_is_one(self):
        rows = collect_binomial_rows({2: Fraction(1, 3)}, max_row=4, max_w=8)
        assert rows[0] == {0: Fraction(1)}


class TestNseriesPowBinomial:
    def test_validation_messages(self):
        with pytest.raises(ValueError, match="insufficient input coefficients"):
            nseries_pow_binomial({2: Fraction(1)}, 2)
        with pytest.raises(ValueError, match="insufficient input coefficients"):
            nseries_pow_binomial({}, 1)
        with pytest.raises(ValueError, match="start at j = 2"):
            nseries_pow_binomial({1: Fraction(1), 2: Fraction(1)}, 1)
        with pytest.raises(ValueError):
            nseries_pow_binomial({2: Fraction(1)}, -1)

    def test_matches_collect(self):
        a = {j: Fraction(1, j * j) for j in range(2, 7)}
        series = nseries_pow_binomial(a, 3)
        raw = collect_binomial_rows(a, max_row=3, max_w=6)
        assert series.rows == tuple(EvenPoly({2 * w: v for w, v in r.items()}) for r in raw)

class TestInvNSeries:
    def test_requires_rows(self):
        with pytest.raises(ValueError):
            InvNSeries([])

    def test_monomials_sorted_row_major(self):
        series = InvNSeries([EvenPoly({0: Fraction(1)}), EvenPoly({4: Fraction(-1, 180)})])
        assert list(series.monomials()) == [(0, 0, Fraction(1)), (1, 4, Fraction(-1, 180))]
