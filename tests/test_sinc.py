"""Exact sinc expansion: coefficients, truncation stability, the fixture."""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from ballint.bessel import bessel_moment_ratio
from ballint.rationals import format_rational, to_mpf
from ballint.sinc import (
    APPENDIX_K,
    SINC_NU,
    appendix_mismatches,
    appendix_table,
    check_errata,
    cutoff_tail_bound,
    load_appendix_fixture,
    load_errata,
    sinc_aj,
    sinc_expansion,
    sinc_partial_sum,
)

# frozen expansion coefficients in units of sqrt(3 pi/2); 0..4 and 6 are
# printed reference values, the rest are engine outputs pinned after the
# quadrature cross-checks in the verification suites agreed with them
EXPECTED_COEFFS = {
    0: "1",
    1: "-3/20",
    2: "-13/1120",
    3: "27/3200",
    4: "52791/3942400",
    5: "482427/66560000",
    6: "-124996631/10035200000",
    7: "-5270328789/136478720000",
    8: "-7479063506161/268461670400000",
    9: "6921977624613/56518246400000",
    10: "10703530420192887741/23658537943040000000",
    11: "5097105795373974189/20572641689600000000",
    12: "-12397974207837236059539/3620784937369600000000",
    13: "-27650856933754927327398807/2100055263674368000000000",
}


def gaussian_moment(w: int) -> int:
    """int_0^inf e^{-t^2/6} t^{2w} dt over the w = 0 integral: 3^w (2w-1)!!."""
    return 3**w * math.prod(range(1, 2 * w, 2))


def eval_even(p: dict[int, Fraction], t) -> mp.mpf:
    """A partial sum with every even exponent up to its degree, at an mpmath point."""
    return mp.polyval([to_mpf(v) for _, v in sorted(p.items(), reverse=True)], t * t)


class TestPartialSum:
    def test_coefficients(self):
        assert sinc_partial_sum(3) == {
            0: Fraction(1), 2: Fraction(-1, 6), 4: Fraction(1, 120), 6: Fraction(-1, 5040),
        }

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sinc_partial_sum(-1)

    @given(st.integers(0, 5), st.fractions(min_value=Fraction(1, 10), max_value=Fraction(61, 25),
                                           max_denominator=25))
    def test_alternating_enclosure(self, k, t):
        # consecutive partial sums of an alternating series with decreasing
        # terms (guaranteed on t^2 < 6, and 61/25 < sqrt 6) bracket sinc t,
        # the lower one from above 0; the gap is ~t^(4k+2)/(4k+3)!, above
        # 60-digit resolution here
        lo, hi = sinc_partial_sum(2 * k + 1), sinc_partial_sum(2 * k)
        with mp.workdps(60):
            tt = mp.mpf(t.numerator) / t.denominator
            value = mp.sin(tt) / tt
            assert 0 <= eval_even(lo, tt) <= value <= eval_even(hi, tt)


class TestBracketing:
    def test_odd_k_brackets(self):
        # 0 <= T_7(t) <= sin t / t <= T_8(t) on (0, sqrt 6), with sinc taken
        # from the normalized Bessel kernel at nu = 1/2
        from ballint.bessel import Nu
        from ballint.quadrature import Precision, bessel_j_normalized

        lo, hi = sinc_partial_sum(7), sinc_partial_sum(8)
        prec = Precision()
        with mp.workdps(prec.working_dps):
            for t in ["0.1", "0.5", "1.0", "1.7", "2.2", "2.44"]:
                tt = mp.mpf(t)
                value = bessel_j_normalized(Nu(Fraction(1, 2)), tt, prec).value
                assert 0 <= eval_even(lo, tt) <= value <= eval_even(hi, tt), t


class TestSincAj:
    def test_hand_derived_values(self):
        assert sinc_aj(0, 8) == 1
        assert sinc_aj(1, 8) == 0
        assert sinc_aj(2, 8) == Fraction(-1, 180)
        assert sinc_aj(3, 8) == Fraction(-1, 2835)
        assert sinc_aj(4, 8) == Fraction(-1, 90720)

    def test_symbolic_series_oracle(self):
        import sympy
        x = sympy.symbols("x")
        expr = sympy.exp(x**2 / 6) * sympy.sin(x) / x
        poly = sympy.series(expr, x, 0, 18).removeO().as_poly(x)
        for j in range(9):
            want = Fraction(str(poly.coeff_monomial(x ** (2 * j)) or 0))
            assert sinc_aj(j, 8) == want, j

    @given(st.integers(0, 10), st.integers(1, 14))
    def test_cap_only_matters_past_k(self, j, k):
        # for j <= k the cap is inactive and any deeper k agrees
        if j <= k:
            assert sinc_aj(j, k) == sinc_aj(j, 14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sinc_aj(-1, 8)
        with pytest.raises(ValueError):
            sinc_aj(2, 0)


class TestExpansion:
    def test_frozen_coefficients(self):
        deep = sinc_expansion(13)
        for j, text in EXPECTED_COEFFS.items():
            assert format_rational(deep.coeffs[j]) == text, j

    def test_order7_k8_pipeline(self):
        e = sinc_expansion(7, 8)
        assert [format_rational(c) for c in e.coeffs] == [EXPECTED_COEFFS[j] for j in range(8)]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 5))
    def test_truncation_stability(self, m, extra):
        # any k >= m+1 yields identical coefficients
        assert sinc_expansion(m, m + 1 + extra).coeffs == sinc_expansion(m).coeffs

    def test_moment_integration_matches_table(self):
        # c_i equals row i of the bookkeeping table integrated against the
        # e^{-t^2/6} moments, for every row where the truncation is valid
        table = appendix_table(k=8)
        e = sinc_expansion(7, 8)
        for i in range(8):
            total = sum((v * gaussian_moment(exp // 2)
                         for exp, v in table.rows[i].items()), Fraction(0))
            assert total == e.coeffs[i], i

    def test_validation(self):
        with pytest.raises(ValueError):
            sinc_expansion(-1)
        with pytest.raises(ValueError, match="truncation too short"):
            sinc_expansion(3, 3)


class TestMoments:
    @given(st.integers(0, 12))
    def test_against_gamma_quadrature(self, j):
        # the expansion's moments at nu = 1/2, whose weight is e^{-t^2/6}:
        # int e^{-t^2/6} t^{2j} over int e^{-t^2/6} = 3^j (2j-1)!!
        got = bessel_moment_ratio(SINC_NU, j)
        assert got == gaussian_moment(j)
        with mp.workdps(40):
            num = mp.gamma(j + mp.mpf(1) / 2) * mp.power(6, j)
            den = mp.gamma(mp.mpf(1) / 2)
            want = num / den
            assert abs(mp.mpf(got.numerator) / got.denominator / want - 1) < mp.mpf(10) ** -35


class TestTailBounds:
    # at the cutoff sqrt 6 the envelope bound is sqrt(6n) 6^{-n/2} / (n-1)
    def test_reference_value(self):
        with mp.workdps(30):
            want = mp.sqrt(30) / (mp.power(6, mp.mpf(5) / 2) * 4)
            assert abs(cutoff_tail_bound(5, mp.sqrt(6)) - want) < mp.mpf(10) ** -25

    def test_monotone_in_n(self):
        with mp.workdps(30):
            values = [cutoff_tail_bound(n, mp.sqrt(6)) for n in range(2, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_cutoff_bound(self):
        with mp.workdps(30):
            assert abs(cutoff_tail_bound(3, 2) - mp.sqrt(3) / 8) < mp.mpf(10) ** -25
        with pytest.raises(ValueError):
            cutoff_tail_bound(3, 0.5)
        with pytest.raises(ValueError):
            cutoff_tail_bound(1, 2)

    @pytest.mark.parametrize("n", [3.0, 3.5, Fraction(3)])
    def test_non_integer_n_refused(self, n):
        with pytest.raises(TypeError):
            cutoff_tail_bound(n, 2)

    def test_nan_cutoff_refused_infinite_accepted(self):
        # A < 1 is false for nan, which then gave a nan "bound"
        with pytest.raises(ValueError, match="at least 1"):
            cutoff_tail_bound(5, mp.nan)
        assert cutoff_tail_bound(5, mp.inf) == 0


class TestFixture:
    def test_shape(self):
        fixture = load_appendix_fixture()
        assert len(fixture) == 50
        assert fixture[(0, 0)] == Fraction(1)
        assert fixture[(1, 4)] == Fraction(-1, 180)
        assert all(0 <= r <= 13 and 0 <= e <= 28 and e % 2 == 0 for r, e in fixture)

    @pytest.mark.parametrize("text,message", [
        ("0 0 1\n0 0 1", "duplicate"),
        ("0 3 1/2", "exponent"),
        ("0 0", "fields"),
        ("0 0 2/4", "lowest terms"),
        ("x 0 1", "row"),
        ("-1 0 1", "row"),
        ("", "empty"),
    ])
    def test_parser_rejections(self, text, message):
        with pytest.raises(ValueError, match=message):
            load_appendix_fixture(text)

    @pytest.mark.parametrize("text", ["1_0 2 1/3", "+1 2 1/3", "01 2 1/3", "\u0663 2 1/3",
                                      "1 1_0 1/3", "1 +2 1/3", "1 02 1/3", "1 \u0662 1/3"])
    def test_row_and_exponent_are_canonical_decimals(self, text):
        # int() reads "1_0" as 10 and accepts "+1", "01" and the Arabic-Indic digit three
        with pytest.raises(ValueError, match="line 1: bad row/exponent"):
            load_appendix_fixture(text)

    def test_parser_reports_line_numbers(self):
        with pytest.raises(ValueError, match="line 3"):
            load_appendix_fixture("# header\n0 0 1\n1 4 -1/180 extra")


class TestErrataAlignment:
    def test_mismatches_equal_ledger(self):
        fixture = load_appendix_fixture()
        mismatches = appendix_mismatches(appendix_table(k=8), fixture)
        ledger = load_errata()["table"]
        assert len(mismatches) == len(ledger) == 13
        by_key = {(e["row"], e["exponent"]): e for e in ledger}
        for m in mismatches:
            entry = by_key[(m.row, m.exponent)]
            assert format_rational(m.fixture) == entry["fixture"]
            assert format_rational(m.engine) == entry["recomputed"]

    def test_check_errata_pairs_every_entry(self):
        check = check_errata()
        assert len(check.mismatches) == 13 and check.stale == ()
        assert all(entry is not None for _, entry in check.mismatches)
        assert [e["id"] for e in check.coefficients.values()] == ["remark-c5"]
        assert set(check.coefficients) == {5}

    def test_deep_truncation_leaves_only_misprints(self):
        # at k = 14 every a_j the table needs is complete, so the
        # bookkeeping mismatches vanish and the two misprints remain
        fixture = load_appendix_fixture()
        mismatches = appendix_mismatches(appendix_table(k=14), fixture)
        keys = {(m.row, m.exponent) for m in mismatches}
        assert keys == {(8, 26), (11, 28)}
        ledger = load_errata()["table"]
        misprints = {(e["row"], e["exponent"]) for e in ledger
                     if e["classification"] == "denominator-misprint"}
        assert keys == misprints

    def test_ledger_structure(self):
        errata = load_errata()
        ids = [e["id"] for e in errata["table"]] + [e["id"] for e in errata["coefficients"]]
        assert len(ids) == len(set(ids))
        allowed = {"duplicated-line", "truncation-bookkeeping", "denominator-misprint"}
        assert {e["classification"] for e in errata["table"]} <= allowed
        remark = errata["coefficients"][0]
        assert remark["id"] == "remark-c5"
        assert remark["fixture"] == "-5270328789/136478720000"
        assert remark["recomputed"] == "482427/66560000"

    def test_rows_stable_under_deeper_truncation(self):
        assert appendix_table(k=8).rows[:8] == appendix_table(k=14).rows[:8]

    def test_table_requires_k8(self):
        with pytest.raises(ValueError):
            appendix_table(k=7)
