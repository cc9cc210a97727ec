"""The collection of [1 + S]^n by powers of 1/n, and the shape of its rows.

The central oracle: for every fixed integer n0, expanding [1 + S]^{n0}
directly by repeated truncated multiplication must agree monomial by
monomial with regrouping the collected rows at n = n0, because the
collection is an exact polynomial identity in n.  A second, independent
derivation, Newton's binomial formula, is kept here as a reference for the
log-exp recurrence of the library collector.  Rows keyed by the t-exponent
are checked for the shape the collection guarantees: even, nonnegative
exponents, at most 4i in row i, and no zero coefficient.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

import ballint.bessel
import ballint.sinc
from ballint.bessel import Nu, bessel_aj, bessel_expansion
from ballint.rationals import format_rational
from ballint.series import (
    InvNSeries,
    _log_coeffs,
    collect_binomial_rows,
    moment_coeffs,
    nseries_pow_binomial,
)
from ballint.sinc import appendix_table, sinc_aj, sinc_expansion

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=12)


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


def _falling_factorial_over_factorial(l: int) -> list[Fraction]:
    """Coefficients (index = power of n) of n(n-1)...(n-l+1) / l!."""
    poly = [Fraction(1)]
    for r in range(l):
        nxt = [Fraction(0)] * (len(poly) + 1)
        for s, coeff in enumerate(poly):
            nxt[s + 1] += coeff
            nxt[s] -= coeff * r
        poly = nxt
    fl = math.factorial(l)
    return [coeff / fl for coeff in poly]


def binomial_rows(a, max_row: int, max_w: int) -> list[dict[int, Fraction]]:
    """Rows of [1 + sum a_j t^{2j}/n^j]^n by Newton's binomial formula.

    binom(n, l) S^l contributes through the expansion of the falling
    factorial n(n-1)...(n-l+1)/l! as a polynomial in n: a monomial t^{2w}
    of S^l, paired with the n^s coefficient of that polynomial, lands in
    row i = w - s.
    """
    rows: list[dict[int, Fraction]] = [dict() for _ in range(max_row + 1)]
    rows[0][0] = Fraction(1)
    base = {j: v for j, v in a.items() if v and j <= max_w}
    power: dict[int, Fraction] = {0: Fraction(1)}
    for l in range(1, max_w // 2 + 1):
        nxt: dict[int, Fraction] = {}
        for w1, v1 in power.items():
            for j, aj in base.items():
                w = w1 + j
                if w <= max_w:
                    nxt[w] = nxt.get(w, Fraction(0)) + v1 * aj
        power = {w: v for w, v in nxt.items() if v}
        if not power:
            break
        ffl = _falling_factorial_over_factorial(l)
        for w, coeff_w in power.items():
            for s, coeff_s in enumerate(ffl):
                if not coeff_s:
                    continue
                i = w - s
                if 0 <= i <= max_row:
                    rows[i][w] = rows[i].get(w, Fraction(0)) + coeff_w * coeff_s
    return [{w: v for w, v in r.items() if v} for r in rows]


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

    @settings(max_examples=80, deadline=None)
    @given(st.dictionaries(st.integers(2, 8), small_fractions, max_size=5),
           st.integers(0, 10), st.integers(0, 16))
    @example({2: Fraction(1, 3), 5: Fraction(-2, 7), 8: Fraction(3)}, 3, 16)
    @example({3: Fraction(1, 5), 4: Fraction(-1), 7: Fraction(2, 3)}, 10, 6)
    def test_equals_binomial_oracle(self, a, max_row, max_w):
        # a with gaps; max_row below max_w / 2 and above max_w both occur
        assert collect_binomial_rows(a, max_row=max_row, max_w=max_w) == binomial_rows(a, max_row, max_w)

    def test_reads_a_only_through_max_row_plus_one(self):
        a = {j: Fraction(1, j + 1) for j in range(2, 6)}
        wider = a | {j: Fraction(j) for j in range(6, 13)}
        assert collect_binomial_rows(wider, max_row=4, max_w=12) == collect_binomial_rows(a, max_row=4, max_w=12)

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

    def test_order_m_needs_a_through_m_plus_one(self):
        a = {2: Fraction(1, 3), 3: Fraction(-1, 4), 4: Fraction(2)}
        assert nseries_pow_binomial(a, 3).rows == nseries_pow_binomial(a | {5: Fraction(1), 6: Fraction(7)}, 3).rows
        with pytest.raises(ValueError, match="need a_j through j = 5"):
            nseries_pow_binomial(a, 4)

    def test_matches_collect(self):
        a = {j: Fraction(1, j * j) for j in range(2, 7)}
        series = nseries_pow_binomial(a, 3)
        raw = collect_binomial_rows(a, max_row=3, max_w=6)
        assert series.rows == tuple({2 * w: v for w, v in r.items()} for r in raw)

class TestInvNSeries:
    def test_requires_rows(self):
        with pytest.raises(ValueError):
            InvNSeries([])

    def test_monomials_sorted_row_major(self):
        series = InvNSeries([{0: Fraction(1)}, {4: Fraction(-1, 180)},
                             {8: Fraction(1, 64800), 6: Fraction(-1, 2835)}])
        assert list(series.monomials()) == [(0, 0, Fraction(1)), (1, 4, Fraction(-1, 180)),
                                            (2, 6, Fraction(-1, 2835)), (2, 8, Fraction(1, 64800))]


def assert_row_shape(series: InvNSeries) -> None:
    """Row i holds even exponents 0 <= e <= 4i, each with a nonzero coefficient."""
    for i, row in enumerate(series.rows):
        assert all(e >= 0 and e % 2 == 0 and e <= 4 * i for e in row), (i, row)
        assert all(row.values()), (i, row)


class TestRowShape:
    @pytest.mark.parametrize("k", [8, 14])
    def test_appendix_table(self, k):
        assert_row_shape(appendix_table(k))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(small_fractions, max_size=9))
    # log b_2..b_5 = 1, 1, -1/2, 0: the t^12 coefficient of row 4,
    # b_2 b_4 + b_3^2 / 2, cancels and must be dropped
    @example([Fraction(1), Fraction(1), Fraction(0), Fraction(1)])
    def test_nseries_pow_binomial(self, a):
        # a_2..a_{m+1}, some of them 0, is exactly what order m reads
        assert_row_shape(nseries_pow_binomial(dict(enumerate(a, start=2)), len(a)))


class TestLogStage:
    def test_sinc_bernoulli_closed_form(self):
        # exp(t^2/6) sin(t)/t: the log is t^2/6 + log(sin t / t), whose t^{2j}
        # coefficient is (-1)^j 2^{2j-1} B_{2j} / (j (2j)!)
        b = _log_coeffs({j: sinc_aj(j, 41) for j in range(2, 42)}, 41)
        assert b[:2] == [0, 0]
        for j in range(2, 42):
            p, q = mp.bernfrac(2 * j)
            assert b[j] == Fraction((-1) ** j * 2 ** (2 * j - 1) * int(p), int(q) * j * math.factorial(2 * j)), j

    @pytest.mark.parametrize("v", [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(7, 3), Fraction(9, 4), Fraction(5)])
    def test_bessel_rayleigh_sum(self, v):
        # log f_nu(t) = -sum_m sigma_m t^{2m} / m with sigma_2 = 1/(16 (nu+1)^2 (nu+2));
        # in u = t^2/4 the u^2 coefficient is -sigma_2 * 16 / 2
        sigma2 = Fraction(1, 16) / ((v + 1) ** 2 * (v + 2))
        b = _log_coeffs({j: bessel_aj(Nu(v), j) for j in range(2, 5)}, 4)
        assert b[2] == -8 * sigma2


def reference_sinc_aj(j: int, k: int) -> Fraction:
    """sinc_aj as a sum of Fractions, one per term."""
    return sum((Fraction((-1) ** (j - i), math.factorial(i) * 6**i * math.factorial(2 * (j - i) + 1))
                for i in range(min(j, k) + 1)), Fraction(0))


def reference_rising(nu: Fraction, count: int, start: int = 1) -> Fraction:
    """(nu+start)(nu+start+1)...(nu+start+count-1) as a Fraction."""
    out = Fraction(1)
    for r in range(start, start + count):
        out *= nu + r
    return out


def reference_bessel_aj(nu: Fraction, j: int) -> Fraction:
    """bessel_aj as a sum of Fractions, one per term."""
    return sum((Fraction((-1) ** i, math.factorial(j - i) * math.factorial(i))
                / ((nu + 1) ** (j - i) * reference_rising(nu, i)) for i in range(j + 1)), Fraction(0))


def reference_moment_coeffs(a, m: int, moment) -> tuple[Fraction, ...]:
    """moment_coeffs by summing Fraction monomials of the nseries_pow_binomial rows."""
    moments = [moment(w) for w in range(2 * m + 1)]
    return tuple(sum((v * moments[e // 2] for e, v in row.items()), Fraction(0))
                 for row in nseries_pow_binomial(a, m).rows)


@st.composite
def rational_nus(draw) -> Fraction:
    """nu = p/q >= 1/2 with q <= 12, up to 6."""
    q = draw(st.integers(1, 12))
    return Fraction(draw(st.integers((q + 1) // 2, 6 * q)), q)


class TestIntegerPipeline:
    """The integer sums and products against the Fraction formulas they replaced."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 8), st.lists(small_fractions, min_size=9, max_size=9),
           st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=30), min_size=17, max_size=17))
    def test_moment_coeffs(self, m, a, moments):
        # a_2..a_10, some of them 0, and moments over unrelated denominators
        a = dict(enumerate(a, start=2))
        assert moment_coeffs(a, m, moments.__getitem__) == reference_moment_coeffs(a, m, moments.__getitem__)

    @pytest.mark.parametrize("m", [0, 1, 2, 7, 12])
    def test_sinc(self, m):
        for k in (m + 1, m + 4):
            a = {j: reference_sinc_aj(j, k) for j in range(2, m + 2)}
            assert {j: sinc_aj(j, k) for j in a} == a
            # the sine series against e^{-t^2/6}'s moments 3^w (2w-1)!!
            want = reference_moment_coeffs(a, m, lambda w: 3**w * math.prod(range(1, 2 * w, 2)))
            assert sinc_expansion(m, k).coeffs == want

    @settings(max_examples=40, deadline=None)
    @given(rational_nus(), st.integers(0, 12))
    @example(Fraction(1, 2), 12)
    @example(Fraction(13, 7), 12)
    @example(Fraction(71, 12), 12)
    def test_bessel(self, v, m):
        nu = Nu(v)
        a = {j: reference_bessel_aj(v, j) for j in range(2, m + 2)}
        assert {j: bessel_aj(nu, j) for j in a} == a
        ratios = [Fraction(4 * (v + 1)) ** w * reference_rising(v, w, start=0) for w in range(2 * m + 1)]
        assert [ballint.bessel.bessel_moment_ratio(nu, w) for w in range(2 * m + 1)] == ratios
        want = reference_moment_coeffs(a, m, lambda w: ratios[w] / Fraction(4) ** w)
        assert bessel_expansion(nu, m).gamma_coeffs == want
        partial = ballint.bessel.bessel_partial_sum(nu, m)
        assert partial == {2 * j: Fraction((-1) ** j, 4**j * math.factorial(j)) / reference_rising(v, j)
                           for j in range(m + 1)}

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_aj_beyond_the_truncation(self, k):
        # appendix_table reads sinc_aj(j, 8) up to j = 14
        for j in range(k + 1, k + 12):
            assert sinc_aj(j, k) == reference_sinc_aj(j, k), j


def _counting(fn):
    def wrapper(*args):
        wrapper.calls += 1
        return fn(*args)
    wrapper.calls = 0
    return wrapper


class TestWorkCounts:
    @pytest.mark.parametrize("m", [0, 1, 5, 12])
    def test_moment_called_once_per_w(self, m):
        moment = _counting(lambda w: Fraction(w + 1))
        moment_coeffs({j: Fraction(1, j) for j in range(2, m + 2)}, m, moment)
        assert moment.calls <= 2 * m + 1

    @pytest.mark.parametrize("m", [1, 7, 24])
    def test_sinc_pipeline_counts(self, monkeypatch, m):
        # sinc's coefficients come from the Bessel a_j at nu = 1/2, never the sine series
        aj = _counting(ballint.bessel.bessel_aj)
        sine = _counting(ballint.sinc.sinc_aj)
        moment = _counting(ballint.bessel.bessel_moment_ratio)
        monkeypatch.setattr(ballint.bessel, "bessel_aj", aj)
        monkeypatch.setattr(ballint.sinc, "sinc_aj", sine)
        monkeypatch.setattr(ballint.bessel, "bessel_moment_ratio", moment)
        sinc_expansion(m, m + 3)
        assert aj.calls == m and sine.calls == 0
        assert moment.calls <= 2 * m + 1

    @pytest.mark.parametrize("m", [1, 7, 24])
    def test_bessel_pipeline_counts(self, monkeypatch, m):
        aj = _counting(ballint.bessel.bessel_aj)
        moment = _counting(ballint.bessel.bessel_moment_ratio)
        monkeypatch.setattr(ballint.bessel, "bessel_aj", aj)
        monkeypatch.setattr(ballint.bessel, "bessel_moment_ratio", moment)
        bessel_expansion(Nu(Fraction(7, 3)), m)
        assert aj.calls == m
        assert moment.calls <= 2 * m + 1


GOLDEN_EXPANSIONS = json.loads((Path(__file__).parent / "data" / "expansions.json").read_text())


class TestGoldenExpansions:
    """The benchmark's orders against tables written by the binomial collector."""

    def test_sinc_order_40(self):
        want = GOLDEN_EXPANSIONS["sinc"]
        e = sinc_expansion(want["order"])
        assert [format_rational(c) for c in e.coeffs] == want["coefficients"]
        for k in range(41, 45):
            assert sinc_expansion(40, k).coeffs == e.coeffs, k

    @pytest.mark.parametrize("nu", sorted(GOLDEN_EXPANSIONS["bessel"]["gammas"]))
    def test_bessel_order_24(self, nu):
        want = GOLDEN_EXPANSIONS["bessel"]
        e = bessel_expansion(Nu(Fraction(nu)), want["order"])
        assert [format_rational(g) for g in e.gamma_coeffs] == want["gammas"][nu]
