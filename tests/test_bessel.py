"""Bessel-kernel expansion: Nu domain, a_j, moments, gammas, closed forms."""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from ballint.bessel import (
    BesselExpansion,
    Nu,
    amplitude,
    bessel_aj,
    bessel_expansion,
    bessel_moment_ratio,
    bessel_partial_sum,
    bessel_tail_bound,
    c0_exact,
    c0_value,
    i_nu_at_2,
)
from ballint.rationals import to_mpf
from ballint.sinc import sinc_aj, sinc_expansion, sinc_partial_sum

NUS = [Nu(Fraction(1, 2)), Nu(Fraction(1)), Nu(Fraction(3, 2)),
       Nu(Fraction(2)), Nu(Fraction(5, 2)), Nu(Fraction(3))]

nu_strategy = st.sampled_from(NUS + [Nu(Fraction(7, 3)), Nu(Fraction(9, 4))])


def a2_closed(v: Fraction) -> Fraction:
    return Fraction(-1, 2) / ((v + 1) ** 2 * (v + 2))


def a3_closed(v: Fraction) -> Fraction:
    return Fraction(-2, 3) / ((v + 1) ** 3 * (v + 2) * (v + 3))


def a4_closed(v: Fraction) -> Fraction:
    return (v - 5) / (8 * (v + 1) ** 4 * (v + 2) * (v + 3) * (v + 4))


def gamma1_closed(v: Fraction) -> Fraction:
    return -v * (v + 1) / (2 * (v + 2))


def gamma2_closed(v: Fraction) -> Fraction:
    return v * (v + 1) * (3 * v**2 + 2 * v - 5) / (24 * (v + 2) * (v + 3))


def gamma3_closed(v: Fraction) -> Fraction:
    return -v * (v + 1) ** 2 * (v**3 - v**2 - 4 * v - 8) / (48 * (v + 2) ** 2 * (v + 4))


class TestNu:
    def test_accepts_from_half(self):
        assert Nu(Fraction(1, 2)).value == Fraction(1, 2)
        assert Nu(Fraction(7, 3)).value == Fraction(7, 3)

    def test_rejects_below_half(self):
        with pytest.raises(ValueError, match="at least 1/2"):
            Nu(Fraction(1, 3))
        with pytest.raises(ValueError):
            Nu(Fraction(0))

    def test_rejects_a_float(self):
        # 0.7 is 3152519739159347/4503599627370496, whose numerator makes the
        # first piece's weight y^(p-1) in bessel_integral exhaust memory
        with pytest.raises(TypeError, match="an int, a Fraction or a 'p/q' string"):
            Nu(0.7)
        assert Nu(1).value == Nu("7/10").value * 10 / 7 == 1

    def test_classification(self):
        assert Nu(Fraction(2)).is_integer
        assert not Nu(Fraction(3, 2)).is_integer
        assert not Nu(Fraction(7, 3)).is_integer

    def test_str(self):
        assert str(Nu(Fraction(7, 3))) == "7/3"
        assert str(Nu(Fraction(2))) == "2"


class TestPartialSum:
    @given(st.integers(0, 8))
    def test_reduces_to_sinc_at_half(self, k):
        assert bessel_partial_sum(Nu(Fraction(1, 2)), k) == sinc_partial_sum(k)

    def test_nu_one_coefficients(self):
        p = bessel_partial_sum(Nu(Fraction(1)), 2)
        assert p == {0: Fraction(1), 2: Fraction(-1, 8), 4: Fraction(1, 192)}

    def test_matches_library_bessel(self):
        # 2^nu Gamma(nu+1) J_nu(t) / t^nu at small t, where the degree-12
        # partial sum carries far more accuracy than the comparison needs
        with mp.workdps(40):
            for nu in NUS:
                p = bessel_partial_sum(nu, 6)
                v = mp.mpf(nu.value.numerator) / nu.value.denominator
                t = mp.mpf(1) / 3
                want = mp.power(2, v) * mp.gamma(v + 1) * mp.besselj(v, t) / mp.power(t, v)
                got = mp.polyval([to_mpf(p[e]) for e in range(12, -1, -2)], t * t)
                assert abs(got - want) < mp.mpf(10) ** -14

    def test_negative_k(self):
        with pytest.raises(ValueError):
            bessel_partial_sum(Nu(Fraction(1)), -1)


class TestBesselAj:
    @given(nu_strategy, st.integers(1, 10))
    def test_a0_a1(self, nu, k):
        assert bessel_aj(nu, 0, k) == 1
        assert bessel_aj(nu, 1, k) == 0

    @pytest.mark.parametrize("nu", NUS, ids=str)
    def test_closed_forms(self, nu):
        v = nu.value
        assert bessel_aj(nu, 2, 8) == a2_closed(v)
        assert bessel_aj(nu, 3, 8) == a3_closed(v)
        assert bessel_aj(nu, 4, 8) == a4_closed(v)

    @given(st.integers(2, 8))
    def test_reduces_to_sinc_at_half(self, j):
        # u = t^2/4 absorbs a factor 4^j between the two normalizations
        assert bessel_aj(Nu(Fraction(1, 2)), j, 10) == sinc_aj(j, 10) * Fraction(4) ** j

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_aj(Nu(Fraction(1)), -1, 8)
        with pytest.raises(ValueError):
            bessel_aj(Nu(Fraction(1)), 2, 0)


class TestMomentRatio:
    @given(nu_strategy, st.integers(0, 8))
    def test_gamma_form(self, nu, j):
        # (4(nu+1))^j Gamma(nu+j)/Gamma(nu), checked against library Gamma
        v = nu.value
        got = bessel_moment_ratio(nu, j)
        with mp.workdps(40):
            nv = mp.mpf(v.numerator) / v.denominator
            want = mp.power(4 * (nv + 1), j) * mp.gamma(nv + j) / mp.gamma(nv)
            assert abs(mp.mpf(got.numerator) / got.denominator / want - 1) < mp.mpf(10) ** -30

    def test_quadrature_oracle(self):
        # direct numerical integral of the weight moments at nu = 3/2, j = 2
        assert bessel_moment_ratio(Nu(Fraction(3, 2)), 2) == 375
        with mp.workdps(30):
            s = mp.mpf(10)  # 4(nu+1)
            num = mp.quad(lambda t: mp.e ** (-t * t / s) * t ** 6, [0, mp.inf])
            den = mp.quad(lambda t: mp.e ** (-t * t / s) * t ** 2, [0, mp.inf])
            assert abs(num / den - 375) < mp.mpf(10) ** -18

    def test_negative_j(self):
        with pytest.raises(ValueError):
            bessel_moment_ratio(Nu(Fraction(1)), -1)


class TestExpansion:
    def test_nu_one_frozen(self):
        e = bessel_expansion(Nu(Fraction(1)), 5)
        assert e.gamma_coeffs == (
            Fraction(1), Fraction(-1, 3), Fraction(0),
            Fraction(1, 45), Fraction(4, 135), Fraction(19, 945),
        )

    @pytest.mark.parametrize("nu", NUS, ids=str)
    def test_gamma_closed_forms(self, nu):
        v = nu.value
        e = bessel_expansion(nu, 3)
        assert e.gamma_coeffs[0] == 1
        assert e.gamma_coeffs[1] == gamma1_closed(v)
        assert e.gamma_coeffs[2] == gamma2_closed(v)
        assert e.gamma_coeffs[3] == gamma3_closed(v)

    def test_reduces_to_sinc_at_half(self):
        got = bessel_expansion(Nu(Fraction(1, 2)), 5).gamma_coeffs
        assert got == sinc_expansion(5).coeffs

    @settings(max_examples=30, deadline=None)
    @given(nu_strategy, st.integers(0, 4), st.integers(0, 4))
    def test_truncation_stability(self, nu, m, extra):
        assert (bessel_expansion(nu, m, m + 1 + extra).gamma_coeffs
                == bessel_expansion(nu, m).gamma_coeffs)

    def test_metadata(self):
        e = bessel_expansion(Nu(Fraction(7, 3)), 2)
        assert isinstance(e, BesselExpansion)
        assert e.m == 2 and e.k == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            bessel_expansion(Nu(Fraction(1)), -1)
        with pytest.raises(ValueError, match="truncation too short"):
            bessel_expansion(Nu(Fraction(1)), 3, 3)


class TestC0:
    def test_exact_integers(self):
        assert c0_exact(Nu(Fraction(1))) == 4
        assert c0_exact(Nu(Fraction(2))) == 72
        assert c0_exact(Nu(Fraction(3))) == 4096
        assert c0_exact(Nu(Fraction(1, 2))) is None

    def test_half_integer_is_sinc_limit(self):
        # nu = 1/2 collapses to sqrt(3 pi / 2)
        with mp.workdps(40):
            want = mp.sqrt(3 * mp.pi / 2)
            assert abs(c0_value(Nu(Fraction(1, 2)), 35) - want) < mp.mpf(10) ** -33

    @pytest.mark.parametrize("nu", NUS + [Nu(Fraction(7, 3))], ids=str)
    def test_against_library_gamma(self, nu):
        v = nu.value
        with mp.workdps(50):
            nv = mp.mpf(v.numerator) / v.denominator
            want = mp.power(4, nv) / 2 * mp.power(nv + 1, nv) * mp.gamma(nv)
            assert abs(c0_value(nu, 40) / want - 1) < mp.mpf(10) ** -38

    @pytest.mark.parametrize("digits", [10, 30, 60])
    def test_half_integers_against_gamma_recurrence(self, digits):
        # Gamma(r + 1/2) = sqrt(pi) (2r-1)!! / 2^r, independent of the
        # library Gamma that c0_value calls for non-integer nu
        for r in range(11):
            v = Fraction(2 * r + 1, 2)
            with mp.workdps(digits + 20):
                nv = mp.mpf(v.numerator) / v.denominator
                want = (mp.power(4, nv) / 2 * mp.power(nv + 1, nv)
                        * mp.sqrt(mp.pi) * math.prod(range(2 * r - 1, 0, -2)) / mp.power(2, r))
                got = c0_value(Nu(v), digits)
                assert abs(got / want - 1) < mp.mpf(10) ** -(digits + 5), (r, digits)

    def test_digits_validation(self):
        with pytest.raises(ValueError):
            c0_value(Nu(Fraction(1)), 0)


class TestINuAt2:
    def test_values(self):
        assert i_nu_at_2(Nu(Fraction(1))) == 4
        assert i_nu_at_2(Nu(Fraction(2))) == 64
        assert i_nu_at_2(Nu(Fraction(3))) == 3072

    def test_equality_then_strict_inequality_vs_c0(self):
        assert i_nu_at_2(Nu(Fraction(1))) == c0_exact(Nu(Fraction(1)))
        for p in (2, 3, 4):
            nu = Nu(Fraction(p))
            assert i_nu_at_2(nu) < c0_exact(nu)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            i_nu_at_2(Nu(Fraction(3, 2)))


class TestTailBound:
    def test_monotone_in_cutoff(self):
        nu = Nu(Fraction(1))
        bounds = [bessel_tail_bound(nu, 4, X) for X in (5, 10, 20, 40)]
        assert all(b > 0 for b in bounds)
        assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_tail_bound(Nu(Fraction(1)), 1, 10)
        with pytest.raises(ValueError, match="cutoff below"):
            bessel_tail_bound(Nu(Fraction(7, 3)), 4, 10)

    def test_cutoff_at_the_amplitude(self):
        # bessel_integral forms X = cutoff_mult 2^nu Gamma(nu+1) at the working
        # precision, 45 digits by default, and hands that precision on; at
        # cutoff_mult = 1, 21 of these 43 orders rounded X below the amplitude
        # taken at ten more digits, and the cutoff was refused
        for k in range(6, 49):
            nu = Nu(Fraction(k, 12))
            with mp.workdps(45):
                X = 1.0 * amplitude(nu)
            assert bessel_tail_bound(nu, 3, X, digits=45) > 0, nu

