"""Numerical side: integrals, error-bound honesty, decay fits, failure modes."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.calculus.quadrature import GaussLegendre

from ballint.bessel import Nu, amplitude, bessel_expansion, c0_value, i_nu_at_2
from ballint.sinc import sinc_expansion
from ballint.quadrature import (
    CUTOFF_MULT_MAX,
    BesselEval,
    DecayFit,
    Precision,
    PrecisionFailure,
    QuadEstimate,
    _bessel_integral,
    _bessel_zeros,
    _check_zeros,
    _completed_tail_n2,
    _f_slope,
    _legendre_rule,
    _sinc_integral,
    bessel_integral,
    bessel_j_normalized,
    remainder_decay_fit,
    sinc_integral,
)

HALF = Nu(Fraction(1, 2))
ONE = Nu(Fraction(1))

# frozen 30-digit regression pin for n = 3: the sinc engine's own value,
# not an independent one.  The Bessel pipeline at nu = 1/2 only brackets it
# (4.0e-4 away with bound 6.7e-3 at defaults, 5.7e-5 away with bound 1.5e-3
# at cutoff_mult=64, the largest allowed).  It sits 0.053 above the signed
# integral sqrt(3) int (sin t/t)^3 = 3 sqrt(3) pi/8, as |sin t/t|^3 must.
I3_REFERENCE = "2.09308676894979384243213365357"

# f_nu(t) = (2k+1)!! j_k(t) / t^k at nu = k + 1/2, from the spherical Bessel j_k
HALF_INTEGER_FORMS = {
    Fraction(1, 2): lambda t: mp.sin(t) / t,
    Fraction(3, 2): lambda t: 3 * (mp.sin(t) - t * mp.cos(t)) / t**3,
    Fraction(5, 2): lambda t: 15 * ((3 - t**2) * mp.sin(t) - 3 * t * mp.cos(t)) / t**5,
}


# orders for the cross-check against mpmath's besselj: half-integers,
# integers and thirds/quarters, whose besselj takes the hypergeometric route
LIBRARY_NUS = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
               Fraction(5, 3), Fraction(7, 3), Fraction(9, 4), Fraction(3)]


def library_f_nu(nu: Fraction, t) -> mp.mpf:
    """2^nu Gamma(nu+1) J_nu(t) / t^nu from mpmath's besselj, at the ambient
    precision; 1 at t = 0."""
    if t == 0:
        return mp.mpf(1)
    v = mp.mpf(nu.numerator) / nu.denominator
    t = mp.mpf(t)
    return mp.power(2, v) * mp.gamma(v + 1) * mp.besselj(v, t) / mp.power(t, v)


def maclaurin_f_nu(nu: Fraction, t, dps: int = 60) -> mp.mpf:
    """sum_j (-t^2/4)^j / (j! (nu+1)...(nu+j)), with digits raised past the
    alternating series' cancellation of about 2t/ln 10."""
    with mp.workdps(dps + int(2 * t / math.log(10)) + 10):
        u = mp.mpf(t) ** 2 / 4
        v = mp.mpf(nu.numerator) / nu.denominator
        term = total = mp.mpf(1)
        j = 0
        while j * j <= u or abs(term) > mp.mpf(10) ** -(dps + 5):
            j += 1
            term *= -u / (j * (v + j))
            total += term
        return total


class TestPrecision:
    def test_defaults(self):
        p = Precision()
        assert p.decimal_digits == 30
        assert p.working_dps == 45
        assert math.isclose(p.target_abs_err, 1e-20)

    def test_validation(self):
        with pytest.raises(ValueError):
            Precision(decimal_digits=14)
        with pytest.raises(ValueError):
            Precision(target_abs_err=0.0)
        with pytest.raises(ValueError, match="finer than"):
            Precision(decimal_digits=30, target_abs_err=1e-40)
        with pytest.raises(ValueError, match="max_refinements"):
            Precision(max_refinements=-1)
        assert Precision(max_refinements=0).max_refinements == 0

    def test_explicit_target(self):
        p = Precision(decimal_digits=40, target_abs_err=1e-30)
        assert p.target_abs_err == 1e-30


class TestLegendreRule:
    @pytest.mark.parametrize("order,dps", [(16, 45), (64, 65), (256, 75)])
    def test_symmetric_with_positive_weights_summing_to_two(self, order, dps):
        rule = sorted(_legendre_rule(order, dps))
        assert len(rule) == order
        with mp.workdps(dps):
            for (x, w), (y, v) in zip(rule, reversed(rule)):
                assert x == -y and w == v and w > 0
            assert abs(mp.fsum(w for _, w in rule) - 2) <= mp.mpf(10) ** (2 - dps)

    @pytest.mark.parametrize("dps", [45, 65])
    @pytest.mark.parametrize("order", [16, 64])
    def test_even_moments_exact_to_degree_2n_minus_1(self, order, dps):
        rule = _legendre_rule(order, dps)
        with mp.workdps(dps):
            for k in range(order):
                moment = mp.fsum(w * x ** (2 * k) for x, w in rule)
                assert abs(moment - mp.mpf(2) / (2 * k + 1)) <= mp.mpf(10) ** (2 - dps), k

    @pytest.mark.parametrize("degree", [4, 5, 6])
    def test_matches_mpmath_gauss_legendre(self, degree):
        # mpmath's own Newton on the recurrence, in mpf at 1.5x the
        # precision, gives 3 * 2^(degree - 1) nodes: orders 24, 48, 96
        dps = 65
        with mp.workdps(dps):
            ref = sorted(GaussLegendre(mp.mp).calc_nodes(degree, mp.mp.prec))
        rule = sorted(_legendre_rule(3 * 2 ** (degree - 1), dps))
        tol = mp.mpf(10) ** (1 - dps)
        for (x, w), (x_ref, w_ref) in zip(rule, ref, strict=True):
            assert abs(x - x_ref) <= tol and abs(w - w_ref) <= tol

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError, match="even"):
            _legendre_rule(17, 45)


class TestSincClosedForms:
    def test_n2_exact(self):
        est = sinc_integral(2)
        with mp.workdps(60):
            err = abs(est.value - mp.pi / mp.sqrt(2))
            assert err <= est.abs_err_bound
        assert est.abs_err_bound <= mp.mpf(1e-20)

    def test_n4_exact(self):
        est = sinc_integral(4)
        with mp.workdps(60):
            err = abs(est.value - 2 * mp.pi / 3)
            assert err <= est.abs_err_bound
        assert est.abs_err_bound <= mp.mpf(1e-20)

    def test_n3_regression(self):
        est = sinc_integral(3)
        with mp.workdps(40):
            assert abs(est.value - mp.mpf(I3_REFERENCE)) < mp.mpf(10) ** -28

    def test_domain(self):
        with pytest.raises(ValueError):
            sinc_integral(1)

    def test_zeta_mode_consumes_tail(self):
        # small n: the tail is folded into the integrand, nothing beyond
        assert mp.isinf(sinc_integral(3).cutoff_used)
        assert mp.isfinite(sinc_integral(12).cutoff_used)


class TestBesselClosedForms:
    def test_nu1_n2(self):
        est = bessel_integral(ONE, 2)
        with mp.workdps(60):
            assert abs(est.value - 4) <= est.abs_err_bound
        assert est.abs_err_bound <= mp.mpf(1e-20)

    def test_nu2_n2(self):
        est = bessel_integral(Nu(Fraction(2)), 2, cutoff_mult=8)
        with mp.workdps(60):
            assert abs(est.value - i_nu_at_2(Nu(Fraction(2)))) <= est.abs_err_bound

    @pytest.mark.parametrize("nu,mult", [
        (Fraction(3, 2), 24), (Fraction(5, 2), 4), (Fraction(7, 3), 6),
    ])
    def test_n2_general_closed_form(self, nu, mult):
        # I_nu(2) = 2^(3 nu - 1) Gamma(nu+1) Gamma(nu), any nu >= 1/2
        est = bessel_integral(Nu(nu), 2, cutoff_mult=mult)
        with mp.workdps(60):
            v = mp.mpf(nu.numerator) / nu.denominator
            want = mp.power(2, 3 * v - 1) * mp.gamma(v + 1) * mp.gamma(v)
            assert abs(est.value - want) <= est.abs_err_bound

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_integral(ONE, 1)
        with pytest.raises(ValueError):
            bessel_integral(ONE, 4, cutoff_mult=0.5)

    @pytest.mark.parametrize("cutoff_mult", [math.nan, math.inf])
    def test_non_finite_cutoff_rejected(self, cutoff_mult):
        # nan passes a bare "< 1" test and inf makes the zero search endless
        with pytest.raises(ValueError, match="finite"):
            bessel_integral(ONE, 5, cutoff_mult=cutoff_mult)

    @pytest.mark.parametrize("cutoff_mult", [CUTOFF_MULT_MAX + 0.5, 1e4, 1e8])
    def test_cutoff_mult_above_limit_rejected(self, cutoff_mult):
        # at 1e4 the search would walk thousands of zeros and run for minutes
        with pytest.raises(ValueError, match=f"at most {CUTOFF_MULT_MAX}"):
            bessel_integral(ONE, 5, cutoff_mult=cutoff_mult)

    def test_cutoff_mult_limit_accepted(self):
        est = bessel_integral(ONE, 40, cutoff_mult=CUTOFF_MULT_MAX)
        assert est.cutoff_used == 2 * CUTOFF_MULT_MAX

    def test_nu2_n2_default_cutoff(self):
        # the default cutoff is 24 * 2^2 Gamma(3) = 192; the kernel has no
        # evaluation cap, so the closed form 2^5 Gamma(3) Gamma(2) = 64 is met
        est = bessel_integral(Nu(Fraction(2)), 2)
        assert est.cutoff_used == 192
        with mp.workdps(60):
            assert abs(est.value - 64) <= est.abs_err_bound
        assert est.abs_err_bound <= mp.mpf(1e-20)


class TestCompletedTail:
    def test_nu2_default_cutoff_against_library(self):
        # the n = 2 tail at nu = 2, X = 192 sums J_{2+k}(192) far past the
        # order 192, where pref = (X/2)^{2+k}/Gamma(3+k) reaches 1e40; the
        # kernel's absolute error is magnified by pref, so this checks that
        # the tail gives the kernel the bits that pref will take away.
        # Reference: the same sum from mpmath's besselj at 30 more digits.
        nu = Nu(Fraction(2))
        wdps = Precision().working_dps
        with mp.workdps(wdps):
            X, amp = mp.mpf(192), mp.mpf(8)
            tail, err = _completed_tail_n2(nu, X, amp)
        with mp.workdps(wdps + 30):
            v = mp.mpf(2)
            pref = mp.power(X / 2, v) / mp.gamma(v + 1)
            S, k = mp.mpf(0), 0
            while k <= X or pref > mp.mpf(10) ** -(wdps + 40):
                jk = mp.besselj(v + k, X)
                S += jk * jk if k == 0 else 2 * jk * jk
                k += 1
                pref *= (X / 2) / (v + k)
            want = amp * amp * (1 - S) / (2 * v)
            assert abs(tail - want) <= err


class TestPipelinesAgree:
    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_sinc_equals_bessel_half(self, n):
        # nu = 1/2 reduces the Bessel pipeline to the sinc integral through
        # an entirely different quadrature route (Bessel-zero panels vs
        # period folding); agreement within combined bounds
        s = sinc_integral(n)
        b = bessel_integral(HALF, n)
        assert abs(s.value - b.value) <= s.abs_err_bound + b.abs_err_bound


class TestBesselJNormalized:
    def test_unit_at_zero(self):
        ev = bessel_j_normalized(ONE, 0)
        assert ev.value == 1

    @pytest.mark.parametrize("digits", [30, 50])
    @pytest.mark.parametrize("nu", LIBRARY_NUS, ids=str)
    def test_against_library(self, nu, digits):
        # the kernel sums its own Maclaurin series in fixed point; mpmath's
        # besselj at 40 more digits is an independent route to f_nu
        prec = Precision(decimal_digits=digits)
        rng = random.Random(f"{nu}/{digits}")
        for t in [0.0] + [rng.uniform(1e-6, 200) for _ in range(12)]:
            ev = bessel_j_normalized(Nu(nu), t, prec)
            with mp.workdps(prec.working_dps + 40):
                assert abs(ev.value - library_f_nu(nu, t)) <= ev.err_bound, (nu, t)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(HALF_INTEGER_FORMS)), st.floats(1e-6, 200))
    def test_against_closed_forms(self, nu, t):
        ev = bessel_j_normalized(Nu(nu), t)
        # the closed forms cancel like t^(2 nu - 1) near 0; extra digits absorb it
        with mp.workdps(60 + 5 * max(0, -int(math.log10(t)))):
            want = HALF_INTEGER_FORMS[nu](mp.mpf(t))
            assert abs(ev.value - want) <= ev.err_bound

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([Fraction(1), Fraction(7, 3)]), st.floats(0.1, 50))
    def test_against_maclaurin(self, nu, t):
        ev = bessel_j_normalized(Nu(nu), t)
        assert abs(ev.value - maclaurin_f_nu(nu, t)) <= ev.err_bound

    @pytest.mark.parametrize("t", [101, 150])
    def test_no_evaluation_cap(self, t):
        ev = bessel_j_normalized(ONE, t)
        assert abs(ev.value - maclaurin_f_nu(Fraction(1), t)) <= ev.err_bound

    def test_kernel_bounded(self):
        for k in range(1, 200):
            ev = bessel_j_normalized(HALF, k * 0.37)
            assert abs(ev.value) <= 1 + mp.mpf(10) ** -25

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_j_normalized(ONE, -0.5)


class TestBesselZeros:
    WDPS = Precision().working_dps

    def test_half_zeros_are_multiples_of_pi(self):
        with mp.workdps(self.WDPS):
            zeros = _bessel_zeros(Fraction(1, 2), mp.mpf(50), self.WDPS)
            assert len(zeros) == 15
            for k, z in enumerate(zeros, 1):
                assert abs(z - k * mp.pi) <= mp.mpf(10) ** (2 - self.WDPS) * z

    def test_three_halves_zeros_solve_tan_t_eq_t(self):
        # J_{3/2}(t) = 0 exactly when tan t = t: one root in each
        # (k pi, k pi + pi/2), k >= 1, so none is missed or doubled
        with mp.workdps(self.WDPS):
            zeros = _bessel_zeros(Fraction(3, 2), mp.mpf(50), self.WDPS)
        assert len(zeros) == 15
        with mp.workdps(self.WDPS + 20):
            for k, z in enumerate(zeros, 1):
                assert k * mp.pi < z < k * mp.pi + mp.pi / 2
                newton_step = (mp.sin(z) - z * mp.cos(z)) / (z * mp.sin(z))
                assert abs(newton_step) <= mp.mpf(10) ** (2 - self.WDPS) * z

    @staticmethod
    def library_zeros(nu: Fraction, cutoff, dps: int) -> list:
        """mp.besseljzero's zeros of J_nu below cutoff(first zero), found at
        dps + 20 digits and rounded to dps."""
        with mp.workdps(dps + 20):
            v = mp.mpf(nu.numerator) / nu.denominator
            zeros = [mp.besseljzero(v, 1)]
            X = cutoff(zeros[0])
            while zeros[-1] < X:
                zeros.append(mp.besseljzero(v, len(zeros) + 1))
        with mp.workdps(dps):
            return [+z for z in zeros[:-1]]

    @pytest.mark.parametrize("nu", [Fraction(i, 4) for i in range(2, 81)], ids=str)
    def test_against_library(self, nu):
        # every zero below j_{nu,1} + 40, for nu = 1/2, 3/4, ..., 20, bit for bit
        want = self.library_zeros(nu, lambda z1: z1 + 40, self.WDPS)
        with mp.workdps(self.WDPS):
            X = +(want[0] + 40)
            assert _bessel_zeros(nu, X, self.WDPS) == tuple(want)

    def test_seven_thirds_readme_cutoff(self):
        # the zeros of the README line, X = 6 * 2^(7/3) Gamma(10/3); at k = 3
        # and k = 24 besseljzero at the working precision itself is 1 ulp off
        nu = Nu(Fraction(7, 3))
        with mp.workdps(self.WDPS):
            X = 6.0 * amplitude(nu)
            got = _bessel_zeros(nu.value, X, self.WDPS)
        assert len(got) == 25
        assert got == tuple(self.library_zeros(nu.value, lambda z1: X, self.WDPS))

    def test_no_zero_below_cutoff(self):
        # nu = 1/2, cutoff_mult = 1: X = sqrt(pi/2) < pi = j_{1/2,1}, so the
        # integral is one piece; at n = 2 it is I(2) = pi / sqrt(2)
        with mp.workdps(self.WDPS):
            assert _bessel_zeros(HALF.value, +mp.sqrt(mp.pi / 2), self.WDPS) == ()
        est = bessel_integral(HALF, 2, cutoff_mult=1)
        assert est.pieces == 1
        with mp.workdps(60):
            assert abs(est.value - mp.pi / mp.sqrt(2)) <= est.abs_err_bound


def _drop(i, count=1):
    return lambda zs: zs[:i] + zs[i + count:]


class TestCheckZeros:
    """_check_zeros must refuse any zero set that is not the first zeros of
    J_nu up to the first one at or beyond X."""

    WDPS = Precision().working_dps
    # corruption -> the check that must catch it; each keeps the zero at or
    # beyond X last unless it drops that one.  Dropping two neighbours keeps
    # the signs alternating, so only the gap or the first-zero bound sees it.
    CORRUPTIONS = {
        "first-removed": (_drop(0), "does not alternate"),
        "first-two-removed": (_drop(0, 2), "may lie below"),
        "middle-removed": (_drop(3), "does not alternate"),
        "middle-two-removed": (_drop(3, 2), "is not in"),
        "beyond-removed": (lambda zs: zs[:-1], "must end"),
        "duplicated": (lambda zs: zs[:4] + zs[3:], "does not alternate"),
        "moved-off": (lambda zs: zs[:3] + [zs[3] + mp.mpf(1) / 2] + zs[4:], "no sign change"),
        "moved-256-ulps": (lambda zs: zs[:3] + [zs[3] * (1 + mp.ldexp(1, 8 - mp.mp.prec))] + zs[4:],
                           "no sign change"),
    }

    def points(self, nu, zs):
        return [(z, *_f_slope(nu, z, mp.mp.prec + 40)) for z in zs]

    def zeros(self, nu, X):
        """The zeros below X and the first one at or beyond it."""
        zs = _bessel_zeros(nu, X + 10, self.WDPS)
        below = [z for z in zs if z < X]
        return below + [zs[len(below)]]

    @pytest.mark.parametrize("nu", [Fraction(1), Fraction(7)], ids=str)
    def test_complete_set_passes(self, nu):
        with mp.workdps(self.WDPS):
            X = mp.mpf(40)
            _check_zeros(nu, X, self.points(nu, self.zeros(nu, X)))

    @pytest.mark.parametrize("corrupt", list(CORRUPTIONS))
    @pytest.mark.parametrize("nu", [Fraction(1), Fraction(7)], ids=str)
    def test_corrupted_set_raises(self, nu, corrupt):
        with mp.workdps(self.WDPS):
            X = mp.mpf(40)
            change, why = self.CORRUPTIONS[corrupt]
            zs = change(self.zeros(nu, X))
            with pytest.raises(ArithmeticError, match=f"zeros of J_{nu} .*{why}"):
                _check_zeros(nu, X, self.points(nu, zs))


class TestMemoTransparency:
    # __wrapped__ is the uncached computation behind the lru_cache memo
    def test_sinc_bitwise_identical(self):
        _sinc_integral.cache_clear()
        first = sinc_integral(7)
        memo = sinc_integral(7)
        fresh = _sinc_integral.__wrapped__(7, Precision())
        assert memo is first
        assert repr(first) == repr(memo) == repr(fresh)

    def test_bessel_bitwise_identical(self):
        _bessel_integral.cache_clear()
        first = bessel_integral(ONE, 5)
        memo = bessel_integral(ONE, 5)
        fresh = _bessel_integral.__wrapped__(ONE, 5, Precision(), 24.0)
        assert memo is first
        assert repr(first) == repr(memo) == repr(fresh)

    def test_deterministic_across_reset(self):
        a = sinc_integral(9)
        _sinc_integral.cache_clear()
        b = sinc_integral(9)
        assert repr(a) == repr(b)

    def test_key_is_normalised(self):
        # a default argument, spelled out or left off, is one memo entry
        assert sinc_integral(7) is sinc_integral(7, Precision())
        first = bessel_integral(ONE, 5)
        assert bessel_integral(ONE, 5, Precision(), 24) is first
        assert bessel_integral(ONE, 5, cutoff_mult=24.0) is first


class TestCutoffConsistency:
    def test_doubling_within_previous_bound(self):
        lo = bessel_integral(ONE, 6, cutoff_mult=12)
        hi = bessel_integral(ONE, 6, cutoff_mult=24)
        assert abs(hi.value - lo.value) <= lo.abs_err_bound


class TestPrecisionFailure:
    def test_exhausted_ladder_carries_estimate(self):
        with pytest.raises(PrecisionFailure) as exc:
            sinc_integral(97, Precision(decimal_digits=40, max_refinements=0))
        est = exc.value.estimate
        assert isinstance(est, QuadEstimate)
        assert est.abs_err_bound > mp.mpf(10) ** -30


class TestDecayFit:
    def test_slope_and_coefficient_m0(self):
        fit = remainder_decay_fit(0, (50, 100, 200, 400))
        assert isinstance(fit, DecayFit)
        assert fit.used_n == (50, 100, 200, 400)
        assert fit.dropped_n == ()
        assert abs(fit.slope + 1) < 0.15
        with mp.workdps(30):
            want = float(-mp.sqrt(3 * mp.pi / 2) * 3 / 20)
            assert math.isclose(fit.signed_coeff, want, rel_tol=0.05)

    def test_remainders_are_the_fitted_points(self):
        prec = Precision(decimal_digits=50)
        fit = remainder_decay_fit(2, (200, 50, 100, 400), prec=prec)
        assert fit.used_n == (50, 100, 200, 400)
        assert len(fit.remainders) == len(fit.used_n)
        expansion = sinc_expansion(2)
        with mp.workdps(prec.working_dps):
            for n, r in zip(fit.used_n, fit.remainders):
                want = sinc_integral(n, prec).value - mp.sqrt(3 * mp.pi / 2) * expansion.partial_sum_mpf(n)
                assert r == want, n
                # the fit's log line runs through these very points
                assert math.isclose(math.log10(abs(r)), math.log10(abs(fit.signed_coeff))
                                    + fit.slope * math.log10(n) + fit.residuals[fit.used_n.index(n)],
                                    rel_tol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            remainder_decay_fit(-1, (50, 100, 200))

    def test_all_points_dropped(self):
        # at m = 12 the remainder sits near 1e-42, below the error budget
        # the 30-digit integrals carry out there, so no point is usable
        with pytest.raises(ValueError, match="insufficient data"):
            remainder_decay_fit(12, (2000, 3000, 4000),
                                prec=Precision(decimal_digits=30))

    def test_partial_drop(self):
        # the n = 4000 remainder (~7e-24) sinks under that point's error
        # budget at 30 digits while the low-n points stay clean
        fit = remainder_decay_fit(5, (100, 200, 400, 4000),
                                  prec=Precision(decimal_digits=30))
        assert fit.dropped_n == (4000,)
        assert fit.used_n == (100, 200, 400)
        assert len(fit.remainders) == 3


class TestGammaSeriesConsistency:
    def test_nu_seven_thirds_n8(self):
        nu = Nu(Fraction(7, 3))
        est = bessel_integral(nu, 8, cutoff_mult=6)
        diffs = []
        for m in range(5):
            e = bessel_expansion(nu, m)
            diffs.append(abs(float(est.value - e.partial_sum_mpf(8, digits=30))))
        # each added order tightens the agreement; order 4 lands close
        assert all(a > b for a, b in zip(diffs, diffs[1:]))
        assert diffs[-1] < 1e-3 * float(est.value)
