"""Numerical side: integrals, error-bound honesty, decay fits, failure modes."""

import json
import math
import operator
import random
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.calculus.quadrature import GaussLegendre
from mpmath.libmp import gammazeta, libmpf
from mpmath.libmp import (from_man_exp, from_rational, fzero, mpf_add, mpf_le, mpf_mul, mpf_pow_int, mpf_shift,
                          mpf_sub, round_ceiling, round_floor, round_nearest)

import ballint.legendre as legendre
import ballint.quadrature as quadrature
from ballint.fixedpoint import ERROR_BITS, PowerBase, power_base, power_sum, round_bits, round_total
from ballint.bessel import Nu, amplitude, bessel_expansion, c0_value, i_nu_at_2, i_nu_floor
from ballint.rationals import to_mpf
from ballint.sinc import sinc_expansion
from ballint.quadrature import (
    BesselEval,
    DecayFit,
    Precision,
    PrecisionFailure,
    QuadEstimate,
    _FAMILY,
    _MEMO,
    _bessel_estimates,
    _bessel_zeros,
    _check_zeros,
    _completed_tail_n2,
    _direct_nodes,
    _f_nu,
    _f_slope,
    _hurwitz_zetas,
    _legendre_rule,
    _sinc_estimates,
    _sinc_mode,
    _taylor_series,
    bessel_integral,
    bessel_integrals,
    bessel_j_normalized,
    remainder_decay_fit,
    sinc_integral,
    sinc_integrals,
)
from test_acceptance import polya_density

HALF = Nu(Fraction(1, 2))
ONE = Nu(Fraction(1))

# frozen 30-digit regression pin for n = 3: the sinc engine's own value,
# not an independent one.  The Bessel pipeline at nu = 1/2 only brackets it
# (4.0e-4 away with bound 6.7e-3 at defaults, 5.7e-5 away with bound 1.5e-3
# at cutoff_mult=64).  It sits 0.053 above the signed integral
# sqrt(3) int (sin t/t)^3 = 3 sqrt(3) pi/8, as |sin t/t|^3 must.
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


@lru_cache(maxsize=None)
def reference_rule(order: int, dps: int) -> tuple:
    """Gauss-Legendre (node, weight) pairs built from scratch at one precision:
    the oracle for _legendre_rule, which must match it bit for bit.

    Newton's method on P_order runs in Python integers in fixed point at
    wp = prec + 32 bits.  Each positive root starts from the float
    cos(pi (i - 1/4) / (order + 1/2)) and stops once |dx| < 2^-(prec+8).
    The weight 2 / ((1 - x^2) P'(x)^2) is taken in mpf at wp bits from one
    more recurrence at the converged node; nodes and weights are then
    rounded to prec.
    """
    with mp.workdps(dps):
        prec = mp.mp.prec
        wp = prec + 32

        def legendre(x):  # (P_{order-1}(x), P_order(x)), x and both values scaled by 2^wp
            p0, p1 = 1 << wp, x
            for j in range(2, order + 1):
                p0, p1 = p1, (((2 * j - 1) * x * p1 >> wp) - (j - 1) * p0) // j
            return p0, p1

        half = []
        for i in range(1, order // 2 + 1):
            x = int(math.ldexp(math.cos(math.pi * (i - 0.25) / (order + 0.5)), 53)) << (wp - 53)
            for _ in range(100):
                p0, p1 = legendre(x)
                dx = p1 * ((x * x >> wp) - (1 << wp)) // (order * ((x * p1 >> wp) - p0))
                x -= dx
                if abs(dx) < 1 << (wp - prec - 8):
                    break
            with mp.workprec(wp):
                xm, p0m, p1m = (mp.mpf((v, -wp)) for v in (x, *legendre(x)))
                dp = order * (xm * p1m - p0m) / (xm * xm - 1)
                w = 2 / ((1 - xm * xm) * dp * dp)
            half.append((+xm, +w))
        return tuple((-x, w) for x, w in reversed(half)) + tuple(half)


def rule_bits(rule: tuple) -> tuple:
    return tuple((x._mpf_, w._mpf_) for x, w in rule)


def value(m: int, k: int) -> mp.mpf:
    """m 2^-k as an exact mpf."""
    return mp.make_mpf(from_man_exp(m, -k))


def reference_ladder(pieces, uses, rungs, half_targets, nodes, dps):
    """_ladder as a plain mpf sum: the oracle the fixed-point ladder must match
    bit for bit.

    Node values come from each piece's own nodes function, as _ladder reads
    them: integers on the piece's scale, rounded to the ambient precision
    prec, at every rung; the node values held in nodes are ignored.  Every
    term w g h^n, piece sum and total is taken at prec + 300 bits, and the
    total is rounded once to prec.
    """
    out = {}
    prev = dict.fromkeys(uses)
    r = 0
    while prev:
        rule = _legendre_rule(16 * 2**r, dps)
        parts = {n: [] for n in prev}
        for i, (a, b, evaluate) in enumerate(pieces):
            users = [n for n in prev if i in uses[n]]
            if not users:
                continue
            rad = (b - a) / 2
            hs, gs, k = evaluate(rule)
            values = [(w, value(h, k), value(g, k)) for (_, w), h, g in zip(rule, hs, gs)]
            with mp.extraprec(300):
                for n in users:
                    parts[n].append(rad * mp.fsum(w * g * h**n for w, h, g in values))
        for n, terms in parts.items():
            with mp.extraprec(300):
                total = mp.fsum(terms)
            total = +total
            diff = mp.inf if prev[n] is None else abs(total - prev[n])
            if diff < half_targets[n] or r == rungs:
                out[n] = total, diff
                del prev[n]
            else:
                prev[n] = total
        r += 1
    return out


class TestPrecision:
    def test_defaults(self):
        p = Precision()
        assert p == Precision(target_digits=20)
        assert p.working_dps == 45

    def test_validation(self):
        with pytest.raises(ValueError, match="target_digits must be at least 5"):
            Precision(target_digits=4)
        assert Precision(target_digits=5).working_dps == 30

    @pytest.mark.parametrize("digits", [31.0, 30.5])
    def test_float_target_refused(self, digits, doublings):
        # a float target reached the failure message's integer format, which
        # raised ValueError("Unknown format code 'd'") in place of PrecisionFailure
        with pytest.raises(TypeError):
            Precision(target_digits=digits)
        doublings(1)
        with pytest.raises(PrecisionFailure, match="target 1e-31 not reached"):
            sinc_integral(97, Precision(target_digits=31))

    def test_target_past_the_float_range(self):
        # 10^-330 is 0.0 as a float, whose log raised a math domain error: held
        # as its exponent, the target still picks a sinc mode (the Bessel ladder
        # and the failure message at this target: test_cli.py)
        prec = Precision(target_digits=330)
        assert _sinc_mode(5, prec) == ("zeta", quadrature.ZETA_LOBES)
        assert _sinc_mode(10**6, prec) == ("truncate", 2)


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


def count_pairs(monkeypatch) -> list:
    """Record the order of every _legendre_pair call from now on."""
    calls = []
    pair = legendre._legendre_pair

    def counted(order, x, wp):
        calls.append(order)
        return pair(order, x, wp)

    monkeypatch.setattr(legendre, "_legendre_pair", counted)
    return calls


def check_both_orders(grid) -> None:
    """Every (order, dps) of grid gives reference_rule's rule bit for bit,
    from a cleared cache asked in rising precision and again in falling
    precision: no rule depends on what was asked before."""
    want = {key: rule_bits(reference_rule(*key)) for key in grid}
    ascending = sorted(grid, key=lambda key: key[1])
    for keys in (ascending, ascending[::-1]):
        _legendre_rule.cache_clear()
        for order, dps in keys:
            assert rule_bits(_legendre_rule(order, dps)) == want[order, dps], (order, dps)


SHIPPED_TABLE = legendre._legendre_table


class TestLegendreStore:
    """With the shipped table off every order is searched for, at each
    rule's own precision; every rule must be reference_rule's."""

    GRID = [(order, dps) for dps in (45, 65, 75, 95) for order in (16, 32, 64, 128, 256)] + [(512, 45)]

    @pytest.fixture(autouse=True)
    def no_table(self, monkeypatch):
        monkeypatch.setattr(legendre, "_legendre_table", dict)
        _legendre_rule.cache_clear()
        yield
        _legendre_rule.cache_clear()

    def test_bit_for_bit_with_reference_in_both_orders(self):
        check_both_orders(self.GRID)

    def test_small_widening_steps_match_reference(self, monkeypatch):
        # a table entry refined by a few digits (77 and 80) stops after one
        # Halley step, so the weight rests on the P'' dx update of P'
        monkeypatch.setattr(legendre, "_legendre_table", SHIPPED_TABLE)
        for order in (64, 256):
            for dps in (77, 80, 85, 90):
                assert rule_bits(_legendre_rule(order, dps)) == rule_bits(reference_rule(order, dps)), (order, dps)

    def test_recurrences_per_root(self, monkeypatch):
        calls = count_pairs(monkeypatch)
        # Halley from Tricomi's start: about three a root; Newton's step takes four
        for dps in (75, 45):
            calls.clear()
            _legendre_rule(256, dps)
            assert len(calls) <= 3.25 * 128, dps

    def test_root_found_twice_is_refused(self, monkeypatch):
        start = legendre._legendre_start
        # the second root starts where the first does, so Halley finds the first twice
        monkeypatch.setattr(legendre, "_legendre_start", lambda order, k: start(order, 1 if k == 2 else k))
        with pytest.raises(ArithmeticError, match="not 8 distinct points"):
            _legendre_rule(16, 45)


class TestLegendreTable:
    """Orders 16 to 256 start from data/legendre_roots.txt, at 75 digits:
    the rules must be the ones the search gives, bit for bit."""

    GRID = [key for key in TestLegendreStore.GRID if key[0] <= 256]

    @pytest.fixture(autouse=True)
    def cleared_rules(self):
        _legendre_rule.cache_clear()
        yield
        _legendre_rule.cache_clear()

    def test_bit_for_bit_with_reference_in_both_orders(self):
        check_both_orders(self.GRID)

    def test_no_recurrence_up_to_75_digits(self, monkeypatch):
        calls = count_pairs(monkeypatch)
        for dps in (45, 65, 75):
            for order in (16, 32, 64, 128, 256):
                _legendre_rule(order, dps)
        assert calls == []

    def test_wider_request_refines_at_two_recurrences_a_root(self, monkeypatch):
        calls = count_pairs(monkeypatch)
        _legendre_rule(256, 95)
        assert len(calls) == 2 * 128

    def test_wider_rule_first_leaves_a_narrower_one_as_it_was(self, monkeypatch):
        # 85 digits refines from the table, not from the 95-digit roots asked first
        _legendre_rule(256, 95)
        calls = count_pairs(monkeypatch)
        assert rule_bits(_legendre_rule(256, 85)) == rule_bits(reference_rule(256, 85))
        assert len(calls) == 2 * 128

    def test_shipped_lines_equal_a_fresh_search(self):
        with mp.workdps(75):
            prec = mp.mp.prec
        fresh = {order: legendre._legendre_roots(order, prec + 32) for order in (16, 32, 64, 128, 256)}
        assert fresh == legendre._legendre_table.__wrapped__()

    @pytest.mark.parametrize("damage, match", [
        (lambda roots, slopes: ((roots[1], roots[0], *roots[2:]), slopes), "not 8 distinct points"),
        (lambda roots, slopes: (roots[:3] + roots[4:], slopes), "not 8 distinct points"),
        (lambda roots, slopes: (roots, (slopes[1], slopes[0], *slopes[2:])), "alternating in sign"),
    ], ids=["roots-swapped", "root-missing", "slopes-swapped"])
    def test_damaged_entry_is_refused(self, monkeypatch, damage, match):
        wp, roots, slopes = legendre._legendre_table()[16]
        monkeypatch.setattr(legendre, "_legendre_table", lambda: {16: (wp, *damage(roots, slopes))})
        with pytest.raises(ArithmeticError, match=match):
            _legendre_rule(16, 45)

    @pytest.mark.parametrize("read, error, match", [
        (lambda text: text("legendre_roots.txt").rsplit("\n", 2)[0], ValueError, "holds orders"),
        (lambda text: text("legendre_roots.txt").rstrip() + " zz", ValueError, "invalid literal"),
        (lambda text: text("legendre_roots.tx"), FileNotFoundError, "legendre_roots.tx"),
        # a second order-16 line, here the shipped one again, would replace the first
        (lambda text: (t := text("legendre_roots.txt")) + t.splitlines()[2] + "\n", ValueError, "order 16 twice"),
    ], ids=["order-missing", "not-hex", "file-missing", "order-twice"])
    def test_bad_file_raises_and_nothing_is_searched(self, monkeypatch, read, error, match):
        text = legendre._data_text
        monkeypatch.setattr(legendre, "_data_text", lambda name: read(text))
        calls = count_pairs(monkeypatch)
        legendre._legendre_table.cache_clear()
        try:
            with pytest.raises(error, match=match):
                _legendre_rule(16, 45)
        finally:
            legendre._legendre_table.cache_clear()
        assert calls == []


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

    @pytest.mark.parametrize("digits, top", [(30, 11), (40, 16), (50, 22), (60, 27)])
    def test_polya_at_every_even_zeta_mode_n(self, digits, top):
        # I(n) = pi sqrt(n) p_n(0) exactly for even n; the zeta panel carries
        # every lobe from ZETA_LOBES on
        prec = Precision(target_digits=digits - 10)
        ns = [n for n in range(2, 41) if _sinc_mode(n, prec)[0] == "zeta"]
        assert ns == list(range(2, top + 1))
        even = ns[::2]
        for n, est in zip(even, sinc_integrals(even, prec)):
            p = polya_density(n)
            with mp.workdps(digits + 40):
                exact = mp.pi * mp.sqrt(n) * p.numerator / p.denominator
                assert abs(est.value - exact) <= est.abs_err_bound, n

    def test_n10_within_1e40_of_polya(self):
        # n = 10 takes the zeta panel; 52 truncated lobes left it 1.0e-21 off
        est = sinc_integral(10)
        p = polya_density(10)
        with mp.workdps(80):
            assert abs(est.value - mp.pi * mp.sqrt(10) * p.numerator / p.denominator) <= mp.mpf(10) ** -40

    def test_n11_against_fifty_digits(self):
        est = sinc_integral(11)
        ref = sinc_integral(11, Precision(target_digits=40))
        with mp.workdps(80):
            assert abs(est.value - ref.value) <= est.abs_err_bound


class TestHurwitzZetas:
    # mp.zeta(n, a) near a = 24 loses about n digits (24 at n = 22 and 45
    # digits), so the reference runs at 40 more digits
    @pytest.mark.parametrize("dps", [45, 65, 85])
    def test_against_mp_zeta(self, dps):
        ns = range(2, 28)
        with mp.workdps(dps):
            prec = mp.mp.prec
            for i in range(9):
                a = 24 + mp.mpf(i) / 8 + (mp.sqrt(2) / 1000 if 0 < i < 8 else 0)
                got = _hurwitz_zetas(ns, a)
                assert list(got) == list(ns)
                for n in ns:
                    with mp.extradps(40):
                        ref = mp.zeta(n, a)
                        ulp = mp.ldexp(1, mp.mag(ref) - prec)
                        # the stated error, 9/16 ulp, so within one ulp
                        assert abs(got[n] - ref) <= ulp * 9 / 16, (n, a)


def fraction(x: mp.mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


def ulp(x: mp.mpf, prec: int) -> mp.mpf:
    """The unit in the last place of x in a prec-bit format."""
    _, _, exp, bc = x._mpf_
    return mp.ldexp(1, exp + bc - prec)


class TestSincNodes:
    # lobe j's node for a rule node x is t = (pi/2)(2j+1+x), taken exactly: its
    # value is |sin t|/t at that t, rounded once, and the panel's zeta argument
    # is M + (1+x)/2 exactly, M = ZETA_LOBES; a rounded t moves |sin t| near
    # t = j pi by far more than an ulp
    @staticmethod
    def ladder_inputs(monkeypatch, ns, prec) -> dict:
        """The pieces and the total of each n that _sinc_estimates(ns, prec)
        hands to and gets from _ladder, and the largest rule order it used."""
        seen = {"orders": []}
        ladder, rule = quadrature._ladder, quadrature._legendre_rule

        def spy(pieces, *args):
            out = ladder(pieces, *args)
            seen["pieces"], seen["totals"] = pieces, {n: total for n, (total, _) in out.items()}
            return out

        monkeypatch.setattr(quadrature, "_ladder", spy)
        monkeypatch.setattr(quadrature, "_legendre_rule", lambda order, dps: seen["orders"].append(order) or rule(order, dps))
        _sinc_estimates(ns, prec)
        monkeypatch.undo()
        return seen

    @pytest.mark.parametrize("order, digits", [(16, 30), (64, 30), (256, 60)])
    def test_lobe_nodes_round_the_exact_node_value(self, monkeypatch, order, digits):
        prec = Precision(target_digits=digits - 10)
        pieces = self.ladder_inputs(monkeypatch, [3], prec)["pieces"]
        assert len(pieces) == quadrature.ZETA_LOBES + 1
        dps = prec.working_dps
        rule = _legendre_rule(order, dps)
        with mp.workdps(dps):
            bits = mp.mp.prec
            for j in (0, 1, 23):
                hs, gs, k = pieces[j][2](rule)
                assert gs == [1 << k] * order
                for (x, _), h in zip(rule, hs):
                    h = value(h, k)
                    with mp.extradps(60):
                        t = mp.pi / 2 * (2 * j + 1 + x)
                        ref = abs(mp.sin(t)) / t
                        assert abs(h - ref) <= ulp(h, bits) / 2 + mp.ldexp(ref, -bits - 10), (j, x)

    @pytest.mark.parametrize("order", [16, 64])
    def test_panel_zeta_argument_is_exact(self, monkeypatch, order):
        prec = Precision()
        pieces = self.ladder_inputs(monkeypatch, [2, 3], prec)["pieces"]
        rule = _legendre_rule(order, prec.working_dps)
        asked = []
        real = quadrature._hurwitz_zetas
        monkeypatch.setattr(quadrature, "_hurwitz_zetas", lambda ns, a: asked.append(a) or real(ns, a))
        with mp.workdps(prec.working_dps):
            hs, _, k = pieces[-1][2](rule)
            again, _, again_k = pieces[-2][2](rule)  # the other panel reads the same rung
        assert [fraction(a) for a in asked] == [quadrature.ZETA_LOBES + (1 + fraction(x)) / 2 for x, _ in rule]
        assert [value(h, again_k) for h in again] == [value(h, k) for h in hs]
        with mp.workdps(prec.working_dps):
            bits = mp.mp.prec
            for (x, _), h in zip(rule, hs):
                h = value(h, k)
                with mp.extradps(60):
                    ref = mp.cos(mp.pi * x / 2)
                    assert abs(h - ref) <= ulp(h, bits) / 2 + mp.ldexp(ref, -bits - 10), x

    def test_sweep_total_within_an_ulp_of_the_exact_gauss_sum(self, monkeypatch):
        # the Gauss sum of the exact node values, with the ladder's weights w rad:
        # only the node values' roundings, amplified n times, set the two apart
        n, prec = 35, Precision()
        seen = self.ladder_inputs(monkeypatch, [n], prec)
        dps = prec.working_dps
        rule = _legendre_rule(max(seen["orders"]), dps)
        total = seen["totals"][n]
        with mp.workdps(dps):
            bits = mp.mp.prec
            rads = [(b - a) / 2 for a, b, _ in seen["pieces"]]
            with mp.extradps(60):
                exact = mp.fsum(rad * w * (abs(mp.sin(t)) / t) ** n
                                for j, rad in enumerate(rads) for x, w in rule
                                for t in [mp.pi / 2 * (2 * j + 1 + x)])
                assert abs(total - exact) <= ulp(total, bits)


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
        # every other nu = k/12 from 1/2 to 17/6, at the default cutoff
        *((Fraction(k, 12), 24) for k in range(6, 35) if k != 18),
    ])
    def test_n2_general_closed_form(self, nu, mult):
        # I_nu(2) = 2^(3 nu - 1) Gamma(nu+1) Gamma(nu), any nu >= 1/2, from one
        # piece and the exact tail, within a bound that meets the target
        est = bessel_integral(Nu(nu), 2, cutoff_mult=mult)
        assert est.pieces == 1
        with mp.workdps(60):
            v = mp.mpf(nu.numerator) / nu.denominator
            want = mp.power(2, 3 * v - 1) * mp.gamma(v + 1) * mp.gamma(v)
            assert abs(est.value - want) <= est.abs_err_bound <= mp.mpf(1e-20)

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

    @pytest.mark.parametrize("cutoff_mult, message", [
        (math.nan, "cutoff_mult = nan must be finite and at least 1"),
        (math.inf, "cutoff_mult = inf must be finite and at least 1"),
        (0.5, "cutoff_mult = 0.5 must be finite and at least 1"),
        (1e4, "the cutoff X = cutoff_mult 2^nu Gamma(nu+1) = 20000.0 at nu = 1 is above X_MAX = 1024")])
    def test_cutoff_refused_on_every_call(self, monkeypatch, cutoff_mult, message):
        # (amp, X) comes from a memo, which stores no exception: a refused cutoff
        # raises cold and warm alike, each time before the estimates' memo is read
        monkeypatch.setattr(quadrature, "_memoised", lambda *args: pytest.fail("memo read"))
        quadrature._cutoff.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError) as refused:
                bessel_integral(ONE, 5, cutoff_mult=cutoff_mult)
            assert str(refused.value) == message

    @pytest.mark.parametrize("cutoff_mult", [quadrature.X_MAX / 2 + 0.5, 1e4, 1e8])
    def test_cutoff_mult_above_limit_rejected(self, cutoff_mult):
        # at nu = 1, X = 2 cutoff_mult; at 1e4 the search would walk thousands
        # of zeros and run for minutes
        with pytest.raises(ValueError, match="is above X_MAX = 1024"):
            bessel_integral(ONE, 5, cutoff_mult=cutoff_mult)

    def test_cutoff_above_x_max_rejected(self, monkeypatch):
        # X = cutoff_mult 2^nu Gamma(nu+1) grows factorially with nu; the refusal
        # comes before the zero search or any kernel call
        def no_kernel(*args):
            raise AssertionError("kernel called")
        monkeypatch.setattr(quadrature, "_f_nu", no_kernel)
        with pytest.raises(ValueError, match=r"X = cutoff_mult 2\^nu Gamma\(nu\+1\) = 46080.0 at nu = 6 "
                                             r"is above X_MAX = 1024"):
            bessel_integral(Nu(Fraction(6)), 5, cutoff_mult=1)
        # nu = 3 at the default multiplier 24: X = 1152
        with pytest.raises(ValueError, match="X_MAX"):
            bessel_integrals(Nu(Fraction(3)), [5, 6])
        assert quadrature.X_MAX == 1024

    def test_cutoff_mult_limit_accepted(self, monkeypatch):
        # X_MAX alone bounds cutoff_mult: at nu = 1, X = 2 cutoff_mult meets it
        # at 512, and at nu = 1/2, X = sqrt(pi/2) cutoff_mult is 1002.65 at 800
        # and 1027.72 at 820.  _bessel_estimates records its cutoff X and
        # returns a stand-in, so no zero search runs; the stand-ins go to a memo
        # of their own
        asked = []
        monkeypatch.setattr(quadrature, "_bessel_estimates",
                            lambda nu, ns, prec, X, amp: asked.append(mp.nstr(X, 6)) or dict.fromkeys(ns, asked))
        monkeypatch.setattr(quadrature, "_MEMO", {})
        bessel_integral(ONE, 40, cutoff_mult=quadrature.X_MAX / 2)
        bessel_integral(HALF, 5, cutoff_mult=800)
        with pytest.raises(ValueError, match=r"X = cutoff_mult 2\^nu Gamma\(nu\+1\) = 1027.72 at nu = 1/2 "
                                             r"is above X_MAX = 1024"):
            bessel_integral(HALF, 5, cutoff_mult=820)
        assert asked == ["1024.0", "1002.65"]

    def test_nu2_n2_default_cutoff(self):
        # n = 2 integrates up to j_{2,1} = 5.1356..., well inside the default
        # cutoff 24 * 2^2 Gamma(3) = 192, and completes the rest exactly; the
        # closed form 2^5 Gamma(3) Gamma(2) = 64 is met
        wdps = Precision().working_dps
        est = bessel_integral(Nu(Fraction(2)), 2)
        with mp.workdps(wdps + 20):
            j1 = mp.besseljzero(2, 1)
        with mp.workdps(wdps):
            assert est.cutoff_used == +j1
        assert est.pieces == 1
        with mp.workdps(60):
            assert abs(est.value - 64) <= est.abs_err_bound <= mp.mpf(1e-20)
        # the kernel has no evaluation cap: at t = 192 it meets mpmath's besselj
        # at 30 more digits within its stated bound
        kernel = bessel_j_normalized(Nu(Fraction(2)), 192)
        with mp.workdps(wdps + 30):
            want = 8 * mp.besselj(2, 192) / mp.mpf(192) ** 2
            assert abs(kernel.value - want) <= kernel.err_bound

    @pytest.mark.parametrize("nu", [Fraction(1, 2), Fraction(1), Fraction(7, 3)], ids=str)
    def test_n2_independent_of_cutoff(self, nu):
        # once X >= j_{nu,1}, n = 2 integrates [0, j_{nu,1}] and adds the exact
        # tail from there, whatever the cutoff and whatever batch it is in
        _MEMO.clear()
        ests = [bessel_integral(Nu(nu), 2, cutoff_mult=mult) for mult in (6, 24, 64)]
        ests.append(bessel_integrals(Nu(nu), [3, 2], cutoff_mult=6)[1])
        assert len({bits(e) for e in ests}) == 1
        with mp.workdps(Precision().working_dps):
            assert ests[0].cutoff_used == _bessel_zeros(nu, mp.mpf(0), Precision().working_dps)[0]

    @pytest.mark.parametrize("nu", [Fraction(1), Fraction(3, 2)], ids=str)
    def test_n2_in_a_batch_as_alone(self, nu):
        # the batch searches every zero below X and integrates every piece for
        # n = 5; n = 2 takes only the first, as it does alone
        _MEMO.clear()
        batch = bessel_integrals(Nu(nu), [5, 2])
        _MEMO.clear()
        alone = bessel_integral(Nu(nu), 2)
        assert bits(batch[1]) == bits(alone)
        assert alone.pieces == 1 < batch[0].pieces


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
        prec = Precision(target_digits=digits - 10)
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

    @pytest.mark.parametrize("t", [mp.inf, mp.nan, -mp.inf], ids=str)
    def test_non_finite_t_refused(self, t):
        # the kernel floors its argument to fixed point, which reads inf and nan as 0
        with pytest.raises(ValueError, match="finite"):
            bessel_j_normalized(ONE, t)


def direct_pieces(nu: Fraction, cutoff_mult: float, dps: int) -> list:
    """[(t0, rad)] of every Bessel piece past the first up to the cutoff, as
    _bessel_estimates forms them at dps digits."""
    X = cutoff_mult * amplitude(Nu(nu))
    bounds = [*_bessel_zeros(nu, X, dps)[:-1], X]
    return [((a + b) / 2, (b - a) / 2) for a, b in zip(bounds, bounds[1:])]


def exact_node(t0, rad, x):
    return mp.fadd(t0, mp.fmul(rad, x, exact=True), exact=True)


@st.composite
def rounding_cases(draw):
    """(m, prec): a random mantissa of up to prec + 200 bits, an exact
    half-way tie q + 1/2 at prec bits, followed by up to 99 zeros, or one of
    fewer than prec bits."""
    prec = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["random", "tie", "short"]))
    if kind == "random":
        return draw(st.integers(0, 2 ** (prec + 200))), prec
    if kind == "tie":
        q = draw(st.integers(2 ** (prec - 1), 2**prec - 1))
        return (2 * q + 1) << draw(st.integers(0, 99)), prec
    return draw(st.integers(0, 2 ** (prec - 1))), prec


class TestRoundBits:
    # _direct_nodes rounds each Horner sum half-even to prec bits in integers
    # (round_bits), as from_man_exp rounds a mantissa, whatever its exponent
    @settings(max_examples=300, deadline=None)
    @given(rounding_cases(), st.integers(-400, 400))
    @example((0b101_1 << 7, 3), 0)  # a tie above an odd q rounds up
    @example((0b100_1 << 7, 3), -5)  # and above an even q, down
    @example((0b1011, 4), 2)  # exactly prec bits
    def test_matches_from_man_exp(self, case, e):
        m, prec = case
        assert from_man_exp(round_bits(m, prec), e) == from_man_exp(m, e, prec, round_nearest)


class TestTaylorKernel:
    # every node of every piece past the first comes from _direct_nodes, in
    # +- pairs about the piece's centre t0; _taylor_series states that before
    # rounding |f_nu(t)| is within 2^-(prec+40) and t^alpha within
    # 2^-(prec+40) of itself at the exact node t = t0 + rad x
    @pytest.mark.parametrize("dps", [45, 65, 75])
    @pytest.mark.parametrize("nu", [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(5, 3), Fraction(2),
                                    Fraction(9, 4), Fraction(7, 3)], ids=str)
    def test_within_stated_bound_of_f_nu(self, nu, dps):
        alpha = 2 * nu - 1
        with mp.workdps(dps):
            prec = mp.mp.prec
            bound = mp.ldexp(1, -(prec + 40))
            for cutoff_mult in (6, 1):
                for t0, rad in direct_pieces(nu, cutoff_mult, dps):
                    series = _taylor_series(nu, t0, rad)
                    for order in (16, 32, 64, 128):
                        rule = _legendre_rule(order, dps)
                        # the node values rounded to 64 more bits, which adds at most 2^-(prec+64)
                        with mp.workprec(prec + 64):
                            hs, gs, k = _direct_nodes(series, rule)
                        for (x, _), h, g in zip(rule, hs, gs):
                            t = exact_node(t0, rad, x)
                            with mp.workprec(prec + 64):
                                f = abs(_f_nu(nu, t))
                                weight = mp.power(t, mp.mpf(alpha.numerator) / alpha.denominator)
                            assert abs(value(h, k) - f) <= bound, (cutoff_mult, t0, order, x)
                            assert abs(value(g, k) - weight) <= bound * weight, (cutoff_mult, t0, order, x)

    @pytest.mark.parametrize("nu", [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)], ids=str)
    def test_integer_weight_is_finite_and_correctly_rounded(self, nu):
        # at integer alpha = 2 nu - 1 the weight series is the binomial sum
        # (1 + u rho / t0)^alpha itself, alpha + 1 terms, and each g is the
        # exact t^alpha at the exact node, rounded once
        alpha = int(2 * nu - 1)
        dps = 45
        with mp.workdps(dps):
            prec = mp.mp.prec
            for t0, rad in direct_pieces(nu, 6, dps):
                series = _taylor_series(nu, t0, rad)
                assert len(series[4]) == alpha + 1
                for order in (16, 32, 64, 128):
                    rule = _legendre_rule(order, dps)
                    _, gs, k = _direct_nodes(series, rule)
                    for (x, _), g in zip(rule, gs):
                        _, man, exp, _ = exact_node(t0, rad, x)._mpf_
                        assert from_man_exp(g, -k) == from_man_exp(man**alpha, exp * alpha, prec, round_nearest), (t0, order, x)


class TestBesselZeros:
    WDPS = Precision().working_dps

    def test_half_zeros_are_multiples_of_pi(self):
        with mp.workdps(self.WDPS):
            # 15 zeros below 50, then 16 pi beyond it
            zeros = _bessel_zeros(Fraction(1, 2), mp.mpf(50), self.WDPS)
            assert len(zeros) == 16
            for k, z in enumerate(zeros, 1):
                assert abs(z - k * mp.pi) <= mp.mpf(10) ** (2 - self.WDPS) * z

    def test_three_halves_zeros_solve_tan_t_eq_t(self):
        # J_{3/2}(t) = 0 exactly when tan t = t: one root in each
        # (k pi, k pi + pi/2), k >= 1, so none is missed or doubled; the
        # 16th is the first beyond 50
        with mp.workdps(self.WDPS):
            zeros = _bessel_zeros(Fraction(3, 2), mp.mpf(50), self.WDPS)
        assert len(zeros) == 16
        with mp.workdps(self.WDPS + 20):
            for k, z in enumerate(zeros, 1):
                assert k * mp.pi < z < k * mp.pi + mp.pi / 2
                newton_step = (mp.sin(z) - z * mp.cos(z)) / (z * mp.sin(z))
                assert abs(newton_step) <= mp.mpf(10) ** (2 - self.WDPS) * z

    @staticmethod
    def library_zeros(nu: Fraction, cutoff, dps: int) -> list:
        """mp.besseljzero's zeros of J_nu below cutoff(first zero), then the
        first at or beyond it, found at dps + 20 digits and rounded to dps."""
        with mp.workdps(dps + 20):
            v = mp.mpf(nu.numerator) / nu.denominator
            zeros = [mp.besseljzero(v, 1)]
            X = cutoff(zeros[0])
            while zeros[-1] < X:
                zeros.append(mp.besseljzero(v, len(zeros) + 1))
        with mp.workdps(dps):
            return [+z for z in zeros]

    @pytest.mark.parametrize("nu", [Fraction(i, 4) for i in range(2, 81)], ids=str)
    def test_against_library(self, nu):
        # every zero below j_{nu,1} + 40 and the next, for nu = 1/2, 3/4, ..., 20, bit for bit
        want = self.library_zeros(nu, lambda z1: z1 + 40, self.WDPS)
        with mp.workdps(self.WDPS):
            X = +(want[0] + 40)
            assert _bessel_zeros(nu, X, self.WDPS) == tuple(want)

    def test_seven_thirds_readme_cutoff(self):
        # the 25 zeros below the README line's X = 6 * 2^(7/3) Gamma(10/3) and the
        # next; at k = 3 and k = 24 besseljzero at the working precision itself is 1 ulp off
        nu = Nu(Fraction(7, 3))
        with mp.workdps(self.WDPS):
            X = 6.0 * amplitude(nu)
            got = _bessel_zeros(nu.value, X, self.WDPS)
        assert len(got) == 26
        assert got == tuple(self.library_zeros(nu.value, lambda z1: X, self.WDPS))

    def test_no_zero_below_cutoff(self):
        # nu = 1/2, cutoff_mult = 1: X = sqrt(pi/2) < pi = j_{1/2,1}, so the
        # integral is one piece; at n = 2 it is I(2) = pi / sqrt(2)
        with mp.workdps(self.WDPS):
            X = +mp.sqrt(mp.pi / 2)
            assert _bessel_zeros(HALF.value, X, self.WDPS) == (+mp.pi,)
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
        return list(_bessel_zeros(nu, X, self.WDPS))

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
    # _sinc_estimates and _bessel_estimates are the uncached computations behind the memo
    def test_sinc_bitwise_identical(self):
        _MEMO.clear()
        first = sinc_integral(7)
        memo = sinc_integral(7)
        fresh = _sinc_estimates([7], Precision())[7]
        assert memo is first
        assert bits(first) == bits(memo) == bits(fresh)

    def test_bessel_bitwise_identical(self):
        _MEMO.clear()
        first = bessel_integral(ONE, 5)
        memo = bessel_integral(ONE, 5)
        fresh = bessel_estimates(ONE, [5], Precision(), 24.0)[5]
        assert memo is first
        assert bits(first) == bits(memo) == bits(fresh)

    def test_deterministic_across_reset(self):
        a = sinc_integral(9)
        _MEMO.clear()
        b = sinc_integral(9)
        assert bits(a) == bits(b)

    def test_key_is_normalised(self):
        # a default argument, spelled out or left off, is one memo entry
        assert sinc_integral(7) is sinc_integral(7, Precision())
        first = bessel_integral(ONE, 5)
        assert bessel_integral(ONE, 5, Precision(), 24) is first
        assert bessel_integral(ONE, 5, cutoff_mult=24.0) is first

    @pytest.mark.parametrize("n", [5.0, Fraction(5)])
    def test_non_integer_n_refused(self, n):
        # n == 5 and hash(n) == hash(5), so a memo lookup would return 5's
        # estimate once 5 is memoised; refused cold and warm alike
        for integral in (sinc_integral, lambda n: bessel_integral(ONE, n)):
            _MEMO.clear()
            with pytest.raises(TypeError):
                integral(n)
            integral(5)
            with pytest.raises(TypeError):
                integral(n)
        with pytest.raises(TypeError):
            sinc_integrals([5, n])
        with pytest.raises(TypeError):
            bessel_integrals(ONE, [5, n])


def bits(est: QuadEstimate) -> tuple:
    """Every bit of an estimate; repr shows only the digits of the ambient precision."""
    return est.value._mpf_, est.abs_err_bound._mpf_, est.cutoff_used._mpf_, est.pieces


def bessel_estimates(nu: Nu, ns: list[int], prec: Precision, cutoff_mult: float) -> dict:
    """_bessel_estimates, unmemoised, with 2^nu Gamma(nu+1) and the cutoff formed as bessel_integrals forms them."""
    with mp.workdps(prec.working_dps):
        amp = amplitude(nu)
        X = float(cutoff_mult) * amp
    return _bessel_estimates(nu, ns, prec, X, amp)


class TestBatches:
    # each batch runs on a cleared memo and is compared with the unmemoised
    # single-n computation, which is what sinc_integral(n) runs on a miss
    def test_sinc_sweep_both_modes(self):
        ns = list(range(40, 1, -1))
        singles = {n: _sinc_estimates([n], Precision())[n] for n in ns}
        _MEMO.clear()
        batch = sinc_integrals(ns)
        assert [bits(e) for e in batch] == [bits(singles[n]) for n in ns]
        modes = {n: mp.isinf(e.cutoff_used) for n, e in zip(ns, batch)}
        assert {n for n, zeta in modes.items() if zeta} == set(range(2, 12))

    def test_sinc_sixty_digits(self):
        prec = Precision(target_digits=50)
        ns = [300, 90, 200, 135, 3]
        singles = {n: _sinc_estimates([n], prec)[n] for n in ns}
        _MEMO.clear()
        assert [bits(e) for e in sinc_integrals(ns, prec)] == [bits(singles[n]) for n in ns]

    def test_sinc_failing_rung(self, doublings):
        # at one doubling n = 2..6 converge, while n >= 7 miss the target and
        # fail, in the batch and alone alike
        doublings(1)
        prec = Precision()
        ns = [3, 9, 2, 7]
        fresh = _sinc_estimates(ns, prec)
        singles = {n: _sinc_estimates([n], prec)[n] for n in ns}
        for n in ns:
            assert type(fresh[n]) is type(singles[n])
            if isinstance(fresh[n], PrecisionFailure):
                assert str(fresh[n]) == str(singles[n])
                assert bits(fresh[n].estimate) == bits(singles[n].estimate)
            else:
                assert bits(fresh[n]) == bits(singles[n])
        assert {n for n in ns if isinstance(fresh[n], PrecisionFailure)} == {7, 9}

    def test_wide_gaps(self):
        # n = 1000 and 10^6 take the sums down by far more than the guard bits; each n raises
        # each node's ratio to its piece's largest h from the piece's one chain of squares,
        # which 10^6 grows to R^524288, and n = 10^6 fails alone and in the batch alike
        ns = [10**6, 3, 1000, 2]
        fresh = _sinc_estimates(ns, Precision())
        for n in ns:
            single = _sinc_estimates([n], Precision())[n]
            assert type(fresh[n]) is type(single)
            if isinstance(single, PrecisionFailure):
                assert str(fresh[n]) == str(single) and bits(fresh[n].estimate) == bits(single.estimate)
            else:
                assert bits(fresh[n]) == bits(single)
        assert isinstance(fresh[10**6], PrecisionFailure) and not isinstance(fresh[1000], PrecisionFailure)

    @staticmethod
    def parts_taken(monkeypatch, run) -> dict:
        """{(piece bounds, rule order, n): (S, E, k)} of every power sum run() makes,
        on cleared memo and family store.  A base held in the family store is found
        there by identity; any other was built from its piece's latest node values."""
        parts, ladder = {}, {}
        real_ladder, real_sum = quadrature._ladder, quadrature.power_sum

        def traced(a, b, evaluate):
            def nodes_of(rule):
                ladder["built"] = a, b, len(rule)
                return evaluate(rule)
            return a, b, nodes_of

        def ladder_of(pieces, uses, rungs, half_targets, nodes, dps):
            ladder.update(pieces=pieces, nodes={} if nodes is None else nodes)
            return real_ladder([traced(*p) for p in pieces], uses, rungs, half_targets, nodes, dps)

        def recorded(base, n):
            held = [(*ladder["pieces"][i][:2], order) for (i, order), b in ladder["nodes"].items() if b is base]
            key = (*(held[0] if held else ladder["built"]), n)
            part = real_sum(base, n)
            assert parts.setdefault(key, part) == part
            return part

        monkeypatch.setattr(quadrature, "_ladder", ladder_of)
        monkeypatch.setattr(quadrature, "power_sum", recorded)
        _MEMO.clear()
        _FAMILY.clear()
        run()
        monkeypatch.undo()
        return parts

    def test_parts_are_batch_independent(self, monkeypatch):
        # a piece's part for n depends on its base and n alone: a batch takes, integer for
        # integer, the parts each n takes alone, on the sinc 60-digit grid and in the nu = 1
        # sweep against a loop from n = 37 down, whose held chains a larger n grew
        prec = Precision(target_digits=50)
        grid, sweep = [90, 135, 200, 300], list(range(23, 38))
        batch = self.parts_taken(monkeypatch, lambda: sinc_integrals(grid, prec))
        assert batch == self.parts_taken(monkeypatch, lambda: [sinc_integral(n, prec) for n in grid])
        assert {key[3] for key in batch} == set(grid)
        batch = self.parts_taken(monkeypatch, lambda: bessel_integrals(ONE, sweep, cutoff_mult=6))
        assert batch == self.parts_taken(
            monkeypatch, lambda: [bessel_integral(ONE, n, cutoff_mult=6) for n in reversed(sweep)])
        assert {key[3] for key in batch} == set(sweep)

    def test_unsure_totals_do_not_count(self, monkeypatch, doublings):
        # a total round_total is not sure of has diff inf, and the next rung compares against
        # nothing: the n refines to its last rung and fails there
        monkeypatch.setattr(quadrature, "round_total", lambda parts: (round_total(parts)[0], False))
        doublings(2)
        failure = _sinc_estimates([5], Precision())[5]
        assert isinstance(failure, PrecisionFailure)
        assert mp.isinf(failure.estimate.abs_err_bound)

    def test_bessel_sweep_by_cutoff_group(self):
        # the nu = 1 sweep of the inequalities suite is one group, at the default
        # cutoff; n = 2, whose tail is completed exactly, shares it with every other n
        ns = list(range(20, 1, -1))
        singles = {n: bessel_estimates(ONE, [n], Precision(), 24.0)[n] for n in ns}
        _MEMO.clear()
        assert [bits(e) for e in bessel_integrals(ONE, ns)] == [bits(singles[n]) for n in ns]

    def test_bessel_seven_thirds(self):
        # nu = p/q = 7/3: the first piece is mapped through t = y^(3/2)
        nu = Nu(Fraction(7, 3))
        ns = [8, 2, 3, 8]
        singles = {n: bessel_estimates(nu, [n], Precision(), 1.0)[n] for n in set(ns)}
        _MEMO.clear()
        batch = bessel_integrals(nu, ns, cutoff_mult=1)
        assert [bits(e) for e in batch] == [bits(singles[n]) for n in ns]
        assert batch[0] is batch[3]

    def test_duplicates_and_memo_objects(self):
        _MEMO.clear()
        first = sinc_integral(7)
        batch = sinc_integrals([5, 7, 5, 11, 7])
        assert batch[1] is batch[4] is first
        assert batch[0] is batch[2] is sinc_integral(5)
        assert batch[3] is sinc_integral(11)
        assert sinc_integrals([]) == []
        b5 = bessel_integral(ONE, 5)
        again = bessel_integrals(ONE, [5, 6, 5], Precision(), 24)
        assert again[0] is again[2] is b5
        assert bessel_integrals(ONE, [6])[0] is bessel_integral(ONE, 6, cutoff_mult=24.0)

    def test_batch_computes_only_missing(self, monkeypatch):
        _MEMO.clear()
        sinc_integral(4)
        asked = []
        real = quadrature._sinc_estimates
        monkeypatch.setattr(quadrature, "_sinc_estimates", lambda ns, prec: asked.append(ns) or real(ns, prec))
        sinc_integrals([4, 6, 4, 3, 6])
        sinc_integrals([3, 4])
        assert asked == [[6, 3]]

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            sinc_integrals([3, 1])
        with pytest.raises(ValueError, match="at least 2"):
            bessel_integrals(ONE, [5, 0])
        with pytest.raises(ValueError, match="X_MAX"):
            bessel_integrals(ONE, [5], cutoff_mult=513)


def exact(x: mp.mpf) -> str:
    """An mpf as sign, hexadecimal mantissa and binary exponent: every bit."""
    if not mp.isfinite(x):
        return str(x)
    sign, man, exp, _ = x._mpf_
    return f"{'-' if sign else ''}{hex(man)}p{exp}"


def frozen(name: str) -> dict:
    return json.loads((Path(__file__).parent / "data" / name).read_text(encoding="utf-8"))


def pinned(e: QuadEstimate) -> list:
    return [exact(e.value), exact(e.abs_err_bound), exact(e.cutoff_used), e.pieces]


def sweep_bits() -> dict:
    """The sweeps pinned by tests/data/sweep_bits.json, on a cleared memo."""
    _MEMO.clear()
    got = {
        "sinc": dict(zip(range(2, 41), sinc_integrals(range(2, 41)))),
        "sinc-60-digits": dict(zip((90, 135, 200, 300),
                                   sinc_integrals((90, 135, 200, 300), Precision(target_digits=50)))),
        "bessel-nu1": dict(zip(range(2, 21), bessel_integrals(ONE, range(2, 21)))),
    }
    return {fam: {str(n): pinned(e) for n, e in rows.items()} for fam, rows in got.items()}


BESSEL_BITS_CASES = [  # (nu, ns, cutoff_mult, target digits + 10, as bessel_bits.json's keys give them)
    ("7/3", (2, 3, 8), 6, 30),
    ("7/3", (8,), 6, 50),
    ("2", (2,), 24, 30),
    ("3/2", (2, 4, 6), 6, 30),
    ("1/2", (2, 5), 24, 30),
    ("5/3", (12, 14, 16), 4, 30),
    ("1", (3, 9), 24, 30),
    ("9/4", (4, 10), 3, 60),
]


def bessel_bits() -> dict:
    """The Bessel estimates pinned by tests/data/bessel_bits.json, on a cleared memo."""
    _MEMO.clear()
    got = {}
    for nu, ns, mult, digits in BESSEL_BITS_CASES:
        ests = bessel_integrals(Nu(Fraction(nu)), ns, Precision(target_digits=digits - 10), cutoff_mult=mult)
        for n, e in zip(ns, ests):
            got[f"nu={nu} n={n} cutoff_mult={mult} digits={digits}"] = pinned(e)
    return got


# tests/data/sweep_bits.json and bessel_bits.json are written by reference_ladder,
# the ladder summed term by term at 300 extra bits, so they pin every bit of the
# correctly rounded Gauss sums of the node values


class TestSweepBitsFrozen:
    def test_against_frozen(self):
        assert sweep_bits() == frozen("sweep_bits.json")


class TestBesselBitsFrozen:
    def test_against_frozen(self):
        got = bessel_bits()
        assert len(got) == 17
        assert got == frozen("bessel_bits.json")


class TestReferenceLadder:
    # the same estimates with the oracle in place of the fixed-point ladder
    @pytest.fixture(autouse=True)
    def oracle(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_ladder", reference_ladder)
        yield
        _MEMO.clear()

    def test_sweep_bits(self):
        assert sweep_bits() == frozen("sweep_bits.json")

    def test_bessel_bits(self):
        assert bessel_bits() == frozen("bessel_bits.json")


def dyadic(draw, mantissa_bits: int, lo: int, hi: int) -> Fraction:
    """m 2^e with m < 2^mantissa_bits and lo <= e <= hi."""
    return Fraction(draw(st.integers(0, 2**mantissa_bits - 1))) * Fraction(2) ** draw(st.integers(lo, hi))


@st.composite
def power_sum_cases(draw):
    """(hs, gs, ns) as Fractions: 1 to 13 random nodes, h in [0, 1] down to
    2^-200 (some near 1, some with a full mantissa in [1/2, 1)) and weights
    from 2^-40 up to 2^90, so a sum may lie anywhere from about 2^100 down
    to 2^-60000; ns increasing in 2..300, often large enough that a power's
    rounding shortfall, which grows like n, shows."""
    prec = TestPowerSums.PREC
    count = draw(st.integers(1, 13))
    kinds = (lambda: 1 - dyadic(draw, prec, -prec - 8, -prec - 1),
             lambda: dyadic(draw, prec, -prec - 200, -prec),
             lambda: Fraction(draw(st.integers(2 ** (prec - 1), 2**prec - 1)), 2**prec))
    hs = [draw(st.sampled_from(kinds))() for _ in range(count)]
    gs = [dyadic(draw, prec, -prec - 40, 90 - prec) for _ in range(count)]
    ns = sorted(draw(st.sets(st.integers(2, 300), min_size=1, max_size=6)))
    return hs, gs, ns


@st.composite
def power_sum_cases_in_any_order(draw):
    """power_sum_cases with ns in a drawn order: decreasing, or any permutation."""
    hs, gs, ns = draw(power_sum_cases())
    return hs, gs, draw(st.one_of(st.just(ns[::-1]), st.permutations(ns)))


@st.composite
def large_n_cases(draw):
    """(hs, gs, ns) as Fractions: a top node with a full mantissa in [1/2, 1),
    1 to 7 nodes within 2^-18 of it, whose powers stay in the sum at n = 2^20
    and some at n = 2^27, and maybe one far below it with a weight up to 2^90;
    ns are 2^20 + 1, power_sum's n limit 2^(ERROR_BITS - 5) and one n between."""
    prec = TestPowerSums.PREC
    top = Fraction(draw(st.integers(2 ** (prec - 1), 2**prec - 1)), 2**prec)
    hs = [top] + [top - Fraction(draw(st.integers(0, 2 ** (prec - 18))), 2**prec)
                  for _ in range(draw(st.integers(1, 7)))]
    hs += draw(st.lists(st.builds(Fraction, st.integers(1, 2**prec - 1), st.just(2 ** (prec + 8))), max_size=1))
    gs = [dyadic(draw, prec, -prec - 40, 90 - prec) for _ in hs]
    gs[0] += Fraction(1, 2**40)  # the top node weighs something
    limit = 2 ** (ERROR_BITS - 5)
    return hs, gs, [2**20 + 1, draw(st.integers(2**20 + 2, limit - 1)), limit]


class TestPowerSums:
    PREC = 120

    @staticmethod
    def fixed(qs: list[Fraction]) -> tuple[list[int], int]:
        """Dyadic Fractions as integers on their finest common scale 2^-k, exactly."""
        k = max(q.denominator.bit_length() - 1 for q in qs)
        assert all((q * 2**k).denominator == 1 for q in qs)
        return [int(q * 2**k) for q in qs], k

    @settings(max_examples=60, deadline=None)
    @given(power_sum_cases())
    @example(([Fraction(3, 4) + Fraction(1, 2**130)], [Fraction(2**80 + 1)], [2]))  # n = 2 alone
    @example(([Fraction(1), Fraction(1, 2**150)], [Fraction(3, 8), Fraction(2**90)], [2, 3, 50]))
    # every term far below 2^-wp: the sums are about 2^-8000, 2^-9600 and 2^-12000
    @example(([Fraction(1, 2**200) + Fraction(1, 2**300)], [Fraction(3, 2)], [40, 48, 60]))
    # an early peak: the 2^90 term leads until n = 8, losing 15 bits a step, then the node at
    # h near 1 leads; the ratios to it carry the weights' 130-bit spread beyond wp bits
    @example(([Fraction(1, 2**15), 1 - Fraction(1, 2**100)], [Fraction(2**90), Fraction(1, 2**40)],
              list(range(2, 14))))
    # one node with a full mantissa: every squaring doubles the shortfall of the power it squares,
    # so binary powering falls short by up to n 2^(1-wp), not 2 bitcount(n) 2^(1-wp)
    @example(([Fraction(0xbf47bf9c6aba8ad2f50152b198d4b8, 2**120)], [Fraction(1)], [60]))
    @example(([Fraction(0xb7a419800b1b5ac747d7e3c557db96, 2**120)], [Fraction(1)], [1023]))
    # the node with the largest h carries weight 0, so the sums fall like (3/4)^n
    @example(([Fraction(1), Fraction(3, 4), Fraction(1, 2**30)], [Fraction(0), Fraction(5), Fraction(2**60)],
              [2, 40, 300]))
    # weights of 301 bits, wider than wp: power_base floors them by 111 bits, the second to 0
    @example(([Fraction(7, 8), Fraction(3, 4)], [Fraction(2**301 - 1, 2**300), Fraction(1, 2**300)], [2, 50]))
    # a largest h of 250 bits, wider than wp: c itself is floored, and counts n times in c^n
    @example(([Fraction(2**250 - 3, 2**250), Fraction(2**198 // 3, 2**200)], [Fraction(1), Fraction(5)], [2, 60, 300]))
    # every h equals the largest
    @example(([Fraction(5, 8)] * 3, [Fraction(1), Fraction(2**60), Fraction(1, 2**40)], [2, 7, 100]))
    # one node and n = 10^6: no integer widens with n (h = 1/2 keeps the exact sum
    # 3 2^-(10^6) short; h = 7/8 would make it a 3-million-bit integer)
    @example(([Fraction(1, 2)], [Fraction(3)], [3, 10**6]))
    def test_matches_correctly_rounded_exact_sum(self, case):
        hs, gs, ns = case
        (H, kh), (G, kg) = self.fixed(hs), self.fixed(gs)
        wp = self.PREC + quadrature.LADDER_GUARD
        base = power_base(H, G, kh, kg, wp)
        sums = {n: power_sum(base, n) for n in ns}
        assert list(sums) == ns

        def at_most(a, ka, b, kb):  # a 2^-ka <= b 2^-kb, exactly
            return a << max(kb - ka, 0) <= b << max(ka - kb, 0)

        with mp.workprec(self.PREC):
            for n, (S, E, k) in sums.items():
                # the exact sum, every term on its finest scale: want 2^-kw
                want, kw = sum(g * h**n for h, g in zip(H, G)), kg + kh * n
                assert at_most(S, k, want, kw) and at_most(want, kw, S + E, k)
                total, sure = round_total([(S, E, k)])
                # relative, whatever the size of the sum: E <= 2^(ERROR_BITS - wp) S, or all is 0,
                # so only a rounding boundary between S and S + E can leave the total unsure
                assert E.bit_length() <= max(S.bit_length() - wp + ERROR_BITS, 0)
                assert E <= S >> (self.PREC + 8)
                if sure:
                    assert total._mpf_ == from_man_exp(want, -kw, self.PREC, round_nearest)

    @settings(max_examples=30, deadline=None)
    @given(large_n_cases())
    def test_large_n_within_a_directed_rounding_enclosure(self, case):
        # at n far past 300 the exact sum is too wide to form, so it is enclosed by
        # mpf_pow_int's h^n floored and ceiled at wp + 64 bits, times g, summed with
        # the same rounding: S 2^-k <= lo <= sum g h^n <= hi <= (S + E) 2^-k
        hs, gs, ns = case
        (H, kh), (G, kg) = self.fixed(hs), self.fixed(gs)
        wp = self.PREC + quadrature.LADDER_GUARD
        base = power_base(H, G, kh, kg, wp)
        for n in ns:
            S, E, k = power_sum(base, n)
            ends = []
            for rnd in (round_floor, round_ceiling):
                end = fzero
                for h, g in zip(H, G):
                    term = mpf_pow_int(from_man_exp(h, -kh), n, wp + 64, rnd)
                    end = mpf_add(end, mpf_mul(from_man_exp(g, -kg), term, wp + 64, rnd), wp + 64, rnd)
                ends.append(end)
            lo, hi = ends
            assert mpf_le(from_man_exp(S, -k), lo) and mpf_le(hi, from_man_exp(S + E, -k))
            assert E.bit_length() <= S.bit_length() - wp + ERROR_BITS

    @settings(max_examples=40, deadline=None)
    @given(power_sum_cases_in_any_order())
    @example(([Fraction(0xbf47bf9c6aba8ad2f50152b198d4b8, 2**120)], [Fraction(1)], [60]))
    @example(([Fraction(0xb7a419800b1b5ac747d7e3c557db96, 2**120)], [Fraction(1)], [2, 7, 60]))
    @example(([Fraction(0xb7a419800b1b5ac747d7e3c557db96, 2**120)], [Fraction(1)], [60, 7, 2]))
    # n = 10^6 grows the chain past the earlier call's R^512, before or after n = 3
    @example(([Fraction(1, 2)], [Fraction(3)], [3, 10**6]))
    @example(([Fraction(1, 2)], [Fraction(3)], [10**6, 3]))
    def test_grown_chain_gives_fresh_sums(self, case):
        # a base whose squaring chain an earlier call grew gives, for ns in any order,
        # the very (S, E, k) of a fresh base, and of a fresh base for each n: the chain
        # floors binary powering's squares
        hs, gs, ns = case
        (H, kh), (G, kg) = self.fixed(hs), self.fixed(gs)
        wp = self.PREC + quadrature.LADDER_GUARD
        held = power_base(H, G, kh, kg, wp)
        power_sum(held, 1023)
        assert len(held.chain) == (10 if held.gs else 0)
        fresh = power_base(H, G, kh, kg, wp)
        assert [power_sum(held, n) for n in ns] == [power_sum(fresh, n) for n in ns]
        assert [power_sum(held, n) for n in ns] == [power_sum(power_base(H, G, kh, kg, wp), n) for n in ns]

    def test_pieces_of_every_size_add_exactly(self):
        # a total of parts in units far apart is floored to the coarsest and still rounds correctly
        parts, want = [], Fraction(0)
        for k, h in ((0, Fraction(1, 3)), (500, Fraction(1, 5)), (-40, Fraction(1, 7))):
            part = power_sum(power_base([round(h * 2**self.PREC)], [1], self.PREC, k, self.PREC + quadrature.LADDER_GUARD), 2)
            parts.append(part)
            want += Fraction(round(h * 2**self.PREC), 2**self.PREC) ** 2 * Fraction(2) ** -k
        with mp.workprec(self.PREC):
            total, sure = round_total(parts)
        assert sure
        assert total._mpf_ == from_rational(want.numerator, want.denominator, self.PREC, round_nearest)

    def test_sweep_sums_are_relatively_close(self, monkeypatch):
        # every sum the sinc sweep adds, the ten zeta panels' among them, has
        # E <= 2^(ERROR_BITS - wp) S, or is all zero; each zeta-mode n has a
        # piece of its own, its panel, whose bases serve that n alone
        seen, real = [], quadrature.power_sum  # (base, n), each base held so its id stays its own

        def checked(base, n):
            S, E, k = part = real(base, n)
            seen.append((base, n))
            assert E << (base.wp - ERROR_BITS) <= S or S == E == k == 0
            return part

        monkeypatch.setattr(quadrature, "power_sum", checked)
        _MEMO.clear()
        sinc_integrals(range(2, 41))
        zeta_ns = [n for n in range(2, 41) if _sinc_mode(n, Precision())[0] == "zeta"]
        assert zeta_ns == list(range(2, 12))
        served = {}
        for base, n in seen:
            served.setdefault(id(base), []).append(n)
        assert all([n] in served.values() for n in zeta_ns)

    def test_base_above_one_refused(self):
        with mp.workprec(self.PREC), pytest.raises(ArithmeticError, match="above 1"):
            power_sum(power_base([3], [1], 1, 0, self.PREC + 64), 2)

    def test_large_error_is_not_sure(self):
        # an error bound above 2^-(prec+8) of the sum is not sure, whatever the rounding
        with mp.workprec(self.PREC):
            assert round_total([(1 << 200, 1 << 100, 0)]) == (mp.mpf(2) ** 200, False)

    def test_rounding_boundary_is_not_sure(self):
        # S rounds down and S + E up: a small E, but the exact sum's rounding is unknown
        S = (1 << 184) + (1 << 63) * 2 - 1  # just below the midpoint to the next 120-bit float
        with mp.workprec(self.PREC):
            total, sure = round_total([(S, 2, 0)])
            assert total == mp.mpf(2) ** 184 and not sure
            assert round_total([(S - 2, 1, 0)]) == (mp.mpf(2) ** 184, True)


class TestBatchFailure:
    # the failure a batch raises is the single call's failure for the first failing n of ns,
    # at one doubling
    PREC = Precision(target_digits=30)

    @pytest.fixture(autouse=True)
    def one_doubling(self, doublings):
        doublings(1)

    def single_failure(self, call) -> PrecisionFailure:
        _MEMO.clear()
        with pytest.raises(PrecisionFailure) as exc:
            call()
        return exc.value

    def test_sinc(self):
        want = self.single_failure(lambda: sinc_integral(97, self.PREC))
        _MEMO.clear()
        with pytest.raises(PrecisionFailure) as exc:
            sinc_integrals([97, 5, 2, 97], self.PREC)
        assert str(exc.value) == str(want) == (
            "sinc_integral(n=97): target 1e-30 not reached after 1 order doublings")
        assert repr(exc.value.estimate) == repr(want.estimate)
        assert bits(exc.value.estimate) == bits(want.estimate)

    def test_bessel(self):
        want = self.single_failure(lambda: bessel_integral(ONE, 9, self.PREC, cutoff_mult=6))
        _MEMO.clear()
        with pytest.raises(PrecisionFailure) as exc:
            bessel_integrals(ONE, [9, 2, 6], self.PREC, cutoff_mult=6)
        assert str(exc.value) == str(want)
        assert bits(exc.value.estimate) == bits(want.estimate)

    def test_successes_are_memoised(self):
        # n = 2..6 meet the target at one doubling; n = 8 does not
        prec = Precision()
        _MEMO.clear()
        with pytest.raises(PrecisionFailure, match=r"sinc_integral\(n=8\)"):
            sinc_integrals([3, 8, 2], prec)
        assert set(_MEMO) == {("sinc", prec, 3), ("sinc", prec, 2)}
        assert bits(sinc_integral(3, prec)) == bits(_sinc_estimates([3], prec)[3])


class TestBatchWork:
    def test_node_values_shared_across_n(self, monkeypatch):
        """On cold memos each sweep evaluates every (piece, order) node once.

        The sinc sweep n = 2..40 makes 56 sines on a cleared cosine table,
        one a positive node of each rule it climbs (8 + 16 + 32), and a
        second sweep at the same precision none (2,800 before the table, one
        a lobe or panel node).  Its ten zeta panels share one
        Euler-Maclaurin sum a node: 112 sums (16 + 32 + 64 nodes), and no
        mp.zeta call.  The nu = 1 sweep, one batch at the default cutoff,
        makes 1,994 kernel evaluations (31,926 one n at a time): 1,792 at
        the nodes of its 16 pieces (16 + 32 + 64 each), 1,680 of them
        Taylor nodes on the 15 pieces past the first, summed in 840 +-
        pairs, and 112 Maclaurin sums on the first; then 30 seeds (two
        Maclaurin sums a Taylor series), 116 in the zero search and 56 in
        the n = 2 tail.  That tail starts at X = j_{1,1} = 3.8317..., and
        its terms k = 0..55 each take one kernel call, until the prefactor
        (X/2)^(1+k)/(1+k)! falls below 10^-60 (3.1e-61 at k = 56).
        """
        calls = {"sin": 0, "zeta": 0, "panel": 0, "f_nu": 0, "taylor": 0}

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(mp, "sin", counted("sin", mp.sin))
        monkeypatch.setattr(mp, "zeta", counted("zeta", mp.zeta))
        monkeypatch.setattr(quadrature, "_hurwitz_zetas", counted("panel", quadrature._hurwitz_zetas))
        monkeypatch.setattr(quadrature, "_f_nu", counted("f_nu", quadrature._f_nu))
        real_nodes = quadrature._direct_nodes

        def counted_nodes(series, rule):  # counts Taylor nodes, two a +- pair
            calls["taylor"] += len(rule)
            return real_nodes(series, rule)

        monkeypatch.setattr(quadrature, "_direct_nodes", counted_nodes)
        _MEMO.clear()
        _FAMILY.clear()
        quadrature._cosines.cache_clear()
        sinc_integrals(range(2, 41))
        bessel_integrals(ONE, range(2, 21))
        assert calls == {"sin": 56, "zeta": 0, "panel": 112, "f_nu": 314, "taylor": 1680}
        _MEMO.clear()
        sinc_integrals(range(2, 41))
        assert calls["sin"] == 56 and calls["panel"] == 224

    def test_terms_start_once_a_rung(self, monkeypatch):
        # on the 60-digit grid every piece builds one power base a rung, and
        # each n raises its nodes by binary powering from the base's one
        # squaring chain.  n = 90, 135, 200 and 300 have bit lengths 7, 8, 8
        # and 9, so the chain reaches R^256, 9 levels and 8 squarings a base,
        # shared by all four: 7,936 node squarings on two lobes of 16 + 32 +
        # 64 + 128 + 256 = 496 nodes each.  Each n then multiplies the levels
        # at its set bits, one product fewer than its 4, 4, 3 and 4 set bits:
        # 3 + 3 + 2 + 3 = 11 a node, 10,912 node products
        bases, products = [], []
        real, real_sum = quadrature.power_base, quadrature.power_sum
        monkeypatch.setattr(quadrature, "power_base", lambda *a: bases.append(real(*a)) or bases[-1])

        def counted(base, n):
            products.append(len(base.chain[0]) * (bin(n).count("1") - 1))
            return real_sum(base, n)

        monkeypatch.setattr(quadrature, "power_sum", counted)
        _MEMO.clear()
        sinc_integrals([90, 135, 200, 300], Precision(target_digits=50))
        assert [(len(b.chain[0]), len(b.chain)) for b in bases] == [
            (size, 9) for size in (16, 32, 64, 128, 256) for _ in range(2)]
        assert sum(len(b.chain[0]) * (len(b.chain) - 1) for b in bases) == 7936
        assert sum(products) == 10912

    def test_n2_alone_solves_for_one_zero(self, monkeypatch):
        # a batch of n = 2 alone needs only j_{nu,1}: one Newton solve, not the
        # 60 zeros below the default cutoff 192 at nu = 2
        solves = []
        real = quadrature._newton_zero
        monkeypatch.setattr(quadrature, "_newton_zero", lambda *a: solves.append(1) or real(*a))
        _MEMO.clear()
        _FAMILY.clear()
        bessel_integral(Nu(Fraction(2)), 2)
        assert len(solves) == 1

    def test_batch_evaluates_like_its_widest_member(self, monkeypatch):
        # all n of a Bessel batch share one piece list, so the batch makes
        # as many node evaluations as its n that climbs the most rungs; at
        # cutoff 6, n = 3..5 stop a rung below n >= 6.  Each call starts
        # from an empty family store, so each count holds one zero search
        calls = []  # one entry a kernel call, Taylor seeds included, and one a Taylor node
        real_f_nu, real_nodes = quadrature._f_nu, quadrature._direct_nodes
        monkeypatch.setattr(quadrature, "_f_nu", lambda *a: calls.append(1) or real_f_nu(*a))
        monkeypatch.setattr(quadrature, "_direct_nodes",
                            lambda series, rule: calls.extend(rule) or real_nodes(series, rule))
        counts = {}
        for n in (5, 7, 20):
            _MEMO.clear()
            _FAMILY.clear()
            calls.clear()
            bessel_integral(ONE, n, cutoff_mult=6)
            counts[n] = len(calls)
        _MEMO.clear()
        _FAMILY.clear()
        calls.clear()
        bessel_integrals(ONE, [5, 7, 20], cutoff_mult=6)
        assert len(calls) == max(counts.values()) == counts[7] > counts[5]

    @staticmethod
    def cold_batch(nu: Nu, ns: list[int], prec: Precision | None = None, cutoff_mult: float = 6) -> list:
        _MEMO.clear()
        _FAMILY.clear()
        return [bits(e) for e in bessel_integrals(nu, ns, prec, cutoff_mult)]

    def test_loop_equals_cold_batch(self):
        # one n a call, as a sweep over n runs: from a family's third call on
        # the ladder reads the node values held, and every bit stays the same
        seven_thirds = Nu(Fraction(7, 3))
        sweep = list(range(23, 38))
        random.Random(19).shuffle(sweep)
        want = self.cold_batch(ONE, sweep)
        _MEMO.clear()
        _FAMILY.clear()
        assert [bits(bessel_integral(ONE, n, cutoff_mult=6)) for n in sweep] == want
        ns = list(range(3, 13))
        random.Random(20).shuffle(ns)
        want = self.cold_batch(seven_thirds, ns)
        _MEMO.clear()
        _FAMILY.clear()
        got = []
        for i, n in enumerate(ns):
            got.append(bits(bessel_integral(seven_thirds, n, cutoff_mult=6)))
            if i == 4:  # another family replaces the entry, and the loop builds it again
                bessel_integral(ONE, 5, cutoff_mult=6)
        assert got == want

    def test_nodes_held_from_the_second_call(self, monkeypatch):
        # a family's first call holds its pieces but no node values, its second
        # holds the power base of every rung it climbs, its chain grown to R^16
        # for n = 24, and its third evaluates no kernel, series or zero, builds
        # no base and squares no level again on the rungs held: n = 25 needs
        # the same squares as 24
        _MEMO.clear()
        _FAMILY.clear()
        bessel_integral(ONE, 23, cutoff_mult=6)
        (_, pieces, nodes, _), = _FAMILY.values()
        assert nodes is None and len(pieces) == 4
        bessel_integral(ONE, 24, cutoff_mult=6)
        (_, held, nodes, _), = _FAMILY.values()
        assert held is pieces
        assert sorted(nodes) == [(i, order) for i in range(4) for order in (16, 32, 64)]
        assert all(isinstance(base, PowerBase) and len(base.chain) == 5 for base in nodes.values())
        chains = {key: list(base.chain) for key, base in nodes.items()}
        calls = []
        for name in ("_f_nu", "_direct_nodes", "_taylor_series", "_bessel_zeros", "power_base"):
            real = getattr(quadrature, name)
            monkeypatch.setattr(quadrature, name, lambda *a, real=real: calls.append(1) or real(*a))
        est = bessel_integral(ONE, 25, cutoff_mult=6)
        assert calls == []
        for key, base in nodes.items():
            assert len(base.chain) == 5 and all(map(operator.is_, base.chain, chains[key]))
        monkeypatch.undo()
        assert [bits(est)] == self.cold_batch(ONE, [25])

    def test_warm_point_reads_what_the_store_holds(self):
        # a warm nu = 1 sweep point, the store holding every rung's power base: its 12
        # power sums (4 pieces, rules of 16, 32 and 64 nodes) take c^n from each base's
        # chain, never from mpf_pow_int, and amplitude, read at the working precision
        # and at the tail bound's, comes from its memo, not from mp.gamma.  Nothing free
        # of n is formed again: no to_mpf call, and outside the power sums only n^nu,
        # at the working precision and at the tail bound's, and the tail bound's
        # (amp c)^n call mpf_pow_int.  Every held weight is floored to about wp bits at
        # the largest h
        _MEMO.clear()
        _FAMILY.clear()
        for n in (23, 24):
            bessel_integral(ONE, n, cutoff_mult=6)
        names = {power_sum.__code__: "power_sum", libmpf.mpf_pow_int.__code__: "mpf_pow_int",
                 gammazeta.mpf_gamma.__code__: "mpf_gamma", to_mpf.__code__: "to_mpf"}
        calls = dict.fromkeys(names.values(), 0)
        exponents = []  # of each mpf_pow_int call outside the power sums

        def count(frame, event, arg):
            name = names.get(frame.f_code) if event == "call" else None
            if name == "mpf_pow_int":  # counted inside a power sum; outside, its exponent is kept
                outer = frame
                while outer and outer.f_code is not power_sum.__code__:
                    outer = outer.f_back
                if outer is None:
                    exponents.append(frame.f_locals["n"])
                    name = None
            if name:
                calls[name] += 1

        sys.setprofile(count)
        try:
            bessel_integral(ONE, 25, cutoff_mult=6)
        finally:
            sys.setprofile(None)
        assert calls == {"power_sum": 12, "mpf_pow_int": 0, "mpf_gamma": 0, "to_mpf": 0}
        assert sorted(exponents) == [1, 1, 25]
        (_, _, nodes, _), = _FAMILY.values()
        for base in nodes.values():
            widths = [g.bit_length() for g in base.gs]
            spread = max(widths) - widths[base.chain[0].index(1 << base.W)]  # over the first node at c
            assert max(widths) <= base.wp + len(base.gs).bit_length() + spread + 8

    @pytest.mark.parametrize("first, then", [
        ((ONE, 5, None, 6), (Nu(Fraction(3, 2)), 5, None, 6)),
        ((ONE, 5, None, 6), (ONE, 5, None, 12)),
        ((ONE, 5, None, 6), (ONE, 5, Precision(target_digits=30), 6)),
        ((ONE, 5, None, 6), (ONE, 2, None, 6)),
        ((ONE, 2, None, 6), (ONE, 5, None, 6)),
    ], ids=["nu", "cutoff", "precision", "to-n2-alone", "from-n2-alone"])
    def test_another_family_replaces_the_entry(self, first, then):
        # a family whose entry holds node values, then another that differs in
        # one part of the key: nu, the cutoff X, the working precision (X = 12
        # exactly at nu = 1, whatever the precision), or whether any n >= 3
        nu, n, prec, cutoff_mult = then
        want = self.cold_batch(nu, [n], prec, cutoff_mult)
        key, = _FAMILY
        _FAMILY.clear()
        for _ in range(2):
            _MEMO.clear()
            bessel_integral(*first)
        assert next(iter(_FAMILY.values()))[2]
        _MEMO.clear()
        assert [bits(bessel_integral(nu, n, prec, cutoff_mult))] == want
        assert list(_FAMILY) == [key] and _FAMILY[key][2] is None


class TestCutoffConsistency:
    def test_doubling_within_previous_bound(self):
        lo = bessel_integral(ONE, 6, cutoff_mult=12)
        hi = bessel_integral(ONE, 6, cutoff_mult=24)
        assert abs(hi.value - lo.value) <= lo.abs_err_bound

    @pytest.mark.parametrize("nu", ["1/2", "4/3", "3/2", "7/4"])
    def test_cutoff_mult_one(self, nu):
        # the smallest cutoff allowed, X = 2^nu Gamma(nu+1) itself, was refused at these orders
        nu = Nu(Fraction(nu))
        est = bessel_integral(nu, 3, cutoff_mult=1)
        with mp.workdps(Precision().working_dps):
            assert est.cutoff_used == amplitude(nu)
        far = bessel_integral(nu, 3, cutoff_mult=6)
        assert abs(far.value - est.value) <= est.abs_err_bound


class TestGapInFinalUnits:
    # the ladder stops once scale |Q_2N - Q_N| < target/2, with scale = n^nu here: the
    # unscaled gap alone left nu = 7/3, n = 200 with a bound of 1.3e-17
    @pytest.mark.parametrize("nu", ["1", "7/3"])
    def test_large_n_meets_target(self, nu):
        ns = (50, 100, 200, 400)
        for n, est in zip(ns, bessel_integrals(Nu(Fraction(nu)), ns, cutoff_mult=6)):
            assert est.abs_err_bound <= mp.mpf(10) ** -Precision().target_digits, n

    def test_scaled_gap_at_last_rung_is_a_miss(self, doublings):
        # after three doublings the unscaled gap of n = 200 is below target/2, but n^nu
        # times it is 1.3e-17: the failure tests the scaled gap too
        doublings(3)
        with pytest.raises(PrecisionFailure):
            bessel_integral(Nu(Fraction(7, 3)), 200, Precision(), cutoff_mult=6)

    def test_verdict_is_the_ladder_stop(self, monkeypatch):
        # the ladder stops an n once its gap is below target / (2 scale), and the
        # verdict is that same comparison.  At the working precision the gap just
        # below that threshold fails "scale gap < target/2" by rounding at
        # scale = sqrt(149), and the gap at the threshold passes it at sqrt(26)
        def ladder(pieces, uses, rungs, thresholds, nodes, dps):
            t = thresholds[149]._mpf_
            below = mpf_sub(t, mpf_shift(t, -2 * mp.mp.prec), mp.mp.prec, round_floor)
            return {149: (mp.mpf(0), mp.mpf(below)), 26: (mp.mpf(0), thresholds[26])}

        monkeypatch.setattr(quadrature, "_ladder", ladder)
        prec = Precision()
        with mp.workdps(prec.working_dps):
            setups = {n: ((), mp.sqrt(n), mp.mpf(0), mp.mpf(0), mp.inf) for n in (149, 26)}
            out = quadrature._integrate([], setups, prec, str, mp.mpf(0))
        assert isinstance(out[149], QuadEstimate) and isinstance(out[26], PrecisionFailure)


class TestFloor:
    # I_nu(n) >= i_nu_floor(nu) for every n >= 2; at large n every rule misses the peak,
    # so the gap looks converged on a value hundreds of orders of magnitude too small
    @pytest.mark.parametrize("n", [10**8, 10**12])
    def test_large_n_sinc_refused(self, n):
        with pytest.raises(PrecisionFailure, match=r"below the floor 1\.6329932 ") as exc:
            sinc_integral(n)
        assert exc.value.estimate.value < 1

    @pytest.mark.parametrize("mult", [6, 24])
    def test_large_n_bessel_refused(self, mult):
        with pytest.raises(PrecisionFailure, match=r"below the floor 2\.0 ") as exc:
            bessel_integral(ONE, 10**6, cutoff_mult=mult)
        assert exc.value.estimate.value < 1

    def test_frozen_estimates_clear_the_floor(self):
        def mpf(text):
            man, _, exp = text.partition("p")
            return mp.mpf((int(man, 16), int(exp)))

        rows = [(fam, HALF if fam.startswith("sinc") else ONE, pin)
                for fam, pins in frozen("sweep_bits.json").items() for pin in pins.values()]
        rows += [(key, Nu(Fraction(key.split()[0][3:])), pin) for key, pin in frozen("bessel_bits.json").items()]
        assert len(rows) == 39 + 4 + 19 + 17
        with mp.workprec(1000):
            low = [key for key, nu, (value, bound, _, _) in rows if mpf(value) + mpf(bound) < i_nu_floor(nu)]
        assert low == []


class TestPrecisionFailure:
    def test_exhausted_ladder_carries_estimate(self, doublings):
        doublings(1)
        with pytest.raises(PrecisionFailure) as exc:
            sinc_integral(97, Precision(target_digits=30))
        est = exc.value.estimate
        assert isinstance(est, QuadEstimate)
        assert est.abs_err_bound > mp.mpf(10) ** -30

    def test_failing_n_runs_one_ladder(self, monkeypatch, doublings):
        # a miss fails from the one ladder it ran, at the working precision
        calls, ladder = [], quadrature._ladder

        def counted(*args):
            calls.append(args[-1])
            return ladder(*args)

        monkeypatch.setattr(quadrature, "_ladder", counted)
        doublings(1)
        prec = Precision(target_digits=30)
        assert isinstance(_sinc_estimates([97], prec)[97], PrecisionFailure)
        assert calls == [prec.working_dps]


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
        prec = Precision(target_digits=40)
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

    @pytest.mark.parametrize("grid", [(50, 50, 50), (50, 50, 100), (200, 50, 100, 50)])
    def test_repeated_n_refused(self, monkeypatch, grid):
        # a repeated n counted towards the 3 usable points: (50, 50, 50) divided by
        # sxx = 0, and (50, 50, 100) fitted a line through two n.  Refused before
        # any quadrature runs
        def no_quadrature(*args):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(quadrature, "sinc_integrals", no_quadrature)
        with pytest.raises(ValueError, match="n = 50 appears more than once in the grid"):
            remainder_decay_fit(0, grid)

    def test_all_points_dropped(self):
        # at m = 12 the remainder sits near 1e-42, below the error budget
        # the 30-digit integrals carry out there, so no point is usable
        with pytest.raises(ValueError, match="insufficient data"):
            remainder_decay_fit(12, (2000, 3000, 4000),
                                prec=Precision(target_digits=20))

    def test_partial_drop(self):
        # the n = 4000 remainder (~7e-24) sinks under that point's error
        # budget at 30 digits while the low-n points stay clean
        fit = remainder_decay_fit(5, (100, 200, 400, 4000),
                                  prec=Precision(target_digits=20))
        assert fit.dropped_n == (4000,)
        assert fit.used_n == (100, 200, 400)
        assert len(fit.remainders) == 3


class TestGammaSeriesConsistency:
    def test_nu_seven_thirds_n8(self):
        nu = Nu(Fraction(7, 3))
        est = bessel_integral(nu, 8, cutoff_mult=6)
        diffs = []
        for m in range(5):
            gammas = bessel_expansion(nu, m).gamma_coeffs
            series = sum(g / Fraction(8) ** j for j, g in enumerate(gammas))
            with mp.workdps(40):
                diffs.append(abs(float(est.value - c0_value(nu, 40) * to_mpf(series))))
        # each added order tightens the agreement; order 4 lands close
        assert all(a > b for a, b in zip(diffs, diffs[1:]))
        assert diffs[-1] < 1e-3 * float(est.value)
