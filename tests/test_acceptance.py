"""Release acceptance gate.

One test per release criterion; each prints a single verdict line
(ACCEPTANCE n: PASS/FAIL) before asserting, so the terminal carries a
complete scoreboard even when a criterion is not met.  Expected values
come from exact formulas, never from what the engine prints.
"""

import time
from fractions import Fraction
from math import comb, factorial

import mpmath as mp
import pytest

from ballint.bessel import Nu, bessel_aj, bessel_expansion, c0_value
from ballint.quadrature import Precision, bessel_integral, remainder_decay_fit, sinc_integral
from ballint.rationals import to_mpf
from ballint.sinc import sinc_expansion
from ballint.verify import run_suite

NUS6 = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]

# printed sinc coefficients c_j, in units of sqrt(3 pi/2)
PRINTED = {
    0: Fraction(1),
    1: Fraction(-3, 20),
    2: Fraction(-13, 1120),
    3: Fraction(27, 3200),
    4: Fraction(52791, 3942400),
    6: Fraction(-124996631, 10035200000),
}


@pytest.fixture
def announce(capsys):
    def _announce(criterion: int, ok: bool, detail: str = ""):
        with capsys.disabled():
            line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
            if detail:
                line += f" ({detail})"
            print(f"\n{line}", flush=True)
    return _announce


def test_criterion_1_exact_constants(announce):
    """Frozen leading constants reproduce exactly, order 7 inside 10 s."""
    t0 = time.monotonic()
    e = sinc_expansion(7, 8)
    elapsed = time.monotonic() - t0
    mismatches = {j: (e.coeffs[j], want) for j, want in PRINTED.items() if e.coeffs[j] != want}
    ok = not mismatches and elapsed < 10.0
    announce(1, ok, f"6 exact rationals, {elapsed:.2f}s")
    assert not mismatches, mismatches
    assert elapsed < 10.0, f"order-7 expansion took {elapsed:.2f}s"


def test_criterion_2_appendix_regression(announce):
    """Degree-28 table matches the fixture modulo the ledger; every
    erratum order is cross-validated by a remainder-decay fit whose
    reconstructed coefficient agrees within twice the residual band."""
    t0 = time.monotonic()
    reports = run_suite("appendix")
    elapsed = time.monotonic() - t0
    fails = [r.id for r in reports if r.status == "fail"]
    errata = [r for r in reports if r.status == "erratum"]
    crosschecks = [r for r in reports if r.id.startswith("decay-crosscheck-")]
    ok = (not fails and len(errata) == 13 and len(crosschecks) == 7
          and all(r.status == "pass" for r in crosschecks) and elapsed < 60.0)
    announce(2, ok, f"13 ledgered errata, 7 decay cross-checks, {elapsed:.1f}s")
    assert not fails, fails
    assert len(errata) == 13
    assert len(crosschecks) == 7 and all(r.status == "pass" for r in crosschecks)
    assert elapsed < 60.0, f"appendix suite took {elapsed:.1f}s"


def test_criterion_3_second_order_limit(announce):
    """n^2-scaled remainder of the one-term expansion extrapolates to
    -13/1120 within 1e-4 from n = 200, 400 at target 1e-40."""
    t0 = time.monotonic()
    prec = Precision(target_digits=40)
    with mp.workdps(prec.working_dps):
        unit = mp.sqrt(3 * mp.pi / 2)

        def g(n):
            est = sinc_integral(n, prec)
            return n * n * (est.value / unit - 1 + mp.mpf(3) / (20 * n))

        richardson = 2 * g(400) - g(200)
        target = mp.mpf(-13) / 1120
        diff = abs(richardson - target)
    elapsed = time.monotonic() - t0
    ok = diff < 1e-4 and elapsed < 300.0
    announce(3, ok, f"extrapolated {mp.nstr(richardson, 8)} vs -13/1120, "
                    f"|diff| {mp.nstr(diff, 2)}, {elapsed:.1f}s")
    assert diff < 1e-4, f"Richardson limit off by {diff}"
    assert elapsed < 300.0


def polya_density(n: int) -> Fraction:
    """Density at 0 of a sum of n independent U[-1, 1] variables, so that
    int_0^inf (sin t / t)^n dt = pi * polya_density(n) exactly (Polya 1913;
    Borwein & Borwein, Ramanujan J. 5, 2001)."""
    total = sum((-1) ** k * comb(n, k) * (n - 2 * k) ** (n - 1) for k in range((n + 1) // 2))
    return Fraction(total, 2**n * factorial(n - 1))


def test_criterion_4_closed_form_oracles(announce):
    """Quadrature against Polya's exact closed form at n = 2, 4, 6 within
    reported bounds, each bound at most 1e-20 at 30-digit settings.

    Polya's formula integrates the signed (sin t / t)^n; for even n that
    is I(n) itself (pi/sqrt 2, 2 pi/3, sqrt 6 * 11 pi/40).  At odd n = 3
    it gives 3 sqrt(3) pi/8, the signed integral, which I(3) must exceed
    by more than its error bound because (sin t / t)^3 < 0 on (pi, 2 pi).
    """
    assert [polya_density(n) for n in (2, 3, 4)] == [Fraction(1, 2), Fraction(3, 8),
                                                     Fraction(1, 3)]
    t0 = time.monotonic()
    verdicts = {}
    with mp.workdps(60):
        for n in (2, 4, 6):
            p = polya_density(n)
            closed = mp.sqrt(n) * mp.pi * p.numerator / p.denominator
            est = sinc_integral(n)
            err = abs(est.value - closed)
            ok = err <= est.abs_err_bound and est.abs_err_bound <= mp.mpf(1e-20)
            verdicts[n] = (ok, f"off by {mp.nstr(err, 2)} with bound "
                               f"{mp.nstr(est.abs_err_bound, 2)}")
        signed = 3 * mp.sqrt(3) * mp.pi / 8
        est = sinc_integral(3)
        gap = est.value - signed
        verdicts[3] = (gap > est.abs_err_bound,
                       f"is {mp.nstr(gap, 2)} above the signed value, with bound "
                       f"{mp.nstr(est.abs_err_bound, 2)}")
    elapsed = time.monotonic() - t0
    ok = all(v[0] for v in verdicts.values()) and elapsed < 30.0
    detail = ", ".join(f"n={n} {'ok' if good else why}" for n, (good, why) in verdicts.items())
    announce(4, ok, f"{detail}, {elapsed:.1f}s")
    for n, (good, why) in verdicts.items():
        assert good, (f"sinc_integral({n}) {why}; even n must sit within the bound of "
                      f"Polya's closed form, n = 3 strictly above the signed 3 sqrt(3) pi/8")
    assert elapsed < 30.0


def test_criterion_5_reduction_identity(announce):
    """nu = 1/2 gammas coincide with the printed sinc coefficients exactly
    for m = 0..4, and c0(1/2) equals sqrt(3 pi/2) to 30 digits."""
    half = Nu(Fraction(1, 2))
    exact_ok = all(
        bessel_expansion(half, m).gamma_coeffs == tuple(PRINTED[j] for j in range(m + 1))
        for m in range(5)
    )
    with mp.workdps(45):
        c0_diff = abs(c0_value(half, 30) - mp.sqrt(3 * mp.pi / 2))
        c0_ok = c0_diff < mp.mpf(10) ** -28
    ok = exact_ok and c0_ok
    announce(5, ok, f"m=0..4 exact, c0(1/2) diff {mp.nstr(c0_diff, 2)}")
    assert exact_ok
    assert c0_ok


def test_criterion_6_bessel_closed_forms(announce):
    """a2, a3, a4 and gamma1, gamma2, gamma3 match their closed forms as
    exact rationals at nu in {1/2, 1, 3/2, 2, 5/2, 3}."""
    bad = []
    for v in NUS6:
        nu = Nu(v)
        a_want = {
            2: Fraction(-1, 2) / ((v + 1) ** 2 * (v + 2)),
            3: Fraction(-2, 3) / ((v + 1) ** 3 * (v + 2) * (v + 3)),
            4: (v - 5) / (8 * (v + 1) ** 4 * (v + 2) * (v + 3) * (v + 4)),
        }
        for j, want in a_want.items():
            if bessel_aj(nu, j) != want:
                bad.append(("a", j, v))
        g = bessel_expansion(nu, 3).gamma_coeffs
        g_want = {
            1: -v * (v + 1) / (2 * (v + 2)),
            2: v * (v + 1) * (3 * v**2 + 2 * v - 5) / (24 * (v + 2) * (v + 3)),
            3: -v * (v + 1) ** 2 * (v**3 - v**2 - 4 * v - 8) / (48 * (v + 2) ** 2 * (v + 4)),
        }
        for j, want in g_want.items():
            if g[j] != want:
                bad.append(("gamma", j, v))
    announce(6, not bad, "36 rational identities at 6 nu samples")
    assert not bad, bad


def test_criterion_7_nu1_endpoints(announce):
    """I_1(2) = 4 within 1e-8; I_1(n) never exceeds 4 beyond its error
    bound for n = 2..20; n in {10, 20, 40} agrees with the gamma series
    within combined bounds."""
    t0 = time.monotonic()
    one = Nu(Fraction(1))
    est2 = bessel_integral(one, 2)
    with mp.workdps(45):
        at2_err = abs(est2.value - 4)
    at2_ok = at2_err < mp.mpf(10) ** -8

    sweep_excess = []
    for n in range(2, 21):
        est = bessel_integral(one, n)
        sweep_excess.append(float(est.value - 4 - est.abs_err_bound))
    sweep_ok = max(sweep_excess) <= 0

    e = bessel_expansion(one, 3)
    gamma4 = bessel_expansion(one, 4).gamma_coeffs[4]     # 4/135
    series_ok = True
    worst = float("-inf")
    for n in (10, 20, 40):
        est = bessel_integral(one, n)
        with mp.workdps(45):
            series = c0_value(one, 35) * to_mpf(sum(g / Fraction(n) ** j for j, g in enumerate(e.gamma_coeffs)))
            # truncation allowance: twice the first omitted term
            allowance = 2 * 4 * mp.mpf(gamma4.numerator) / gamma4.denominator / n**4
            diff = abs(est.value - series)
            margin = float(diff - est.abs_err_bound - allowance)
        worst = max(worst, margin)
        if margin > 0:
            series_ok = False
    elapsed = time.monotonic() - t0
    ok = at2_ok and sweep_ok and series_ok
    announce(7, ok, f"I1(2) err {mp.nstr(at2_err, 2)}, sweep max excess "
                    f"{max(sweep_excess):.2e}, series margin {worst:.2e}, {elapsed:.1f}s")
    assert at2_ok, at2_err
    assert sweep_ok, max(sweep_excess)
    assert series_ok, worst


def test_criterion_8_decay_orders(announce):
    """Remainder after m terms decays like n^-(m+1): fitted slopes land
    within 0.15 of the target for m = 0, 1, 2 on the grid 50..400."""
    t0 = time.monotonic()
    slopes = {}
    for m in (0, 1, 2):
        fit = remainder_decay_fit(m, (50, 100, 200, 400))
        slopes[m] = fit.slope
    elapsed = time.monotonic() - t0
    deviations = {m: abs(s + (m + 1)) for m, s in slopes.items()}
    ok = all(d < 0.15 for d in deviations.values())
    announce(8, ok, "slopes " + ", ".join(f"m={m}: {s:.4f}" for m, s in slopes.items())
                    + f", {elapsed:.1f}s")
    assert ok, slopes


def test_criterion_9_ball_inequality(announce):
    """2 I(n) stays at or below sqrt(2) pi for n = 2..40 (to 1e-12 slack),
    with equality at n = 2 to the same slack."""
    t0 = time.monotonic()
    with mp.workdps(45):
        bound_const = mp.sqrt(2) * mp.pi
        worst = -mp.inf
        for n in range(2, 41):
            est = sinc_integral(n)
            worst = max(worst, 2 * est.value - bound_const)
        eq_gap = abs(2 * sinc_integral(2).value - bound_const)
    elapsed = time.monotonic() - t0
    ok = worst <= mp.mpf(10) ** -12 and eq_gap < mp.mpf(10) ** -12
    announce(9, ok, f"max excess {mp.nstr(worst, 2)}, n=2 gap {mp.nstr(eq_gap, 2)}, "
                    f"{elapsed:.1f}s")
    assert worst <= mp.mpf(10) ** -12
    assert eq_gap < mp.mpf(10) ** -12
