"""Verification suites tying the exact pipelines to their references.

Five suites, each a list of VerifyReport rows:

  paper-constants  expansion coefficients and closed forms against the
                   shipped reference values (exact rational equality)
  appendix         the degree-28 table against the shipped fixture,
                   modulo the erratum ledger, with decay-fit crosschecks
  reduction        the nu = 1/2 collapse onto the sinc pipeline
  decay            remainder decay exponents against expansion orders
  inequalities     the sweep bounds and closed-form endpoint identities

A suite fails (exit 1 downstream) only on rows with status "fail";
ledgered disagreements surface as "erratum" and do not fail, but each
carries a numerical cross-check in its notes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .bessel import (
    Nu,
    bessel_aj,
    bessel_expansion,
    bessel_partial_sum,
    c0_exact,
    c0_value,
    i_nu_at_2,
)
from .quadrature import (
    DecayFit,
    Precision,
    bessel_integral,
    bessel_integrals,
    bessel_j_normalized,
    remainder_decay_fit,
    sinc_integral,
    sinc_integrals,
)
from .records import VerifyReport
from .rationals import format_rational, parse_rational
from .sinc import REFERENCE_SINC, appendix_table, check_errata, sinc_expansion, sinc_partial_sum

__all__ = [
    "SUITES",
    "run_suite",
    "suite_exit_code",
    "sinc_coefficient_fit",
]

CLOSED_FORM_NUS = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]

FIT_GRID = (90, 135, 200, 300)
FIT_DIGITS = 60


@lru_cache(maxsize=None)
def _engine_coeffs_deep() -> tuple[Fraction, ...]:
    """Exact expansion coefficients through order 13 (truncation index 14)."""
    return sinc_expansion(13).coeffs


@lru_cache(maxsize=None)
def sinc_coefficient_fit(order: int) -> tuple[DecayFit, float, float, float, bool]:
    """Cross-validate the engine's order-`order` coefficient by quadrature.

    Runs the decay fit on the order-(order-1) remainder and pins the
    theoretical exponent on the remainders it fitted: each
    c_i = r(n_i) n_i^order estimates the coefficient in absolute units.
    Their mean is the
    estimate and twice their spread around it is the acceptance band;
    for geometric grids a genuine 1/n subleading correction shifts the
    mean by less than that band, while a wrong target value (sign flips,
    order-of-magnitude misprints) lands far outside it.
    Returns (fit, estimate, engine value in absolute units, band, ok),
    memoised per order.
    """
    fit = remainder_decay_fit(order - 1, FIT_GRID, prec=Precision(decimal_digits=FIT_DIGITS))
    c = _engine_coeffs_deep()[order]
    with mp.workdps(30):
        engine_abs = float(mp.sqrt(3 * mp.pi / 2) * mp.mpf(c.numerator) / c.denominator)
    ests = [float(r * n**order) for n, r in zip(fit.used_n, fit.remainders)]
    estimate = sum(ests) / len(ests)
    band = 2.0 * max(abs(e - estimate) for e in ests)
    ok = abs(estimate - engine_abs) <= band
    return fit, estimate, engine_abs, band, ok


def _report(case_id: str, expected: str, computed: str, tolerance: str, ok: bool, provenance: str,
            notes: str = "") -> VerifyReport:
    return VerifyReport(case_id, expected, computed, tolerance, "pass" if ok else "fail", provenance, notes)


def _exact(case_id: str, expected: Fraction, computed: Fraction, provenance: str, notes: str = "") -> VerifyReport:
    return _report(case_id, format_rational(expected), format_rational(computed), "exact",
                   expected == computed, provenance, notes)


def _ledgered(case_id: str, printed: str, engine: Fraction, order: int, reason: str) -> VerifyReport:
    """A printed value the erratum ledger disowns: "erratum" while the decay fit
    at `order` agrees with the engine, "fail" otherwise."""
    fit, estimate, engine_abs, band, ok = sinc_coefficient_fit(order)
    return VerifyReport(case_id, printed, format_rational(engine), "exact", "erratum" if ok else "fail", "paper",
                        f"{reason}; decay fit at order {order}: fitted {estimate:.6g}, "
                        f"engine {engine_abs:.6g}, band {band:.2g}, slope {fit.slope:.4f}")


def paper_constants_suite() -> list[VerifyReport]:
    reports: list[VerifyReport] = []
    exp7 = sinc_expansion(7, 8)
    ledgered = check_errata().coefficients

    for j in range(8):
        printed = parse_rational(REFERENCE_SINC[j])
        engine = exp7.coeffs[j]
        twin = next((i for i, s in REFERENCE_SINC.items() if i != j and s == REFERENCE_SINC[j]), None)
        if j in ledgered:
            reports.append(_ledgered(f"sinc-c{j}", REFERENCE_SINC[j], engine, j,
                                     f"printed value duplicates the order-{twin} line"))
            continue
        note = ""
        if twin in ledgered:
            note = f"printed value shared with the ledgered order-{twin} line; engine agrees with it"
        reports.append(_exact(f"sinc-c{j}", printed, engine, "paper", note))

    # closed forms in nu, checked as exact rational identities at samples
    for v in CLOSED_FORM_NUS:
        nu = Nu(v)
        a2 = Fraction(-1) / (2 * (v + 1) ** 2 * (v + 2))
        a3 = Fraction(-2) / (3 * (v + 1) ** 3 * (v + 2) * (v + 3))
        a4 = Fraction(v - 5) / (8 * (v + 1) ** 4 * (v + 2) * (v + 3) * (v + 4))
        for j, closed in ((2, a2), (3, a3), (4, a4)):
            reports.append(_exact(f"bessel-a{j}-nu-{v}", closed, bessel_aj(nu, j, k=8), "paper"))
        g = bessel_expansion(nu, 3).gamma_coeffs
        g1 = -v * (v + 1) / (2 * (v + 2))
        g2 = v * (v + 1) * (3 * v**2 + 2 * v - 5) / (24 * (v + 2) * (v + 3))
        g3 = -v * (v + 1) ** 2 * (v**3 - v**2 - 4 * v - 8) / (48 * (v + 2) ** 2 * (v + 4))
        for j, closed in ((1, g1), (2, g2), (3, g3)):
            reports.append(_exact(f"bessel-gamma{j}-nu-{v}", closed, g[j], "paper"))

    # limiting-constant and n = 2 closed forms for integer orders
    reports.append(_exact("c0-nu-1", Fraction(4), c0_exact(Nu(Fraction(1))), "paper"))
    reports.append(_exact("c0-nu-2", Fraction(72), c0_exact(Nu(Fraction(2))), "derived"))
    for v, val, prov in ((1, 4, "paper"), (2, 64, "derived"), (3, 3072, "derived")):
        reports.append(_exact(f"i-nu-{v}-at-2", Fraction(val), i_nu_at_2(Nu(Fraction(v))), prov))
    for v in (2, 3):
        nu = Nu(Fraction(v))
        at2, c0 = i_nu_at_2(nu), c0_exact(nu)
        reports.append(_report(f"i-nu-{v}-below-c0", "value at n=2 below the limit constant",
                               f"{format_rational(at2)} < {format_rational(c0)}", "strict inequality",
                               at2 < c0, "paper"))
    return reports


def appendix_suite() -> list[VerifyReport]:
    check = check_errata()
    fixture = check.fixture
    ledgered = [(m, e) for m, e in check.mismatches if e is not None]
    expected = len(fixture) - len(ledgered) - len(check.stale)

    matched = len(fixture) - sum((m.row, m.exponent) in fixture for m, _ in check.mismatches)
    reports = [_report("appendix-monomials-matched", f"{expected} of {len(fixture)} fixture monomials",
                       f"{matched} matched exactly", "exact", matched == expected, "paper")]
    if check.unledgered or check.stale:
        reports.append(_report("appendix-ledger-alignment", "mismatch set identical to the erratum ledger",
                               f"unledgered {list(check.unledgered)}, stale {list(check.stale)}", "exact", False,
                               "derived"))
    reports += [_ledgered(f"appendix-{entry['id']}", entry["fixture"], mism.engine, mism.row, entry["classification"])
                for mism, entry in ledgered]

    for order in sorted({m.row for m, _ in check.mismatches} | set(check.coefficients)):
        fit, estimate, engine_abs, band, ok = sinc_coefficient_fit(order)
        reports.append(_report(f"decay-crosscheck-c{order}", f"{engine_abs:.8g} (engine, absolute units)",
                               f"{estimate:.8g} (fit over n={fit.used_n})", f"2x fit residual = {band:.2g}",
                               ok, "derived", f"slope {fit.slope:.4f}"))

    # observable rows are independent of the truncation index
    stable = appendix_table(k=8).rows[:8] == appendix_table(k=14).rows[:8]
    reports.append(_report("appendix-rows-k-stable", "rows 0..7 identical for truncation indexes 8 and 14",
                           "identical" if stable else "differ", "exact", stable, "derived"))
    return reports


def reduction_suite() -> list[VerifyReport]:
    reports: list[VerifyReport] = []
    half = Nu(Fraction(1, 2))
    for m in range(5):
        same = bessel_expansion(half, m).gamma_coeffs == sinc_expansion(m).coeffs
        reports.append(_report(f"reduction-gamma-m{m}", "gamma coefficients equal the sinc coefficients",
                               "equal" if same else "differ", "exact", same, "paper"))
    ps_ok = all(bessel_partial_sum(half, k) == sinc_partial_sum(k) for k in range(7))
    reports.append(_report("reduction-partial-sums", "partial sums identical for k = 0..6",
                           "identical" if ps_ok else "differ", "exact", ps_ok, "derived"))
    with mp.workdps(45):
        c0 = c0_value(half, 40)
        target = mp.sqrt(3 * mp.pi / 2)
        ok = abs(c0 - target) < mp.mpf(10) ** (-30)
    reports.append(_report("reduction-c0-half", mp.nstr(target, 32), mp.nstr(c0, 32), "1e-30", ok, "derived"))
    s5 = sinc_integral(5)
    b5 = bessel_integral(half, 5)
    with mp.workdps(40):
        budget = s5.abs_err_bound + b5.abs_err_bound
        ok = abs(s5.value - b5.value) <= budget
    reports.append(_report("reduction-quadrature-n5", mp.nstr(s5.value, 25), mp.nstr(b5.value, 25),
                           f"combined bounds {mp.nstr(budget, 4)}", ok, "derived"))
    return reports


def decay_suite() -> list[VerifyReport]:
    reports: list[VerifyReport] = []
    prec = Precision(decimal_digits=50)
    fits = {}
    for m, tol in ((0, 0.15), (1, 0.10), (2, 0.15)):
        fit = fits[m] = remainder_decay_fit(m, (50, 100, 200, 400), prec=prec)
        reports.append(_report(f"decay-slope-m{m}", f"{-(m + 1)} within {tol}", f"{fit.slope:.5f}", f"{tol}",
                               abs(fit.slope + (m + 1)) <= tol, "derived",
                               f"grid {fit.used_n}, residuals max {max(abs(r) for r in fit.residuals):.2g}"))
    # first-order remainder halves when n doubles; a dropped point fails the row
    r0 = dict(zip(fits[0].used_n, fits[0].remainders))
    ratio = float(abs(r0[100] / r0[200])) if {100, 200} <= r0.keys() else math.nan
    reports.append(_report("decay-ratio-m0", "2 within 10%", f"{ratio:.4f}", "0.2", abs(ratio - 2) <= 0.2, "derived"))
    return reports


def inequalities_suite() -> list[VerifyReport]:
    reports: list[VerifyReport] = []
    with mp.workdps(40):
        limit = mp.sqrt(2) * mp.pi
        sweep = range(2, 41)
        # the first n of largest excess, as for the Bessel sweep below
        n, excess = max(((n, 2 * est.value - limit) for n, est in zip(sweep, sinc_integrals(sweep))),
                        key=lambda pair: pair[1])
        reports.append(_report("ball-sweep-2-40", "2 * integral <= sqrt(2) pi + 1e-12",
                               f"max excess {mp.nstr(excess, 4)} at n={n}", "1e-12",
                               excess <= mp.mpf(10) ** (-12), "paper"))
        eq2 = abs(2 * sinc_integral(2).value - limit)
        reports.append(_report("ball-equality-n2", "equality at n=2", f"gap {mp.nstr(eq2, 4)}", "1e-12",
                               eq2 < mp.mpf(10) ** (-12), "paper"))

        # one batch: every n shares its zeros and kernel values
        sweep_b = dict(zip(range(2, 21), bessel_integrals(Nu(Fraction(1)), range(2, 21))))
        est2 = sweep_b[2]
        reports.append(_report("bessel-nu1-n2-value", "4", mp.nstr(est2.value, 20), "1e-8",
                               abs(est2.value - 4) < mp.mpf(10) ** (-8), "paper"))
        n, excess = max(((n, est.value - 4 - est.abs_err_bound) for n, est in sweep_b.items()),
                        key=lambda pair: pair[1])
        reports.append(_report("bessel-nu1-sweep-2-20", "value <= 4 + abs_err_bound",
                               f"max excess {mp.nstr(excess, 4)} at n={n}", "0", excess <= 0, "paper"))

        # tested assumption: the normalized kernel never exceeds 1
        slack = 1 + mp.mpf(10) ** (-25)
        nus = [Nu(v) for v in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(7, 3))]
        exceeded = [abs(bessel_j_normalized(nu, mp.mpf(i) / 10).value) > slack for nu in nus for i in range(1, 201)]
        reports.append(_report("normalized-kernel-bounded", "|f_nu(t)| <= 1 on (0, 20], four orders sampled",
                               "exceeded" if any(exceeded) else "bounded", "1e-25 slack", not any(exceeded),
                               "derived", "tested assumption; grid step 0.1"))
    return reports


SUITES = {
    "paper-constants": paper_constants_suite,
    "appendix": appendix_suite,
    "reduction": reduction_suite,
    "decay": decay_suite,
    "inequalities": inequalities_suite,
}


def run_suite(name: str) -> list[VerifyReport]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()


def suite_exit_code(reports: list[VerifyReport]) -> int:
    return 1 if any(r.status == "fail" for r in reports) else 0
