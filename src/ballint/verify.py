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


def _fit_note(order: int) -> str:
    fit, estimate, engine_abs, band, _ = sinc_coefficient_fit(order)
    return (f"decay fit at order {order}: fitted {estimate:.6g}, "
            f"engine {engine_abs:.6g}, band {band:.2g}, slope {fit.slope:.4f}")


def _report_exact(case_id: str, expected: Fraction, computed: Fraction, provenance: str,
                  notes: str = "") -> VerifyReport:
    return VerifyReport(
        id=case_id,
        expected=format_rational(expected),
        computed=format_rational(computed),
        tolerance="exact",
        status="pass" if expected == computed else "fail",
        provenance=provenance,
        notes=notes,
    )


def paper_constants_suite() -> list[VerifyReport]:
    reports: list[VerifyReport] = []
    exp7 = sinc_expansion(7, 8)
    ledgered = check_errata().coefficients

    for j in range(8):
        printed = parse_rational(REFERENCE_SINC[j])
        engine = exp7.coeffs[j]
        twin = next((i for i, s in REFERENCE_SINC.items() if i != j and s == REFERENCE_SINC[j]), None)
        if j in ledgered:
            # ledgered duplicated line; engine value cross-checked by decay fit
            reports.append(VerifyReport(
                id=f"sinc-c{j}",
                expected=REFERENCE_SINC[j],
                computed=format_rational(engine),
                tolerance="exact",
                status="erratum" if sinc_coefficient_fit(j)[4] else "fail",
                provenance="paper",
                notes=f"printed value duplicates the order-{twin} line; " + _fit_note(j),
            ))
            continue
        note = ""
        if twin in ledgered:
            note = f"printed value shared with the ledgered order-{twin} line; engine agrees with it"
        reports.append(_report_exact(f"sinc-c{j}", printed, engine, "paper", note))

    # closed forms in nu, checked as exact rational identities at samples
    for v in CLOSED_FORM_NUS:
        nu = Nu(v)
        a2 = Fraction(-1) / (2 * (v + 1) ** 2 * (v + 2))
        a3 = Fraction(-2) / (3 * (v + 1) ** 3 * (v + 2) * (v + 3))
        a4 = Fraction(v - 5) / (8 * (v + 1) ** 4 * (v + 2) * (v + 3) * (v + 4))
        for j, closed in ((2, a2), (3, a3), (4, a4)):
            reports.append(_report_exact(f"bessel-a{j}-nu-{v}", closed, bessel_aj(nu, j, k=8), "paper"))
        g = bessel_expansion(nu, 3).gamma_coeffs
        g1 = -v * (v + 1) / (2 * (v + 2))
        g2 = v * (v + 1) * (3 * v**2 + 2 * v - 5) / (24 * (v + 2) * (v + 3))
        g3 = -v * (v + 1) ** 2 * (v**3 - v**2 - 4 * v - 8) / (48 * (v + 2) ** 2 * (v + 4))
        for j, closed in ((1, g1), (2, g2), (3, g3)):
            reports.append(_report_exact(f"bessel-gamma{j}-nu-{v}", closed, g[j], "paper"))

    # limiting-constant and n = 2 closed forms for integer orders
    reports.append(_report_exact("c0-nu-1", Fraction(4), c0_exact(Nu(Fraction(1))), "paper"))
    reports.append(_report_exact("c0-nu-2", Fraction(72), c0_exact(Nu(Fraction(2))), "derived"))
    for v, val, prov in ((1, 4, "paper"), (2, 64, "derived"), (3, 3072, "derived")):
        reports.append(_report_exact(f"i-nu-{v}-at-2", Fraction(val), i_nu_at_2(Nu(Fraction(v))), prov))
    for v in (2, 3):
        nu = Nu(Fraction(v))
        ok = i_nu_at_2(nu) < c0_exact(nu)
        reports.append(VerifyReport(
            id=f"i-nu-{v}-below-c0",
            expected="value at n=2 below the limit constant",
            computed=f"{format_rational(i_nu_at_2(nu))} < {format_rational(c0_exact(nu))}",
            tolerance="strict inequality",
            status="pass" if ok else "fail",
            provenance="paper",
        ))
    return reports


def appendix_suite() -> list[VerifyReport]:
    reports: list[VerifyReport] = []
    check = check_errata()
    fixture = check.fixture
    ledgered = [(m, e) for m, e in check.mismatches if e is not None]
    unledgered = [(m.row, m.exponent) for m, e in check.mismatches if e is None]
    stale = [(e["row"], e["exponent"]) for e in check.stale]
    expected = len(fixture) - len(ledgered) - len(stale)

    matched = len(fixture) - sum((m.row, m.exponent) in fixture for m, _ in check.mismatches)
    reports.append(VerifyReport(
        id="appendix-monomials-matched",
        expected=f"{expected} of {len(fixture)} fixture monomials",
        computed=f"{matched} matched exactly",
        tolerance="exact",
        status="pass" if matched == expected else "fail",
        provenance="paper",
    ))

    if unledgered or stale:
        reports.append(VerifyReport(
            id="appendix-ledger-alignment",
            expected="mismatch set identical to the erratum ledger",
            computed=f"unledgered {sorted(unledgered)}, stale {sorted(stale)}",
            tolerance="exact",
            status="fail",
            provenance="derived",
        ))

    for mism, entry in ledgered:
        reports.append(VerifyReport(
            id=f"appendix-{entry['id']}",
            expected=entry["fixture"],
            computed=format_rational(mism.engine),
            tolerance="exact",
            status="erratum" if sinc_coefficient_fit(mism.row)[4] else "fail",
            provenance="paper",
            notes=f"{entry['classification']}; " + _fit_note(mism.row),
        ))

    for order in sorted({m.row for m, _ in check.mismatches} | set(check.coefficients)):
        fit, estimate, engine_abs, band, ok = sinc_coefficient_fit(order)
        reports.append(VerifyReport(
            id=f"decay-crosscheck-c{order}",
            expected=f"{engine_abs:.8g} (engine, absolute units)",
            computed=f"{estimate:.8g} (fit over n={fit.used_n})",
            tolerance=f"2x fit residual = {band:.2g}",
            status="pass" if ok else "fail",
            provenance="derived",
            notes=f"slope {fit.slope:.4f}",
        ))

    # observable rows are independent of the truncation index
    stable = appendix_table(k=8).rows[:8] == appendix_table(k=14).rows[:8]
    reports.append(VerifyReport(
        id="appendix-rows-k-stable",
        expected="rows 0..7 identical for truncation indexes 8 and 14",
        computed="identical" if stable else "differ",
        tolerance="exact",
        status="pass" if stable else "fail",
        provenance="derived",
    ))
    return reports


def reduction_suite() -> list[VerifyReport]:
    reports: list[VerifyReport] = []
    half = Nu(Fraction(1, 2))
    for m in range(5):
        same = bessel_expansion(half, m).gamma_coeffs == sinc_expansion(m).coeffs
        reports.append(VerifyReport(
            id=f"reduction-gamma-m{m}",
            expected="gamma coefficients equal the sinc coefficients",
            computed="equal" if same else "differ",
            tolerance="exact",
            status="pass" if same else "fail",
            provenance="paper",
        ))
    ps_ok = all(bessel_partial_sum(half, k) == sinc_partial_sum(k) for k in range(7))
    reports.append(VerifyReport(
        id="reduction-partial-sums",
        expected="partial sums identical for k = 0..6",
        computed="identical" if ps_ok else "differ",
        tolerance="exact",
        status="pass" if ps_ok else "fail",
        provenance="derived",
    ))
    with mp.workdps(45):
        c0 = c0_value(half, 40)
        target = mp.sqrt(3 * mp.pi / 2)
        diff = abs(c0 - target)
        ok = diff < mp.mpf(10) ** (-30)
    reports.append(VerifyReport(
        id="reduction-c0-half",
        expected=mp.nstr(target, 32),
        computed=mp.nstr(c0, 32),
        tolerance="1e-30",
        status="pass" if ok else "fail",
        provenance="derived",
    ))
    s5 = sinc_integral(5)
    b5 = bessel_integral(half, 5)
    with mp.workdps(40):
        diff = abs(s5.value - b5.value)
        budget = s5.abs_err_bound + b5.abs_err_bound
        ok = diff <= budget
    reports.append(VerifyReport(
        id="reduction-quadrature-n5",
        expected=mp.nstr(s5.value, 25),
        computed=mp.nstr(b5.value, 25),
        tolerance=f"combined bounds {mp.nstr(budget, 4)}",
        status="pass" if ok else "fail",
        provenance="derived",
    ))
    return reports


def decay_suite() -> list[VerifyReport]:
    reports: list[VerifyReport] = []
    prec = Precision(decimal_digits=50)
    fits = {}
    for m, tol in ((0, 0.15), (1, 0.10), (2, 0.15)):
        fit = fits[m] = remainder_decay_fit(m, (50, 100, 200, 400), prec=prec)
        ok = abs(fit.slope + (m + 1)) <= tol
        reports.append(VerifyReport(
            id=f"decay-slope-m{m}",
            expected=f"{-(m + 1)} within {tol}",
            computed=f"{fit.slope:.5f}",
            tolerance=f"{tol}",
            status="pass" if ok else "fail",
            provenance="derived",
            notes=f"grid {fit.used_n}, residuals max {max(abs(r) for r in fit.residuals):.2g}",
        ))
    # first-order remainder halves when n doubles; a dropped point fails the row
    r0 = dict(zip(fits[0].used_n, fits[0].remainders))
    ratio = float(abs(r0[100] / r0[200])) if {100, 200} <= r0.keys() else math.nan
    ok = abs(ratio - 2) <= 0.2
    reports.append(VerifyReport(
        id="decay-ratio-m0",
        expected="2 within 10%",
        computed=f"{ratio:.4f}",
        tolerance="0.2",
        status="pass" if ok else "fail",
        provenance="derived",
    ))
    return reports


def inequalities_suite() -> list[VerifyReport]:
    reports: list[VerifyReport] = []
    with mp.workdps(40):
        limit = mp.sqrt(2) * mp.pi
        worst = None
        ok_all = True
        sweep = range(2, 41)
        for n, est in zip(sweep, sinc_integrals(sweep)):
            excess = 2 * est.value - limit
            if worst is None or excess > worst[1]:
                worst = (n, excess)
            if excess > mp.mpf(10) ** (-12):
                ok_all = False
        reports.append(VerifyReport(
            id="ball-sweep-2-40",
            expected="2 * integral <= sqrt(2) pi + 1e-12",
            computed=f"max excess {mp.nstr(worst[1], 4)} at n={worst[0]}",
            tolerance="1e-12",
            status="pass" if ok_all else "fail",
            provenance="paper",
        ))
        eq2 = abs(2 * sinc_integral(2).value - limit)
        reports.append(VerifyReport(
            id="ball-equality-n2",
            expected="equality at n=2",
            computed=f"gap {mp.nstr(eq2, 4)}",
            tolerance="1e-12",
            status="pass" if eq2 < mp.mpf(10) ** (-12) else "fail",
            provenance="paper",
        ))

        # one batch: every n shares its zeros and kernel values
        sweep_b = dict(zip(range(2, 21), bessel_integrals(Nu(Fraction(1)), range(2, 21))))
        est2 = sweep_b[2]
        gap = abs(est2.value - 4)
        reports.append(VerifyReport(
            id="bessel-nu1-n2-value",
            expected="4",
            computed=mp.nstr(est2.value, 20),
            tolerance="1e-8",
            status="pass" if gap < mp.mpf(10) ** (-8) else "fail",
            provenance="paper",
        ))
        ok_b = True
        worst_b = None
        for n, est in sweep_b.items():
            excess = est.value - 4 - est.abs_err_bound
            if worst_b is None or excess > worst_b[1]:
                worst_b = (n, excess)
            if excess > 0:
                ok_b = False
        reports.append(VerifyReport(
            id="bessel-nu1-sweep-2-20",
            expected="value <= 4 + abs_err_bound",
            computed=f"max excess {mp.nstr(worst_b[1], 4)} at n={worst_b[0]}",
            tolerance="0",
            status="pass" if ok_b else "fail",
            provenance="paper",
        ))

        # tested assumption: the normalized kernel never exceeds 1
        bounded = True
        slack = 1 + mp.mpf(10) ** (-25)
        for v in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(7, 3)):
            nu = Nu(v)
            for i in range(1, 201):
                t = mp.mpf(i) / 10
                if abs(bessel_j_normalized(nu, t).value) > slack:
                    bounded = False
        reports.append(VerifyReport(
            id="normalized-kernel-bounded",
            expected="|f_nu(t)| <= 1 on (0, 20], four orders sampled",
            computed="bounded" if bounded else "exceeded",
            tolerance="1e-25 slack",
            status="pass" if bounded else "fail",
            provenance="derived",
            notes="tested assumption; grid step 0.1",
        ))
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
