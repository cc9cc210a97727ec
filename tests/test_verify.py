"""Verification suites: composition, statuses, exit-code mapping."""

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from ballint import bessel, sinc, verify
from ballint.quadrature import remainder_decay_fit
from ballint.records import VerifyReport, reports_to_json
from ballint.verify import SUITES, run_suite, suite_exit_code


def _report(status):
    return VerifyReport(id="x", expected="1", computed="1", tolerance="exact",
                        status=status, provenance="trivial")


class TestRegistry:
    def test_suite_names(self):
        assert set(SUITES) == {
            "paper-constants", "appendix", "reduction", "decay", "inequalities",
        }

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nonsense")


class TestExitCode:
    def test_pass_only(self):
        assert suite_exit_code([_report("pass")]) == 0

    def test_erratum_is_not_failure(self):
        assert suite_exit_code([_report("pass"), _report("erratum")]) == 0

    def test_fail(self):
        assert suite_exit_code([_report("pass"), _report("fail")]) == 1


class TestPaperConstantsSuite:
    def test_statuses(self):
        reports = run_suite("paper-constants")
        by_status = {}
        for r in reports:
            by_status.setdefault(r.status, []).append(r.id)
        assert "fail" not in by_status
        # exactly one erratum: the duplicated printed line at order 5
        assert by_status["erratum"] == ["sinc-c5"]
        erratum = next(r for r in reports if r.id == "sinc-c5")
        assert "decay fit" in erratum.notes
        assert {r.provenance for r in reports} <= {"paper", "derived", "trivial"}

    @pytest.mark.parametrize("drift", ["removed", "recomputed"])
    def test_c5_needs_its_ledger_entry(self, monkeypatch, drift):
        errata = sinc.load_errata()
        if drift == "removed":
            errata["coefficients"] = [e for e in errata["coefficients"] if e["id"] != "remark-c5"]
        else:
            errata["coefficients"][0]["recomputed"] = "1/3"
        monkeypatch.setattr(sinc, "load_errata", lambda: errata)
        reports = {r.id: r for r in run_suite("paper-constants")}
        assert reports["sinc-c5"].status == "fail"
        assert [r.id for r in reports.values() if r.status != "pass"] == ["sinc-c5"]
        assert reports["sinc-c7"].notes == ""


class TestAppendixSuite:
    def test_statuses(self):
        reports = run_suite("appendix")
        assert all(r.status != "fail" for r in reports)
        errata = [r for r in reports if r.status == "erratum"]
        assert len(errata) == 13
        crosschecks = [r for r in reports if r.id.startswith("decay-crosscheck-")]
        assert len(crosschecks) == 7
        assert all(r.status == "pass" for r in crosschecks)


class TestFailBranches:
    # each row that a check decides must turn "fail", and only it, when its
    # inputs are pushed past the check; the real values come from the memos

    @pytest.fixture
    def fit_disagrees(self, monkeypatch):
        fit = verify.sinc_coefficient_fit
        monkeypatch.setattr(verify, "sinc_coefficient_fit", lambda order: (*fit(order)[:4], False))

    def test_appendix_rows_fail_without_the_fit(self, fit_disagrees):
        reports = run_suite("appendix")
        failed = [r.id for r in reports if r.status == "fail"]
        assert not any(r.status == "erratum" for r in reports)
        assert len(failed) == 20
        assert sum(i.startswith("decay-crosscheck-c") for i in failed) == 7
        assert {r.id for r in reports if r.status == "pass"} == {
            "appendix-monomials-matched", "appendix-rows-k-stable"}

    def test_ledgered_sinc_c5_fails_without_the_fit(self, fit_disagrees):
        reports = {r.id: r for r in run_suite("paper-constants")}
        assert [i for i, r in reports.items() if r.status != "pass"] == ["sinc-c5"]
        assert reports["sinc-c5"].status == "fail" and "decay fit at order 5" in reports["sinc-c5"].notes

    def test_c0_comparison_rows_fail_with_a_wrong_c0(self, monkeypatch):
        # the rows decide the comparison of I_nu(2) with c_0: a halved c_0 fails
        # them, and the suite still returns every row
        for module in (bessel, verify):
            monkeypatch.setattr(module, "c0_exact", lambda nu, real=bessel.c0_exact: real(nu) / 2)
        reports = {r.id: r for r in run_suite("paper-constants")}
        assert [i for i, r in reports.items() if r.status == "fail"] == [
            "c0-nu-1", "c0-nu-2", "i-nu-2-below-c0", "i-nu-3-below-c0"]
        assert all(reports[f"i-nu-{v}-at-2"].status == "pass" for v in (1, 2, 3))

    def test_sinc_sweep_names_the_worst_n(self, monkeypatch):
        real = verify.sinc_integrals

        def pushed(ns):
            ests = real(ns)
            with mp.workdps(40):
                over = mp.sqrt(2) * mp.pi / 2 + mp.mpf(10) ** -11
            return [replace(e, value=over) if n == 17 else e for n, e in zip(ns, ests)]

        monkeypatch.setattr(verify, "sinc_integrals", pushed)
        reports = {r.id: r for r in run_suite("inequalities")}
        assert reports["ball-sweep-2-40"].status == "fail"
        assert reports["ball-sweep-2-40"].computed == "max excess 2.0e-11 at n=17"
        assert [i for i, r in reports.items() if r.status != "pass"] == ["ball-sweep-2-40"]

    def test_bessel_sweep_names_the_worst_n(self, monkeypatch):
        real = verify.bessel_integrals

        def pushed(nu, ns):
            ests = real(nu, ns)
            return [replace(e, value=4 + e.abs_err_bound + mp.mpf(10) ** -6) if n == 11 else e
                    for n, e in zip(ns, ests)]

        monkeypatch.setattr(verify, "bessel_integrals", pushed)
        reports = {r.id: r for r in run_suite("inequalities")}
        assert reports["bessel-nu1-sweep-2-20"].status == "fail"
        assert reports["bessel-nu1-sweep-2-20"].computed == "max excess 1.0e-6 at n=11"
        assert [i for i, r in reports.items() if r.status != "pass"] == ["bessel-nu1-sweep-2-20"]

    def test_reduction_quadrature_fails_past_both_bounds(self, monkeypatch):
        real = verify.bessel_integral

        def shifted(nu, n):
            est = real(nu, n)
            return replace(est, value=est.value + 2 * est.abs_err_bound + mp.mpf(10) ** -4)

        monkeypatch.setattr(verify, "bessel_integral", shifted)
        reports = {r.id: r for r in run_suite("reduction")}
        assert reports["reduction-quadrature-n5"].status == "fail"
        assert [i for i, r in reports.items() if r.status != "pass"] == ["reduction-quadrature-n5"]

    def test_reduction_aj_fails_on_a_perturbed_sine_series(self, monkeypatch):
        # a_9, one part in 10^6 off: only the row that reads the sine series fails
        real = sinc.sinc_aj

        def off(j, k):
            return real(j, k) * (1 + Fraction(1, 10**6)) if j == 9 else real(j, k)

        monkeypatch.setattr(verify, "sinc_aj", off)
        monkeypatch.setattr(sinc, "sinc_aj", off)
        reports = {r.id: r for r in run_suite("reduction")}
        assert reports["reduction-aj"].status == "fail"
        assert [i for i, r in reports.items() if r.status != "pass"] == ["reduction-aj"]


class TestDecaySuite:
    def test_dropped_ratio_point_fails_the_row(self, monkeypatch):
        def without_100(m, grid, prec=None):
            fit = remainder_decay_fit(m, grid, prec=prec)
            keep = [i for i, n in enumerate(fit.used_n) if n != 100]
            return replace(fit, used_n=tuple(fit.used_n[i] for i in keep),
                           remainders=tuple(fit.remainders[i] for i in keep))

        monkeypatch.setattr(verify, "remainder_decay_fit", without_100)
        ratio = next(r for r in run_suite("decay") if r.id == "decay-ratio-m0")
        assert ratio.status == "fail" and ratio.computed == "nan"


class TestNumericalSuites:
    @pytest.mark.parametrize("suite", ["reduction", "decay", "inequalities"])
    def test_all_pass(self, suite):
        reports = run_suite(suite)
        assert reports
        assert all(r.status == "pass" for r in reports), [
            (r.id, r.status) for r in reports if r.status != "pass"
        ]


GOLDEN = Path(__file__).parent / "data" / "verify"


class TestGoldenReports:
    # the files are what `ballint verify <suite> --report` wrote before the
    # sweeps were batched; a changed row needs a regenerated file and a reason
    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_report_bytes(self, suite):
        want = (GOLDEN / f"{suite}.json").read_text(encoding="utf-8")
        assert reports_to_json(run_suite(suite), suite) + "\n" == want
