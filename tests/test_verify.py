"""Verification suites: composition, statuses, exit-code mapping."""

from pathlib import Path

import pytest

from ballint import sinc
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


class TestDecaySuite:
    def test_dropped_ratio_point_fails_the_row(self, monkeypatch):
        from dataclasses import replace

        from ballint import verify

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
