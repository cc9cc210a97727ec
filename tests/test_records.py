"""Record types and renderers: schema stability, canonical-form guards."""

import json
from fractions import Fraction

import mpmath as mp
import pytest

from ballint.bessel import Nu, bessel_expansion
from ballint.quadrature import sinc_integral
from ballint.records import (
    CoeffRecord,
    VerifyReport,
    bessel_coeff_records,
    estimate_to_json,
    estimate_to_text,
    records_to_csv,
    records_to_json,
    records_to_text,
    reports_to_json,
    reports_to_text,
    sinc_coeff_records,
)
from ballint.sinc import sinc_expansion


class TestCoeffRecord:
    def test_rational_must_be_canonical(self):
        with pytest.raises(ValueError):
            CoeffRecord(pipeline="sinc", nu=None, j=0, rational="2/4",
                        decimal="0.5", unit="sqrt(3*pi/2)")

    def test_valid_record(self):
        r = CoeffRecord(pipeline="sinc", nu=None, j=1, rational="-3/20",
                        decimal="-0.32", unit="sqrt(3*pi/2)")
        assert r.j == 1


class TestVerifyReport:
    def test_status_enum(self):
        with pytest.raises(ValueError, match="bad status"):
            VerifyReport(id="x", expected="1", computed="1", tolerance="exact",
                         status="ok", provenance="paper")

    def test_provenance_enum(self):
        with pytest.raises(ValueError, match="bad provenance"):
            VerifyReport(id="x", expected="1", computed="1", tolerance="exact",
                         status="pass", provenance="guessed")

    def test_notes_default_empty(self):
        r = VerifyReport(id="x", expected="1", computed="1", tolerance="exact",
                         status="erratum", provenance="derived")
        assert r.notes == ""


class TestCoeffRenderers:
    def test_sinc_records(self):
        recs = sinc_coeff_records(sinc_expansion(3).coeffs)
        assert [r.j for r in recs] == [0, 1, 2, 3]
        assert all(r.pipeline == "sinc" and r.nu is None for r in recs)
        assert recs[1].rational == "-3/20"
        assert recs[0].unit == "sqrt(3*pi/2)"
        # j = 0 decimal is the unit itself
        assert recs[0].decimal.startswith("2.17080")

    def test_bessel_records(self):
        nu = Nu(Fraction(1))
        recs = bessel_coeff_records(nu, bessel_expansion(nu, 2).gamma_coeffs)
        assert all(r.pipeline == "bessel" and r.nu == Fraction(1) for r in recs)
        assert recs[0].unit == "c0(1)"
        assert recs[0].decimal.startswith("4.0000")
        assert recs[1].rational == "-1/3"

    def test_json_schema(self):
        doc = json.loads(records_to_json(sinc_coeff_records(sinc_expansion(2).coeffs)))
        assert set(doc) == {"kind", "pipeline", "nu", "order", "unit", "coefficients"}
        assert doc["kind"] == "coefficients"
        assert doc["pipeline"] == "sinc"
        assert doc["nu"] is None
        assert doc["order"] == 2
        assert [set(c) for c in doc["coefficients"]] == [{"j", "rational", "decimal"}] * 3
        assert doc["coefficients"][2]["rational"] == "-13/1120"

    def test_json_bessel_nu_string(self):
        nu = Nu(Fraction(3, 2))
        doc = json.loads(records_to_json(bessel_coeff_records(nu, bessel_expansion(nu, 1).gamma_coeffs)))
        assert doc["nu"] == "3/2"

    def test_json_empty_rejected(self):
        with pytest.raises(ValueError):
            records_to_json([])

    def test_csv(self):
        lines = records_to_csv(sinc_coeff_records(sinc_expansion(2).coeffs)).splitlines()
        assert lines[0] == "j,rational,decimal"
        assert len(lines) == 4
        assert lines[1].startswith("0,1,2.17080")
        assert lines[2].startswith("1,-3/20,")

    def test_text(self):
        out = records_to_text(sinc_coeff_records(sinc_expansion(1).coeffs), "header line")
        assert out.splitlines()[0] == "header line"
        assert "j=0" in out and "-3/20" in out


class TestEstimateRenderers:
    def test_json_schema(self):
        est = sinc_integral(5)
        doc = json.loads(estimate_to_json(est, "sinc", None, 5, digits=20))
        assert set(doc) == {"kind", "pipeline", "nu", "n", "value",
                            "abs_err_bound", "cutoff", "pieces"}
        assert doc["kind"] == "estimate"
        assert doc["n"] == 5
        with mp.workdps(30):
            assert abs(mp.mpf(doc["value"]) - est.value) < mp.mpf(10) ** -18

    def test_text(self):
        est = sinc_integral(5)
        out = estimate_to_text(est, "I(5)", digits=20)
        assert out.splitlines()[0] == "I(5)"
        assert "value" in out and "abs_err_bound" in out


class TestReportRenderers:
    REPORTS = [
        VerifyReport(id="a", expected="1", computed="1", tolerance="exact",
                     status="pass", provenance="paper"),
        VerifyReport(id="b", expected="2", computed="3", tolerance="exact",
                     status="erratum", provenance="derived", notes="known misprint"),
    ]

    def test_text_summary_line(self):
        out = reports_to_text(self.REPORTS, "demo")
        assert out.splitlines()[0] == "verify demo"
        assert out.splitlines()[-1].strip() == "1 pass, 0 fail, 1 erratum"
        assert "note: known misprint" in out

    def test_json_schema(self):
        doc = json.loads(reports_to_json(self.REPORTS, "demo"))
        assert set(doc) == {"kind", "suite", "reports"}
        assert doc["kind"] == "verify" and doc["suite"] == "demo"
        row = doc["reports"][0]
        assert set(row) == {"id", "expected", "computed", "tolerance",
                            "status", "provenance", "notes"}
        assert doc["reports"][1]["status"] == "erratum"
