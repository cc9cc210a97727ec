"""Command-line surface: formats, exit codes, cache transparency."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import ballint
from ballint import cli, sinc
from ballint.cli import EXIT_OK, EXIT_PRECISION, EXIT_USAGE, EXIT_VERIFY, main
from ballint.rationals import parse_rational


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("BALLINT_CACHE_DIR", str(tmp_path / "cache"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSincCoeffs:
    def test_text_table(self, capsys):
        code, out, _ = run_cli(capsys, "sinc-coeffs", "--order", "2")
        assert code == EXIT_OK
        assert "-3/20" in out and "-13/1120" in out
        assert out.splitlines()[0].startswith("sinc coefficients, order 2")

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "sinc-coeffs", "--order", "4", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kind"] == "coefficients"
        assert doc["unit"] == "sqrt(3*pi/2)"
        assert doc["coefficients"][4]["rational"] == "52791/3942400"
        # decimal column re-derivable from the exact rational and the unit
        with mp.workdps(40):
            unit = mp.sqrt(3 * mp.pi / 2)
            for entry in doc["coefficients"]:
                q = parse_rational(entry["rational"])
                want = mp.mpf(q.numerator) / q.denominator * unit
                assert abs(mp.mpf(entry["decimal"]) - want) < mp.mpf(10) ** -27

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "sinc-coeffs", "--order", "1", "--format", "csv")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "j,rational,decimal"
        assert lines[2].startswith("1,-3/20,")

    def test_cache_transparent_byte_for_byte(self, capsys):
        first = run_cli(capsys, "sinc-coeffs", "--order", "6")      # cold: computes, stores
        second = run_cli(capsys, "sinc-coeffs", "--order", "6")     # warm: loads
        bypass = run_cli(capsys, "sinc-coeffs", "--order", "6", "--no-cache")
        assert first == second == bypass
        assert "-124996631/10035200000" in first[1]

    def test_order_ceiling(self, capsys):
        code, _, err = run_cli(capsys, "sinc-coeffs", "--order", "13")
        assert code == EXIT_USAGE and "error:" in err

    def test_digits_floor(self, capsys):
        code, out, err = run_cli(capsys, "sinc-coeffs", "--order", "2", "--digits", "0")
        assert code == EXIT_USAGE and "--digits" in err and out == ""


class TestBesselCoeffs:
    def test_text_table(self, capsys):
        code, out, _ = run_cli(capsys, "bessel-coeffs", "--nu", "1", "--order", "3")
        assert code == EXIT_OK
        assert "-1/3" in out and "1/45" in out

    def test_json_nu_field(self, capsys):
        code, out, _ = run_cli(capsys, "bessel-coeffs", "--nu", "7/3", "--order", "2",
                               "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["nu"] == "7/3" and doc["pipeline"] == "bessel"

    def test_cache_transparent(self, capsys):
        first = run_cli(capsys, "bessel-coeffs", "--nu", "3/2", "--order", "4")
        second = run_cli(capsys, "bessel-coeffs", "--nu", "3/2", "--order", "4")
        assert first == second

    def test_nu_validation(self, capsys):
        code, _, err = run_cli(capsys, "bessel-coeffs", "--nu", "1/3", "--order", "2")
        assert code == EXIT_USAGE and "at least 1/2" in err
        code, _, err = run_cli(capsys, "bessel-coeffs", "--nu", "x", "--order", "2")
        assert code == EXIT_USAGE

    def test_order_ceiling(self, capsys):
        code, _, _ = run_cli(capsys, "bessel-coeffs", "--nu", "1", "--order", "9")
        assert code == EXIT_USAGE

    def test_digits_floor(self, capsys):
        code, out, err = run_cli(capsys, "bessel-coeffs", "--nu", "1", "--order", "2", "--digits", "0")
        assert code == EXIT_USAGE and "--digits" in err and out == ""


class TestEval:
    def test_sinc_text(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "sinc", "--n", "5")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "sinc integral, n = 5"
        assert "abs_err_bound" in out

    def test_bessel_json(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "bessel", "--n", "2", "--nu", "1",
                               "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["pipeline"] == "bessel" and doc["nu"] == "1" and doc["n"] == 2
        assert abs(float(doc["value"]) - 4.0) < 1e-12

    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "eval", "sinc", "--n", "1")[0] == EXIT_USAGE
        assert run_cli(capsys, "eval", "sinc", "--n", "5", "--nu", "1")[0] == EXIT_USAGE
        assert run_cli(capsys, "eval", "bessel", "--n", "5")[0] == EXIT_USAGE
        # eval offers text and json only, so argparse refuses csv
        with pytest.raises(SystemExit) as exc:
            main(["eval", "sinc", "--n", "5", "--format", "csv"])
        assert exc.value.code == EXIT_USAGE
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    def test_sinc_rejects_cutoff_mult(self, capsys):
        code, _, err = run_cli(capsys, "eval", "sinc", "--n", "5", "--cutoff-mult", "6")
        assert code == EXIT_USAGE and "--cutoff-mult" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_cutoff_mult(self, capsys, value):
        code, _, err = run_cli(capsys, "eval", "bessel", "--n", "5", "--nu", "1", "--cutoff-mult", value)
        assert code == EXIT_USAGE and "finite" in err

    @pytest.mark.parametrize("value", ["1e4", "1e8"])
    def test_cutoff_mult_above_limit(self, capsys, value):
        code, _, err = run_cli(capsys, "eval", "bessel", "--n", "5", "--nu", "1", "--cutoff-mult", value)
        assert code == EXIT_USAGE and "X_MAX = 1024" in err

    def test_cutoff_above_x_max(self, capsys):
        # at nu = 6 even the smallest multiplier gives X = 46080, refused before any kernel call
        code, out, err = run_cli(capsys, "eval", "bessel", "--n", "5", "--nu", "6", "--cutoff-mult", "1")
        assert code == EXIT_USAGE and out == ""
        assert "X = cutoff_mult 2^nu Gamma(nu+1) = 46080.0" in err and "X_MAX = 1024" in err

    @pytest.mark.parametrize("pipeline", [["sinc"], ["bessel", "--nu", "1"]])
    def test_digits_floor(self, capsys, pipeline):
        # the error names the flag the user typed, not the Precision field behind it
        code, out, err = run_cli(capsys, "eval", *pipeline, "--n", "3", "--digits", "4")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: --digits must be at least 5\n"

    def test_digits_at_its_floor(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "sinc", "--n", "4", "--digits", "5")
        assert code == EXIT_OK and out.splitlines()[0] == "sinc integral, n = 4"

    def test_default_cutoff_has_no_cap(self, capsys):
        # at n = 2 the integral stops at j_{2,1} = 5.1356..., inside the default
        # cutoff 192 at nu = 2, and the tail is exact; the closed form is
        # 2^5 Gamma(3) Gamma(2) = 64
        code, out, _ = run_cli(capsys, "eval", "bessel", "--n", "2", "--nu", "2",
                               "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["cutoff"] == mp.nstr(mp.besseljzero(2, 1), 10) == "5.135622302"
        assert doc["pieces"] == 1
        assert mp.mpf(doc["abs_err_bound"]) <= mp.mpf(1e-20)
        # the value is printed to a fixed number of digits: allow half its last place
        half_place = mp.mpf(10) ** -len(doc["value"].split(".")[1]) / 2
        assert abs(mp.mpf(doc["value"]) - 64) <= mp.mpf(doc["abs_err_bound"]) + half_place
        # the kernel has no evaluation cap: at the cutoff 192 it meets mpmath's
        # besselj at 30 more digits within its stated bound
        kernel = ballint.bessel_j_normalized(ballint.Nu(2), 192)
        with mp.workdps(ballint.Precision().working_dps + 30):
            want = 8 * mp.besselj(2, 192) / mp.mpf(192) ** 2
            assert abs(kernel.value - want) <= kernel.err_bound

    def test_gap_in_final_units(self, capsys):
        # the ladder holds the gap below target/2 times n^nu = 2.3e5, not before that
        # scale, so this bound meets the 1e-20 target (it was 1.3e-17)
        code, out, _ = run_cli(capsys, "eval", "bessel", "--n", "200", "--nu", "7/3",
                               "--cutoff-mult", "6", "--format", "json")
        assert code == EXIT_OK
        assert mp.mpf(json.loads(out)["abs_err_bound"]) <= mp.mpf(10) ** -20

    @pytest.mark.parametrize("argv", [["bessel", "--nu", "1", "--n", "4000"], ["sinc", "--n", "1000000"]])
    def test_large_n_is_a_precision_failure(self, capsys, argv):
        # the peak lies between the origin and the first node, so the ladder cannot converge;
        # its Gauss sums, about 2^-60 at the first rung, keep their precision: exit 3, no traceback
        code, out, err = run_cli(capsys, "eval", *argv)
        assert code == EXIT_PRECISION and out == ""
        assert "precision failure" in err and "best estimate" in err

    def test_target_past_the_float_range(self, capsys, doublings):
        # --digits 330 targets 10^-330, which is 0.0 as a float: the ladder stops
        # at the exact target, and a miss (at one doubling) prints it as 1e-330
        argv = ["eval", "bessel", "--n", "5", "--nu", "1", "--cutoff-mult", "1", "--digits", "330"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK and out.splitlines()[0] == "bessel integral, nu = 1, n = 5"
        doublings(1)
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_PRECISION and out == ""
        assert err.startswith("precision failure: bessel_integral(nu=1, n=5): target 1e-330 not reached")

    def test_precision_failure_exit_code(self, capsys, doublings):
        doublings(1)
        code, _, err = run_cli(capsys, "eval", "sinc", "--n", "97", "--digits", "30")
        assert code == EXIT_PRECISION
        assert "precision failure" in err and "best estimate" in err


DATA = Path(__file__).parent / "data"


class TestTextGoldens:
    # the text form of the README eval lines and of a verify report, byte for
    # byte; a changed line needs a regenerated file and a reason
    @pytest.mark.parametrize("golden, argv", [
        ("eval/sinc-5-30.txt", ["eval", "sinc", "--n", "5", "--digits", "30"]),
        ("eval/bessel-7_3-8.txt", ["eval", "bessel", "--n", "8", "--nu", "7/3", "--cutoff-mult", "6"]),
        ("verify/reduction.txt", ["verify", "reduction"]),
        ("appendix-check.txt", ["appendix-check"]),
    ])
    def test_text_bytes(self, capsys, golden, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK and err == ""
        assert out == (DATA / golden).read_text(encoding="utf-8")


class TestVerifyCommand:
    def test_reduction_suite(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "reduction", "--report", str(report))
        assert code == EXIT_OK
        assert out.splitlines()[0] == "verify reduction"
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert doc["kind"] == "verify" and doc["suite"] == "reduction"
        assert all(r["status"] == "pass" for r in doc["reports"])

    def test_unwritable_report_path(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", "reduction",
                               "--report", str(tmp_path / "no" / "dir" / "r.json"))
        assert code == EXIT_VERIFY and "could not write report" in err

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()


class TestParser:
    def test_one_parser_serves_every_call(self, capsys):
        # a usage error in between, then the same tables again: byte for byte, from the one parser
        first = run_cli(capsys, "sinc-coeffs", "--order", "3", "--no-cache")
        with pytest.raises(SystemExit):
            main(["sinc-coeffs", "--order", "x"])
        capsys.readouterr()
        bessel = run_cli(capsys, "bessel-coeffs", "--nu", "7/3", "--order", "2", "--format", "csv", "--no-cache")
        assert run_cli(capsys, "sinc-coeffs", "--order", "3", "--no-cache") == first
        assert run_cli(capsys, "bessel-coeffs", "--nu", "7/3", "--order", "2", "--format", "csv", "--no-cache") == bessel
        assert cli._parser.cache_info().currsize == 1


class TestAppendixCheck:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "appendix-check")
        assert code == EXIT_OK  # every mismatch is ledgered
        assert "fixture monomials: 50, mismatching: 13" in out
        assert "UNLEDGERED" not in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "appendix-check", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kind"] == "appendix-check"
        assert doc["monomials"] == 50
        assert len(doc["mismatches"]) == 13
        assert doc["stale_ledger_entries"] == []
        assert {m["status"] for m in doc["mismatches"]} == {
            "truncation-bookkeeping", "denominator-misprint"}

    def test_drifted_ledger_entry_fails(self, capsys, monkeypatch, tmp_path):
        # a ledger entry whose recorded value no longer matches the live
        # recomputation neither excuses its mismatch nor counts as current
        errata = sinc.load_errata()
        errata["table"][0]["recomputed"] = "1/3"
        monkeypatch.setattr(sinc, "load_errata", lambda: errata)
        code, out, _ = run_cli(capsys, "appendix-check")
        assert code == EXIT_VERIFY
        assert "row  8 t^18" in out and "[UNLEDGERED]" in out
        assert "stale ledger entry (8, 18)" in out
        code, out, _ = run_cli(capsys, "appendix-check", "--format", "json")
        assert code == EXIT_VERIFY
        assert json.loads(out)["stale_ledger_entries"] == [[8, 18]]
        report = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "verify", "appendix", "--report", str(report))
        assert code == EXIT_VERIFY
        failed = [r["id"] for r in json.loads(report.read_text())["reports"] if r["status"] == "fail"]
        assert failed == ["appendix-ledger-alignment"]


class TestInstalledEntryPoint:
    CSV_ARGS = ["sinc-coeffs", "--order", "1", "--format", "csv"]

    def test_subprocess_invocation(self, tmp_path):
        # the child imports the same ballint as this process, installed or not
        src_dir = str(Path(ballint.__file__).resolve().parent.parent)
        pythonpath = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ballint.cli", *self.CSV_ARGS],
            capture_output=True, text=True,
            env={**os.environ, "BALLINT_CACHE_DIR": str(tmp_path), "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "j,rational,decimal"

    def test_console_script_declared(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        module, _, attr = scripts["ballint"].partition(":")
        assert getattr(importlib.import_module(module), attr) is main

    @pytest.mark.skipif(shutil.which("ballint") is None,
                        reason="the ballint console script is not installed")
    def test_installed_script(self, tmp_path):
        proc = subprocess.run(
            ["ballint", *self.CSV_ARGS], capture_output=True, text=True,
            env={**os.environ, "BALLINT_CACHE_DIR": str(tmp_path)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "j,rational,decimal"
