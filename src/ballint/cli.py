"""Command line surface: coefficient tables, quadrature, verification.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 precision
failure (the message then carries the best estimate reached).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import mpmath as mp

from .bessel import Nu, bessel_expansion
from .cache import load_coeffs, store_coeffs
from .quadrature import X_MAX, Precision, PrecisionFailure, bessel_integral, sinc_integral
from .rationals import format_rational, parse_rational
from .records import (
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
from .sinc import SINC_NU, SINC_UNIT, check_errata
from .verify import SUITES, run_suite, suite_exit_code

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3

ORDER_CEILING = 12


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _parse_nu(text: str) -> Nu:
    return Nu(parse_rational(text))


def cmd_coeffs(args) -> int:
    """The exact gamma_0..gamma_m at nu, from the cache or computed and stored.

    sinc-coeffs prints the nu = 1/2 table under sinc's labels, since sinc's
    c_j are the gamma_j there.
    """
    sinc = args.command == "sinc-coeffs"
    try:
        nu = SINC_NU if sinc else _parse_nu(args.nu)
    except ValueError as exc:
        return _usage(str(exc))
    m = args.order
    if not 0 <= m <= ORDER_CEILING:
        return _usage(f"--order must lie in 0..{ORDER_CEILING}")
    if args.digits < 1:
        return _usage("--digits must be at least 1")
    coeffs = load_coeffs(nu.value, m)
    if coeffs is None:
        coeffs = bessel_expansion(nu, m).gamma_coeffs
        store_coeffs(nu.value, m, coeffs)
    if sinc:
        records = sinc_coeff_records(coeffs, args.digits)
        header = f"sinc coefficients, order {m}, unit {SINC_UNIT}"
    else:
        records = bessel_coeff_records(nu, coeffs, args.digits)
        header = f"bessel coefficients, nu {nu}, order {m}, unit c0(nu)"
    if args.format == "json":
        print(records_to_json(records))
    elif args.format == "csv":
        print(records_to_csv(records))
    else:
        print(records_to_text(records, header))
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.pipeline == "sinc" and args.nu is not None:
        return _usage("--nu applies to the bessel pipeline only")
    if args.pipeline == "sinc" and args.cutoff_mult is not None:
        return _usage("--cutoff-mult applies to the bessel pipeline only")
    if args.pipeline == "bessel" and args.nu is None:
        return _usage("the bessel pipeline needs --nu")
    if args.digits < 5:
        return _usage("--digits must be at least 5")
    prec = Precision(target_digits=args.digits)
    try:
        if args.pipeline == "sinc":
            nu_frac = None
            est = sinc_integral(args.n, prec)
            label = f"sinc integral, n = {args.n}"
        else:
            nu = _parse_nu(args.nu)
            nu_frac = nu.value
            kwargs = {} if args.cutoff_mult is None else {"cutoff_mult": args.cutoff_mult}
            est = bessel_integral(nu, args.n, prec, **kwargs)
            label = f"bessel integral, nu = {nu}, n = {args.n}"
    except ValueError as exc:
        return _usage(str(exc))
    except PrecisionFailure as exc:
        with mp.workdps(args.digits + 10):
            best = mp.nstr(exc.estimate.value, args.digits)
        print(f"precision failure: {exc}; best estimate {best}", file=sys.stderr)
        return EXIT_PRECISION
    if args.format == "json":
        print(estimate_to_json(est, args.pipeline, nu_frac, args.n, args.digits))
    else:
        print(estimate_to_text(est, label, args.digits))
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = run_suite(args.suite)
    print(reports_to_text(reports, args.suite))
    payload = reports_to_json(reports, args.suite)
    try:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    except OSError as exc:
        print(f"error: could not write report file {args.report}: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    return suite_exit_code(reports)


def cmd_appendix_check(args) -> int:
    check = check_errata()
    rows = [{
        "row": mism.row,
        "exponent": mism.exponent,
        "fixture": format_rational(mism.fixture),
        "recomputed": format_rational(mism.engine),
        "status": entry["classification"] if entry else "UNLEDGERED",
    } for mism, entry in check.mismatches]
    if args.format == "json":
        print(json.dumps({
            "kind": "appendix-check",
            "monomials": len(check.fixture),
            "mismatches": rows,
            "stale_ledger_entries": [list(s) for s in check.stale],
        }, indent=2))
    else:
        print(f"fixture monomials: {len(check.fixture)}, mismatching: {len(rows)}")
        for r in rows:
            print(f"  row {r['row']:2d} t^{r['exponent']:<2d} fixture {r['fixture']} "
                  f"recomputed {r['recomputed']} [{r['status']}]")
        for s in check.stale:
            print(f"  stale ledger entry {s}")
    return EXIT_VERIFY if check.unledgered or check.stale else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballint",
        description="Exact asymptotic-expansion tables and high-precision "
                    "quadrature for powered sinc and Bessel integrals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, kind in (("sinc-coeffs", "sinc"), ("bessel-coeffs", "Bessel")):
        p = sub.add_parser(name, help=f"exact {kind} expansion coefficients")
        if name == "bessel-coeffs":
            p.add_argument("--nu", required=True, help="order as p/q, at least 1/2")
        p.add_argument("--order", type=int, required=True, help=f"expansion order, 0..{ORDER_CEILING}")
        p.add_argument("--digits", type=int, default=30, help="decimal digits in the rendered column")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("eval", help="evaluate an integral by verified quadrature")
    p.add_argument("pipeline", choices=("sinc", "bessel"))
    p.add_argument("--n", type=int, required=True, help="power, at least 2")
    p.add_argument("--nu", default=None, help="Bessel order as p/q")
    p.add_argument("--digits", type=int, default=20,
                   help="target absolute error 1e-DIGITS, at least 5")
    p.add_argument("--cutoff-mult", type=float, default=None,
                   help="bessel head length in envelope units, at least 1 (default 24); "
                        f"the cutoff, this times 2^nu Gamma(nu+1), may not exceed {X_MAX}")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=tuple(sorted(SUITES)))
    p.add_argument("--report", default="ballint-verify-report.json",
                   help="path for the JSON report file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("appendix-check", help="compare the degree-28 table against the fixture")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_appendix_check)

    return parser


# parse_args leaves the parser as it was, so one serves every main call of a process
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
