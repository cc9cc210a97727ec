"""Command line surface: coefficient tables, quadrature, verification.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 precision
failure (the message then carries the best estimate reached).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

import mpmath as mp

from .bessel import BesselExpansion, Nu, bessel_expansion
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
from .sinc import SINC_UNIT, SincExpansion, check_errata, sinc_expansion
from .verify import SUITES, run_suite, suite_exit_code

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3

SINC_ORDER_CEILING = 12
BESSEL_ORDER_CEILING = 8


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _parse_nu(text: str) -> Nu:
    return Nu(parse_rational(text))


def _emit_records(records, fmt: str, header: str, order: int) -> None:
    if fmt == "json":
        print(records_to_json(records, order))
    elif fmt == "csv":
        print(records_to_csv(records))
    else:
        print(records_to_text(records, header))


def _cached_coeffs(args, pipeline: str, nu: Fraction | None, compute) -> tuple[Fraction, ...]:
    """The exact coefficients of order m = args.order, k = m + 1: from the
    cache, or compute(k) and stored; --no-cache neither reads nor stores."""
    m, k = args.order, args.order + 1
    coeffs = None if args.no_cache else load_coeffs(pipeline, nu, m, k)
    if coeffs is not None:
        return tuple(coeffs)
    coeffs = compute(k)
    if not args.no_cache:
        store_coeffs(pipeline, nu, m, k, coeffs)
    return coeffs


def cmd_sinc_coeffs(args) -> int:
    m = args.order
    if not 0 <= m <= SINC_ORDER_CEILING:
        return _usage(f"--order must lie in 0..{SINC_ORDER_CEILING}")
    if args.digits < 1:
        return _usage("--digits must be at least 1")
    coeffs = _cached_coeffs(args, "sinc", None, lambda k: sinc_expansion(m, k).coeffs)
    expansion = SincExpansion(m=m, k=m + 1, coeffs=coeffs)
    records = sinc_coeff_records(expansion, digits=args.digits)
    _emit_records(records, args.format, f"sinc coefficients, order {m}, unit {SINC_UNIT}", m)
    return EXIT_OK


def cmd_bessel_coeffs(args) -> int:
    try:
        nu = _parse_nu(args.nu)
    except ValueError as exc:
        return _usage(str(exc))
    m = args.order
    if not 0 <= m <= BESSEL_ORDER_CEILING:
        return _usage(f"--order must lie in 0..{BESSEL_ORDER_CEILING}")
    if args.digits < 1:
        return _usage("--digits must be at least 1")
    coeffs = _cached_coeffs(args, "bessel", nu.value, lambda k: bessel_expansion(nu, m, k).gamma_coeffs)
    expansion = BesselExpansion(nu=nu, m=m, k=m + 1, gamma_coeffs=coeffs)
    records = bessel_coeff_records(expansion, digits=args.digits)
    _emit_records(records, args.format, f"bessel coefficients, nu {nu}, order {m}, unit c0(nu)", m)
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.n < 2:
        return _usage("--n must be at least 2")
    if args.pipeline == "sinc" and args.nu is not None:
        return _usage("--nu applies to the bessel pipeline only")
    if args.pipeline == "sinc" and args.cutoff_mult is not None:
        return _usage("--cutoff-mult applies to the bessel pipeline only")
    if args.pipeline == "bessel" and args.nu is None:
        return _usage("the bessel pipeline needs --nu")
    # --digits d targets an absolute error of 1e-d, while Precision()'s 30 digits
    # target 1e-20; Precision needs decimal_digits = d + 10 >= 15
    if args.digits < 5:
        return _usage("--digits must be at least 5")
    prec = Precision(decimal_digits=args.digits + 10)
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

    p = sub.add_parser("sinc-coeffs", help="exact sinc expansion coefficients")
    p.add_argument("--order", type=int, required=True, help=f"expansion order, 0..{SINC_ORDER_CEILING}")
    p.add_argument("--digits", type=int, default=30, help="decimal digits in the rendered column")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--no-cache", action="store_true", help="bypass the coefficient cache")
    p.set_defaults(func=cmd_sinc_coeffs)

    p = sub.add_parser("bessel-coeffs", help="exact Bessel expansion coefficients")
    p.add_argument("--nu", required=True, help="order as p/q, at least 1/2")
    p.add_argument("--order", type=int, required=True, help=f"expansion order, 0..{BESSEL_ORDER_CEILING}")
    p.add_argument("--digits", type=int, default=30)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(func=cmd_bessel_coeffs)

    p = sub.add_parser("eval", help="evaluate an integral by verified quadrature")
    p.add_argument("pipeline", choices=("sinc", "bessel"))
    p.add_argument("--n", type=int, required=True, help="power, at least 2")
    p.add_argument("--nu", default=None, help="Bessel order as p/q")
    p.add_argument("--digits", type=int, default=20,
                   help="target absolute error 1e-DIGITS; builds Precision(decimal_digits=DIGITS + 10)")
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
