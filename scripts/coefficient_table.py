"""Tabulate expansion coefficients with growth diagnostics.

The ratio column |c_j / c_{j-1}| makes the eventual factorial-flavored
growth of the sinc coefficients visible; it is the reason decay-fit
grids for high orders need large n to stay leading-term dominated.
"""

import argparse
from fractions import Fraction

import mpmath as mp

from ballint.bessel import Nu, bessel_expansion
from ballint.rationals import parse_rational
from ballint.records import bessel_coeff_records, sinc_coeff_records
from ballint.sinc import sinc_expansion


def run(args: argparse.Namespace) -> None:
    if args.nu is None:
        coeffs = sinc_expansion(args.order).coeffs
        records = sinc_coeff_records(coeffs, args.digits)
        print(f"sinc expansion, order {args.order}, unit sqrt(3*pi/2)")
    else:
        nu = Nu(parse_rational(args.nu))
        coeffs = bessel_expansion(nu, args.order).gamma_coeffs
        records = bessel_coeff_records(nu, coeffs, args.digits)
        print(f"bessel expansion, nu {nu}, order {args.order}, unit c0(nu)")
    width = max(len(r.rational) for r in records)
    print(f"{'j':>3}  {'rational':<{width}}  {'decimal x unit':<{args.digits + 8}}  ratio")
    prev = None
    with mp.workdps(args.digits + 10):
        for c, r in zip(coeffs, records):
            if prev in (None, Fraction(0)) or c == 0:
                ratio = "-"
            else:
                q = abs(c / prev)
                ratio = mp.nstr(mp.mpf(q.numerator) / q.denominator, 5)
            print(f"{r.j:>3}  {r.rational:<{width}}  {r.decimal:<{args.digits + 8}}  {ratio}")
            prev = c


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--order", type=int, default=12, help="highest order to print")
    parser.add_argument("--nu", default=None, help="Bessel order p/q; omit for the sinc table")
    parser.add_argument("--digits", type=int, default=20)
    run(parser.parse_args())


if __name__ == "__main__":
    main()
