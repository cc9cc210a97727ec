"""Study remainder decay fits against the exact next coefficient.

For each order m the remainder r(n) = I(n) - unit * (c_0 + ... + c_m/n^m)
should decay like unit * c_{m+1} / n^{m+1}.  Two amplitude estimators are
tabulated:

  free    exp(intercept) of the unconstrained least-squares line; biased
          by ~|c_{m+2}/c_{m+1}| * 7.7% on a geometric grid because the
          subleading term tilts the fitted slope,
  pinned  per-point r(n) * n^{m+1}, over the remainders the fit used,
          averaged with the exponent fixed at its theoretical value; bias
          is the grid-mean of the 1/n correction only.

The pinned column is what the verification suites use to cross-validate
ledgered coefficient errata.
"""

import argparse

import mpmath as mp

from ballint.quadrature import Precision, remainder_decay_fit
from ballint.sinc import sinc_expansion


def run(args: argparse.Namespace) -> None:
    grid = tuple(args.grid)
    prec = Precision(target_digits=args.digits)
    deep = sinc_expansion(args.max_order + 1).coeffs
    with mp.workdps(prec.working_dps):
        unit = mp.sqrt(3 * mp.pi / 2)
        print(f"grid {grid}, target 1e-{args.digits}")
        print(f"{'m':>2}  {'slope':>9}  {'free est':>12}  {'pinned est':>12}  "
              f"{'exact c_(m+1)':>14}  {'free err':>9}  {'pinned err':>10}")
        for m in range(args.max_order + 1):
            fit = remainder_decay_fit(m, grid, prec=prec)
            exact = deep[m + 1]
            exact_f = float(mp.mpf(exact.numerator) / exact.denominator)
            free = fit.signed_coeff / float(unit)
            pinned = sum(float(r * mp.power(n, m + 1) / unit)
                         for n, r in zip(fit.used_n, fit.remainders)) / len(fit.used_n)
            print(f"{m:>2}  {fit.slope:>9.4f}  {free:>12.6g}  {pinned:>12.6g}  "
                  f"{exact_f:>14.6g}  {abs(free / exact_f - 1):>9.2%}  "
                  f"{abs(pinned / exact_f - 1):>10.3%}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-order", type=int, default=6)
    parser.add_argument("--grid", type=int, nargs="+", default=[90, 135, 200, 300])
    parser.add_argument("--digits", type=int, default=50, help="quadrature target 1e-DIGITS")
    run(parser.parse_args())


if __name__ == "__main__":
    main()
