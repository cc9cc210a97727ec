"""Regenerate the evidence behind the erratum ledger.

Three exhibits:
  1. the degree-28 fixture compared against the engine's table at the
     pipeline truncation (k = 8): 13 mismatches;
  2. the same comparison at k = 14, where every a_j the table touches is
     complete: only the two denominator misprints survive, proving the
     other 11 rows are truncation bookkeeping, not engine defects;
  3. a remainder-decay fit per affected coefficient order, showing the
     engine value sits inside the quadrature-reconstructed band while
     the printed order-5 value is hundreds of bands away.
"""

import argparse

from ballint.rationals import format_rational
from ballint.sinc import appendix_mismatches, appendix_table, check_errata
from ballint.verify import sinc_coefficient_fit


def run(args: argparse.Namespace) -> None:
    check = check_errata()
    fixture = check.fixture
    # the ledger records the k = 8 table; k = 14 reuses its classifications
    tags = {(m.row, m.exponent): e["classification"] for m, e in check.mismatches if e is not None}

    print(f"fixture: {len(fixture)} monomials, rows 0..13, exponents to t^28")
    for k in (8, 14):
        mismatches = appendix_mismatches(appendix_table(k=k), fixture)
        print(f"\nmismatches at k = {k}: {len(mismatches)}")
        for m in mismatches:
            tag = tags.get((m.row, m.exponent), "UNLEDGERED")
            print(f"  row {m.row:2d} t^{m.exponent:<2d} fixture {format_rational(m.fixture)}"
                  f"  engine {format_rational(m.engine)}  [{tag}]")

    orders = sorted(set(check.coefficients) | {m.row for m, _ in check.mismatches})
    print("\nquadrature cross-checks (pinned-exponent reconstruction):")
    for order in orders:
        fit, estimate, engine, band, ok = sinc_coefficient_fit(order)
        margin = band / abs(estimate - engine) if estimate != engine else float("inf")
        print(f"  c_{order:<2d} slope {fit.slope:8.4f}  estimate {estimate:12.6g}  "
              f"engine {engine:12.6g}  band {band:9.3g}  "
              f"{'OK' if ok else 'OUTSIDE'} (margin {margin:.2f}x)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    run(parser.parse_args())


if __name__ == "__main__":
    main()
