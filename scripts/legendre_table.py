"""Print the Gauss-Legendre root table, src/ballint/data/legendre_roots.txt.

For each order N = 16, 32, ..., 256 it finds the positive roots of P_N,
and P' at each, by ballint.legendre's own search (Halley's method from
Tricomi's starts, never the shipped table), at 75 digits: the widest
working precision a verify suite asks for (a fit's target of 50 digits, plus 25).
Each root set is proven complete before it is printed.  Output is one
line an order: N and wp in decimal, then the N/2 roots, decreasing, and
the N/2 slopes, in hex, scaled by 2^wp.

    PYTHONPATH=src python scripts/legendre_table.py > src/ballint/data/legendre_roots.txt
"""

import mpmath as mp

from ballint import legendre

DIGITS = 75


def main() -> None:
    with mp.workdps(DIGITS):
        prec = mp.mp.prec
    print("# Gauss-Legendre roots: order, wp, then the positive roots, decreasing, and P' at each,")
    print(f"# in hex, scaled by 2^wp; built at {DIGITS} digits by scripts/legendre_table.py")
    for order in legendre._TABLE_ORDERS:
        wp, roots, slopes = legendre._legendre_roots(order, prec + 32)
        legendre._check_roots(order, wp, roots, slopes)
        print(order, wp, *(format(v, "x") for v in roots + slopes))


if __name__ == "__main__":
    main()
