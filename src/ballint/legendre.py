"""Gauss-Legendre rules on [-1, 1], one per (order, dps) (_legendre_rule).

Each rule is built from its order and precision alone.  Orders 16 to 256
read their positive roots, and P' at each, from data/legendre_roots.txt,
which scripts/legendre_table.py writes from this module's own search at 75
digits; a wider rule refines them, and any other order is searched for, by
Halley's method from Tricomi's starts.  The root set a rule is built from,
read or found, must prove itself complete first.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp

from .sinc import _data_text


_TABLE_ORDERS = (16, 32, 64, 128, 256)  # the orders data/legendre_roots.txt holds


@lru_cache(maxsize=None)
def _legendre_table() -> dict[int, tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """{order: (wp, roots, slopes)} for _TABLE_ORDERS, shipped in
    data/legendre_roots.txt as _legendre_roots finds them at 75 digits
    (wp = 284).

    One line an order: the order and wp in decimal, then its roots and its
    slopes in hex (scripts/legendre_table.py writes the file).  A missing or
    malformed file, or an order given twice, raises; _legendre_rule checks
    each entry before use."""
    table = {}
    for line in _data_text("legendre_roots.txt").splitlines():
        if not line.startswith("#"):
            order, wp, *values = line.split()
            if int(order) in table:
                raise ValueError(f"data/legendre_roots.txt holds order {order} twice")
            half = int(order) // 2
            values = [int(v, 16) for v in values]
            table[int(order)] = int(wp), tuple(values[:half]), tuple(values[half:])
    if tuple(table) != _TABLE_ORDERS:
        raise ValueError(f"data/legendre_roots.txt holds orders {tuple(table)}, not {_TABLE_ORDERS}")
    return table


def _legendre_start(order: int, k: int) -> float:
    """Tricomi's estimate of the k-th largest root of P_order, within O(order^-4)."""
    theta = math.pi * (4 * k - 1) / (4 * order + 2)
    return (1 - (order - 1) / (8 * order**3)
            - (39 - 28 / math.sin(theta) ** 2) / (384 * order**4)) * math.cos(theta)


def _legendre_pair(order: int, x: int, wp: int) -> tuple[int, int]:
    """(P_{order-1}(x), P_order(x)) by the stable forward recurrence, x and
    both values scaled by 2^wp."""
    p0, p1 = 1 << wp, x
    for j in range(2, order + 1):
        p0, p1 = p1, (((2 * j - 1) * x * p1 >> wp) - (j - 1) * p0) // j
    return p0, p1


def _legendre_roots(order: int, wp: int, start: tuple | None = None) -> tuple:
    """(wp, roots, slopes): the positive roots of P_order, decreasing, and P'
    at each, found at wp bits from Tricomi's starts, or by refining the roots
    of start, an entry (wp, roots, slopes) at a narrower wp (see _legendre_rule)."""
    one = 1 << wp
    nn1 = order * (order + 1)
    if start is None:
        starts = [int(math.ldexp(_legendre_start(order, k), 53)) << (wp - 53)
                  for k in range(1, order // 2 + 1)]
    else:
        starts = [x << (wp - start[0]) for x in start[1]]
    roots, slopes = [], []
    for x in starts:
        for _ in range(100):
            p0, p1 = _legendre_pair(order, x, wp)
            d = (x * x >> wp) - one             # x^2 - 1
            dp = (order * ((x * p1 >> wp) - p0) << wp) // d   # P'
            ddp = ((nn1 * p1 - (2 * x * dp >> wp)) << wp) // d  # P'', from the ODE
            u = (p1 << wp) // dp                 # P / P'
            dx = (u << wp) // (one - (u * ddp // (2 * dp)))
            x -= dx
            if abs(dx) < 1 << 24:                # 2^-(prec+8), prec = wp - 32
                break
        roots.append(x)
        slopes.append(dp - (ddp * dx >> wp))
    return wp, tuple(roots), tuple(slopes)


def _check_roots(order: int, wp: int, roots: tuple, slopes: tuple) -> None:
    """Raise ArithmeticError unless an order's roots and slopes are proven
    complete (see _legendre_rule)."""
    half = order // 2
    bounds = [1 << wp, *roots, 0]
    if len(roots) != half or not all(a - b > 1 << 32 for a, b in zip(bounds, bounds[1:])):
        raise ArithmeticError(f"Gauss-Legendre order {order}: the positive roots "
                              f"are not {half} distinct points of (0, 1)")
    if len(slopes) != half or not all((-s if k % 2 else s) > 0 for k, s in enumerate(slopes)):
        raise ArithmeticError(f"Gauss-Legendre order {order}: P' at the roots is not "
                              f"{half} values alternating in sign")


@lru_cache(maxsize=64)
def _legendre_rule(order: int, dps: int) -> tuple:
    """Gauss-Legendre (node, weight) pairs on [-1, 1] for an even order at dps,
    a function of (order, dps) alone.

    The positive roots of P = P_order, with P' at each, are Python integers
    in fixed point at wp = prec + 32 bits (prec: the binary precision of
    dps); the 32 guard bits absorb the rounding of the stable forward
    recurrence.  An order of _TABLE_ORDERS (16 to 256) reads them from
    _legendre_table(), at wp = 284 (75 digits), and uses that entry as it is
    when it is at least wp wide, so up to 75 digits no recurrence runs; a
    wider rule refines the entry at exactly wp, about two recurrences a root.
    Any other order is found at wp:

    - Start: Tricomi's x_k = (1 - (N-1)/(8N^3) - (39 - 28/sin^2 t_k)/(384N^4)) cos t_k,
      t_k = pi (4k - 1)/(4N + 2), N = order, within O(N^-4) of the k-th largest
      root (Hale and Townsend, SIAM J. Sci. Comput. 35, 2013).
    - Step: Halley's, dx = u / (1 - u P''/(2P')) with u = P/P', where P'' comes
      free from the Legendre ODE, (1 - x^2) P'' = 2x P' - N(N+1) P.  It stops
      once |dx| < 2^-(prec+8), about three recurrences a root.
    - Weight: 2 / ((1 - x^2) P'(x)^2) in mpf at the entry's wp, with P' at the
      final iterate x = x_prev - dx taken as P'(x_prev) - P''(x_prev) dx.  The
      dropped term, about N^4 dx^2 relative, is below N^4 2^-(2 prec + 16),
      far inside the guard bits; no recurrence is run for the weight.
    - Completeness: the N/2 roots must be strictly decreasing in (0, 1), each
      gap (to 1 and 0 too) wider than 2^-prec, and the N/2 slopes must
      alternate in sign, or ArithmeticError is raised (_check_roots).  P_N
      has exactly N/2 positive roots, so none was found twice or missed.

    The node and weight are then rounded to prec.  Taken from a wider table
    entry, both carry about 28 correct bits beyond prec, so they are the
    correctly rounded ones unless the true value lies within about 2^-28
    ulp of a rounding tie.
    """
    if order % 2:
        raise ValueError("Gauss-Legendre order must be even")
    with mp.workdps(dps):
        wp = mp.mp.prec + 32
        entry = _legendre_table().get(order)
        if entry is None or entry[0] < wp:
            entry = _legendre_roots(order, wp, entry)
        _check_roots(order, *entry)
        wp, roots, slopes = entry
        half = []
        for x, dp in zip(roots, slopes):
            with mp.workprec(wp):
                xm, dpm = mp.mpf((x, -wp)), mp.mpf((dp, -wp))
                w = 2 / ((1 - xm * xm) * dpm * dpm)
            half.append((+xm, +w))
        return tuple((-x, w) for x, w in reversed(half)) + tuple(half)
