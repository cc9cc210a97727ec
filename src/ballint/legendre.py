"""Gauss-Legendre rules on [-1, 1], held per order (_legendre_rule).

The positive roots of P_N and P' at each are held as fixed-point Python
integers at the widest precision asked for so far.  Orders 16 to 256 start
from data/legendre_roots.txt, which scripts/legendre_table.py writes from
this module's own search at 75 digits; any other order is searched for once,
by Halley's method from Tricomi's starts.  A narrower rule rounds the held
roots, a wider one refines them, and every root set, searched or read, must
prove itself complete before it is held.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import mpmath as mp

from .sinc import _data_text


# Positive roots of P_order, decreasing, and P' at each, as integers scaled
# by 2^wp at the widest wp = prec + 32 asked for so far: {order: (wp, roots, slopes)}.
# Orders in _legendre_table() start from its entry, any other from a search.
_ROOTS: dict[int, tuple[int, tuple[int, ...], tuple[int, ...]]] = {}

_TABLE_ORDERS = (16, 32, 64, 128, 256)  # the orders data/legendre_roots.txt holds


@lru_cache(maxsize=None)
def _legendre_table() -> dict[int, tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """The _ROOTS entries of _TABLE_ORDERS shipped in data/legendre_roots.txt,
    as _legendre_roots finds them from an empty store at 75 digits (wp = 284).

    One line an order: the order and wp in decimal, then its roots and its
    slopes in hex (scripts/legendre_table.py writes the file).  A missing or
    malformed file raises; _legendre_rule checks each entry before use."""
    table = {}
    for line in _data_text("legendre_roots.txt").splitlines():
        if not line.startswith("#"):
            order, wp, *values = line.split()
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


def _legendre_roots(order: int, prec: int) -> None:
    """Find the positive roots of P_order at wp = prec + 32 bits, from
    Tricomi's starts or from the roots held at a narrower wp, store them in
    _ROOTS and prove the set complete (see _legendre_rule)."""
    wp = prec + 32
    one = 1 << wp
    nn1 = order * (order + 1)
    held = _ROOTS.get(order)
    if held is None:
        starts = [int(math.ldexp(_legendre_start(order, k), 53)) << (wp - 53)
                  for k in range(1, order // 2 + 1)]
    else:
        starts = [x << (wp - held[0]) for x in held[1]]
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
            if abs(dx) < 1 << (wp - prec - 8):
                break
        roots.append(x)
        slopes.append(dp - (ddp * dx >> wp))
    _hold_roots(order, wp, roots, slopes)


def _hold_roots(order: int, wp: int, roots: Sequence[int], slopes: Sequence[int]) -> None:
    """Store an order's roots and slopes in _ROOTS once they are proven
    complete (see _legendre_rule), or raise ArithmeticError and store nothing."""
    half = order // 2
    bounds = [1 << wp, *roots, 0]
    if len(roots) != half or not all(a - b > 1 << 32 for a, b in zip(bounds, bounds[1:])):
        raise ArithmeticError(f"Gauss-Legendre order {order}: the positive roots "
                              f"are not {half} distinct points of (0, 1)")
    if len(slopes) != half or not all((-s if k % 2 else s) > 0 for k, s in enumerate(slopes)):
        raise ArithmeticError(f"Gauss-Legendre order {order}: P' at the roots is not "
                              f"{half} values alternating in sign")
    _ROOTS[order] = wp, tuple(roots), tuple(slopes)


@lru_cache(maxsize=64)
def _legendre_rule(order: int, dps: int) -> tuple:
    """Gauss-Legendre (node, weight) pairs on [-1, 1] for an even order at dps.

    The positive roots of P = P_order are held in _ROOTS, with P' at each, as
    Python integers in fixed point at wp = prec + 32 bits (prec: the binary
    precision of dps); the 32 guard bits absorb the rounding of the stable
    forward recurrence.  An order of _TABLE_ORDERS (16 to 256) is first
    seeded from _legendre_table(), at wp = 284 (75 digits), after the
    completeness check below; any other order is found once:

    - Start: Tricomi's x_k = (1 - (N-1)/(8N^3) - (39 - 28/sin^2 t_k)/(384N^4)) cos t_k,
      t_k = pi (4k - 1)/(4N + 2), N = order, within O(N^-4) of the k-th largest
      root (Hale and Townsend, SIAM J. Sci. Comput. 35, 2013).
    - Step: Halley's, dx = u / (1 - u P''/(2P')) with u = P/P', where P'' comes
      free from the Legendre ODE, (1 - x^2) P'' = 2x P' - N(N+1) P.  It stops
      once |dx| < 2^-(prec+8), about three recurrences a root.
    - Weight: 2 / ((1 - x^2) P'(x)^2) in mpf at the held wp, with P' at the
      final iterate x = x_prev - dx taken as P'(x_prev) - P''(x_prev) dx.  The
      dropped term, about N^4 dx^2 relative, is below N^4 2^-(2 prec + 16),
      far inside the guard bits; no recurrence is run for the weight.
    - Completeness: the N/2 roots must be strictly decreasing in (0, 1), each
      gap (to 1 and 0 too) wider than 2^-prec, and the N/2 slopes must
      alternate in sign, or ArithmeticError is raised and nothing is held.
      P_N has exactly N/2 positive roots, so none was found twice or missed.

    A request at a wider wp than the one held starts from the held roots,
    shifted up, so each takes about two recurrences, and replaces the entry;
    up to 75 digits an order of the table runs no recurrence at all.
    A narrower request runs no step: the node, and the weight computed at
    the held wp, are rounded to prec.  Whatever wp is held, both carry about
    28 correct bits beyond prec, so the rounded values are the correctly
    rounded ones, the same as a fresh build at dps would give, unless the
    true value lies within about 2^-28 ulp of a rounding tie.
    """
    if order % 2:
        raise ValueError("Gauss-Legendre order must be even")
    with mp.workdps(dps):
        prec = mp.mp.prec
        if order not in _ROOTS and (entry := _legendre_table().get(order)):
            _hold_roots(order, *entry)
        if order not in _ROOTS or _ROOTS[order][0] < prec + 32:
            _legendre_roots(order, prec)
        wp, roots, slopes = _ROOTS[order]
        half = []
        for x, dp in zip(roots, slopes):
            with mp.workprec(wp):
                xm, dpm = mp.mpf((x, -wp)), mp.mpf((dp, -wp))
                w = 2 / ((1 - xm * xm) * dpm * dpm)
            half.append((+xm, +w))
        return tuple((-x, w) for x, w in reversed(half)) + tuple(half)
