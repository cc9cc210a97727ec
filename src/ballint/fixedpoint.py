"""Sums of powers g h^n for many n from one base, in fixed-point Python integers.

The quadrature ladder (quadrature._ladder) integrates g(t) h(t)^n over a
piece for every n of a batch from one set of node values, held as
integers: h_i = H_i 2^-kh in [0, 1] and g_i = G_i 2^-kg >= 0, each a value
rounded to the working precision (round_bits) and held exactly
(fixed_nodes).  power_base takes from them once what does not depend on n,
the nodes' ratios to the largest h and those ratios' squares, so a caller
that holds it, as the Bessel family store does, divides and squares no
more; power_sum then gives each n's Gauss sum, by binary powering per n
from the chain, as an integer S of wp bits in units of 2^-k, however small
the sum is, with a bound E on how far it falls short of the exact sum of
the node values.  round_total adds the pieces of one total and rounds it
once, saying whether that is surely the exact sum's rounding.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul
from typing import Sequence

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_pow_int, round_floor, round_nearest

__all__ = ["ERROR_BITS", "PowerBase", "fixed_nodes", "power_base", "power_sum", "round_bits", "round_total"]


def round_bits(v: int, prec: int) -> int:
    """v >= 0 rounded half-even to prec significant bits, as an integer."""
    s = v.bit_length() - prec
    if s <= 0:
        return v
    q, r, half = v >> s, v & ((1 << s) - 1), 1 << (s - 1)
    return (q + (r > half or r == half and q & 1)) << s


def fixed_nodes(hs: list[tuple], gs: list[tuple]) -> tuple[list[int], list[int], int]:
    """Raw mpfs h, g >= 0 as (hs, gs, k): integers on their finest common scale 2^-k, k >= 0, exactly."""
    k = max([0] + [-e for _, m, e, _ in hs + gs if m])
    return [m << (e + k) for _, m, e, _ in hs], [m << (e + k) for _, m, e, _ in gs], k


ERROR_BITS = 32  # power_sum's E is within 2^(ERROR_BITS - wp) S for every n <= 2^(ERROR_BITS - 2) - 6


# What power_sum reads of one set of nodes, none of it dependent on n (power_base):
# the nonzero weights gs, in units of 2^-kg, and their sum weight, W, c = H 2^-kh as a
# raw mpf and the chain [R, R^2, R^4, ...] of the ratios' squares, each floored to W
# bits, which power_sum grows when an n needs a level it lacks.  gs = [] when every term is 0.
PowerBase = namedtuple("PowerBase", "wp W c gs kg weight chain")


def power_base(hs: Sequence[int], gs: Sequence[int], kh: int, kg: int, wp: int) -> PowerBase:
    """power_sum's base at wp bits for the nodes h_i = hs_i 2^-kh in [0, 1]
    (ArithmeticError otherwise) and g_i = gs_i 2^-kg >= 0."""
    if not all(gs):
        hs, gs = [h for h, g in zip(hs, gs) if g], [g for g in gs if g]
    top = max(hs, default=0)
    if top > 1 << kh:
        raise ArithmeticError("a power-sum base lies above 1")
    if not top:
        return PowerBase(wp, 0, None, [], kg, 0, [])
    weight = sum(gs)
    W = wp + weight.bit_length() - gs[hs.index(top)].bit_length() + 1
    return PowerBase(wp, W, from_man_exp(top, -kh), gs, kg, weight, [[(h << W) // top for h in hs]])


def power_sum(base: PowerBase, n: int) -> tuple[int, int, int]:
    """(S, E, k) for n >= 1: S 2^-k <= sum_i g_i h_i^n <= (S + E) 2^-k for
    the nodes of base (power_base); S has wp bits, or S = E = k = 0 when
    every term is 0.

    The nodes of weight 0 are dropped and the rest scaled once to their
    largest h, c = H 2^-kh: each ratio r_i = h_i / c is floored to
    R_i = floor(r_i 2^W), and the sum is c^n T* for T* = sum_i g_i r_i^n.
    R^n is binary powering per n from the chain, the levels at n's set
    bits, lowest first, every product floored to W bits, so no integer
    widens with n, the node at c stays exactly 2^W, and a chain grown by an
    earlier call gives a fresh one's integers.  T, the sum of g_i times
    those powers, times c^n floored to wp bits by mpf_pow_int, gives S.

    Error: binary powering's R^n is within n - 1 units of 2^-W of the
    exact R^n, and R^n within n of r^n, so each power falls short by at
    most D = 2n - 1 units, and T* - T <= D sum g in those units.
    mpf_pow_int rounds toward zero throughout, at wp + 4 bitcount(n) + 4
    bits before its last floor to wp bits (it backs mpmath's interval
    arithmetic), so its F 2^f is short of c^n by under 2^(2-wp) of it:
    c^n <= F 2^f (1 + 2^(3-wp)).  So X = F T falls short of the sum by at
    most X 2^(3-wp) + F D (sum g) (1 + 2^(3-wp)), and S, X floored to wp
    bits, by one unit more.  The first node at c weighs G_c, so
    T >= G_c 2^W, and W = wp + bits(sum G) - bits(G_c) + 1 puts D sum G
    below D 2^-wp T: E < (2n + 8) 2^-wp (S + 1) + 3 <= 2n + 11, within
    2^(ERROR_BITS - wp) S for every n <= 2^(ERROR_BITS - 2) - 6.
    """
    wp, W, c, gs, kg, weight, chain = base
    if not gs:
        return 0, 0, 0
    while len(chain) < n.bit_length():
        chain.append([a * a >> W for a in chain[-1]])
    P = None
    for j, level in enumerate(chain[:n.bit_length()]):
        if n >> j & 1:
            P = level if P is None else [a * b >> W for a, b in zip(P, level)]
    _, F, f, _ = mpf_pow_int(c, n, wp, round_floor)
    X = F * sum(map(mul, gs, P))
    Y = F * (2 * n - 1) * weight
    short = (X >> (wp - 3)) + Y + (Y >> (wp - 3)) + 2
    s = X.bit_length() - wp  # > 0, as X >= G_c 2^W
    return X >> s, 1 - (-short >> s), kg + W - f - s


def round_total(parts: Sequence[tuple[int, int, int]]) -> tuple[mp.mpf, bool]:
    """(the sum of parts rounded to the ambient precision prec, whether that
    is surely the rounding of the exact sum).

    Each part (S, E, k) holds a sum in [S, S + E] 2^-k.  The parts are
    floored to the coarsest unit among them and added exactly.  The
    rounding is sure when E is within 2^-(prec+8) of S and S and S + E
    round alike: rounding is monotone, so every sum between them rounds
    alike too.
    """
    parts = [p for p in parts if p[0] or p[1]]
    if not parts:
        return mp.mpf(0), True
    K = min(k for _, _, k in parts)
    S = E = 0
    for s, e, k in parts:
        if k > K:
            lo = s >> (k - K)
            s, e = lo, ((s + e) >> (k - K)) + 1 - lo
        S += s
        E += e
    prec = mp.mp.prec
    lo = from_man_exp(S, -K, prec, round_nearest)
    sure = E <= S >> (prec + 8) and lo == from_man_exp(S + E, -K, prec, round_nearest)
    return mp.make_mpf(lo), sure
