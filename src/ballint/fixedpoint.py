"""Sums of powers g h^n for many n at once, in fixed-point Python integers.

The quadrature ladder (quadrature._ladder) integrates g(t) h(t)^n over a
piece for every n of a batch from one set of node values, held as
integers: h_i = H_i 2^-kh in [0, 1] and g_i = G_i 2^-kg >= 0, each a value
rounded to the working precision (round_bits) and held exactly
(fixed_nodes).  power_base takes from them once what does not depend on
n, the nodes' ratios to the largest h and those ratios' squares, so a
caller that holds it, as the Bessel family store does, divides and squares
no more; power_sums then gives every such Gauss sum as an integer S of wp
bits in units of 2^-k, however small the sum is, with a bound E on how far
it falls short of the exact sum of the node values.  round_total adds the
pieces of one total and rounds it once, saying whether that is surely the
exact sum's rounding.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul
from typing import Sequence

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_pow_int, round_floor, round_nearest

__all__ = ["ERROR_BITS", "PowerBase", "fixed_nodes", "power_base", "power_sums", "round_bits", "round_total"]


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


ERROR_BITS = 32  # power_sums' E is within 2^(ERROR_BITS - wp) S for every n <= 2^(ERROR_BITS - 2) - 6


# What power_sums reads of one set of nodes, none of it dependent on n (power_base):
# the nonzero weights gs, in units of 2^-kg, and their sum weight, W, c = H 2^-kh as a
# raw mpf and the chain [R, R^2, R^4, ...] of the ratios' squares, each floored to W
# bits, which power_sums grows when a gap needs a level it lacks.  gs = [] when every term is 0.
PowerBase = namedtuple("PowerBase", "wp W c gs kg weight chain")


def power_base(hs: Sequence[int], gs: Sequence[int], kh: int, kg: int, wp: int) -> PowerBase:
    """power_sums' base at wp bits for the nodes h_i = hs_i 2^-kh in [0, 1]
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


def power_sums(base: PowerBase, ns: Sequence[int]) -> dict[int, tuple[int, int, int]]:
    """{n: (S, E, k)} for increasing ns >= 1: S 2^-k <= sum_i g_i h_i^n <=
    (S + E) 2^-k for the nodes of base (power_base); S has wp bits, or
    S = E = k = 0 when every term is 0.

    The nodes of weight 0 are dropped and the rest scaled once to their
    largest h, c = H 2^-kh: each ratio r_i = h_i / c is floored to
    R_i = floor(r_i 2^W), and the sum is c^n T* for T* = sum_i g_i r_i^n.
    The powers r_i^n are one fixed-point running product across ns: R^n
    at the first n, then times R^d, once for each gap d, floored to W bits,
    so no integer widens with n and the node at c stays exactly 2^W.  R^d
    is binary powering, every product floored: the chain's levels at d's
    set bits, lowest first, so a chain grown by an earlier call or another
    gap gives a fresh one's integers.  T, the sum of g_i times those
    powers, times c^n floored to wp bits by mpf_pow_int gives S.

    Error: binary powering's R^n is within n - 1 units of 2^-W of the
    exact R^n, and R^n within n of r^n, so the first n's powers fall short
    by at most 2n - 1 units.  A step by d multiplies a power short by e by
    one short by at most 2d - 1 and floors once: short by at most
    e r^d + (2d - 1) + 1 <= e + 2d.  So at every n, after any steps, each
    power is short by at most D = 2n - 1, and T* - T <= D sum g in those
    units.  mpf_pow_int rounds toward zero throughout, at
    wp + 4 bitcount(n) + 4 bits before its last floor to wp bits (it backs
    mpmath's interval arithmetic), so its F 2^f is short of c^n by under
    2^(2-wp) of it: c^n <= F 2^f (1 + 2^(3-wp)).  So X = F T falls short
    of the sum by at most X 2^(3-wp) + F D (sum g) (1 + 2^(3-wp)), and S,
    X floored to wp bits, by one unit more.  The first node at c weighs
    G_c, so T >= G_c 2^W, and W = wp + bits(sum G) - bits(G_c) + 1 puts
    D sum G below D 2^-wp T: E < (2n + 8) 2^-wp (S + 1) + 3 <= 2n + 11,
    within 2^(ERROR_BITS - wp) S for every n <= 2^(ERROR_BITS - 2) - 6.
    """
    wp, W, c, gs, kg, weight, chain = base
    if not gs:
        return dict.fromkeys(ns, (0, 0, 0))
    out = {}
    P, prev = None, 0
    for n in ns:
        if n > prev:
            d = n - prev
            while len(chain) < d.bit_length():
                chain.append([a * a >> W for a in chain[-1]])
            Q = None
            for j, level in enumerate(chain[:d.bit_length()]):
                if d >> j & 1:
                    Q = level if Q is None else [a * b >> W for a, b in zip(Q, level)]
            P = Q if P is None else [p * q >> W for p, q in zip(P, Q)]
            prev = n
        _, F, f, _ = mpf_pow_int(c, n, wp, round_floor)
        X = F * sum(map(mul, gs, P))
        Y = F * (2 * n - 1) * weight
        short = (X >> (wp - 3)) + Y + (Y >> (wp - 3)) + 2
        s = X.bit_length() - wp  # > 0, as X >= G_c 2^W
        out[n] = X >> s, 1 - (-short >> s), kg + W - f - s
    return out


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
