"""Sums of powers g h^n for many n from one base, in fixed-point Python integers.

The quadrature ladder (quadrature._ladder) integrates g(t) h(t)^n over a
piece for every n of a batch from one set of node values, held as integers:
h_i = H_i 2^-kh in [0, 1] and g_i = G_i 2^-kg >= 0, each a value rounded to
the working precision (round_bits) and held exactly (fixed_nodes).
power_base takes from them once what does not depend on n: the weights,
floored to about wp bits at the largest h (the exact products of Gauss
weight, half-width and node weight are 464-671 bits wide on the pieces of a
nu = 1 sweep at the default precision, wp = 217), the nodes' ratios to the
largest h and those ratios' squares, and the largest h's own squares,
floored to wp bits.  So a caller that holds it, as the Bessel family store
does, floors, divides and squares no more; power_sum then gives each n's
Gauss sum, by binary powering per n from the two chains, as an integer S of
wp bits in units of 2^-k, however small the sum is, with a bound E on how
far it falls short of the exact sum of the node values.  round_total adds
the pieces of one total and rounds it once, saying whether that is surely
the exact sum's rounding.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul
from typing import Sequence

import mpmath as mp
from mpmath.libmp import from_man_exp, round_nearest

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


ERROR_BITS = 32  # power_sum's E is within 2^(ERROR_BITS - wp) S for every n <= 2^(ERROR_BITS - 5), wp >= 64


# What power_sum reads of one set of nodes, none of it dependent on n (power_base):
# the nonzero weights gs, floored to about wp bits at the largest h, in units of 2^-kg,
# and their sum weight, W, the chain [c, c^2, c^4, ...] of the largest h's squares as
# (mantissa, exponent) pairs of wp bits, and the chain [R, R^2, R^4, ...] of the ratios'
# squares, each floored to W bits; power_sum grows both when an n needs a level they
# lack.  gs = [] when every term is 0.
PowerBase = namedtuple("PowerBase", "wp W cs gs kg weight chain")


def power_base(hs: Sequence[int], gs: Sequence[int], kh: int, kg: int, wp: int) -> PowerBase:
    """power_sum's base at wp bits for the nodes h_i = hs_i 2^-kh in [0, 1]
    (ArithmeticError otherwise) and g_i = gs_i 2^-kg >= 0."""
    if not all(gs):
        hs, gs = [h for h, g in zip(hs, gs) if g], [g for g in gs if g]
    top = max(hs, default=0)
    if top > 1 << kh:
        raise ArithmeticError("a power-sum base lies above 1")
    if not top:
        return PowerBase(wp, 0, [], [], kg, 0, [])
    sg = gs[hs.index(top)].bit_length() - wp - len(gs).bit_length() - 4
    if sg > 0:
        gs, kg = [g >> sg for g in gs], kg - sg
    weight = sum(gs)
    W = wp + weight.bit_length() - gs[hs.index(top)].bit_length() + 1
    s = top.bit_length() - wp
    c = (top >> s if s > 0 else top << -s), s - kh
    return PowerBase(wp, W, [c], gs, kg, weight, [[(h << W) // top for h in hs]])


def power_sum(base: PowerBase, n: int) -> tuple[int, int, int]:
    """(S, E, k) for n >= 1: S 2^-k <= sum_i g_i h_i^n <= (S + E) 2^-k for
    the nodes of base (power_base); S has wp bits, or S = E = k = 0 when
    every term is 0.

    The nodes of weight 0 are dropped and the rest scaled once to their
    largest h, c = H 2^-kh: each ratio r_i = h_i / c is floored to
    R_i = floor(r_i 2^W).  The N weights G_i = g_i 2^kg are floored by sg
    bits to G'_i, in units of 2^-(kg - sg): sg = bits(G_c) - wp - bits(N) - 4
    for the weight G_c of the first node at c, or 0 if that is not positive.
    So the sum is c^n T* 2^-(kg - sg + W), T* = sum_i G_i 2^-sg r_i^n 2^W.
    R^n is binary powering per n from the chain, the levels at n's set
    bits, lowest first, every product floored to W bits, so no integer
    widens with n, the node at c stays exactly 2^W, and a chain grown by an
    earlier call gives a fresh one's integers.  c^n is binary powering from
    c's chain alike, c and every square and product floored to a mantissa
    of wp bits: F 2^f.  With T = sum_i G'_i R_i^n, X = F T and S is X
    floored to wp bits.

    Error.  If sg > 0, each G'_i falls short of G_i 2^-sg by under one and
    r_i^n <= 1, so the weights cost T under N 2^W, while
    T >= G'_c 2^W >= 2^(wp + bits(N) + 3 + W): under 2^-(wp+3) T.
    Binary powering's R^n is within n - 1 units of 2^-W of the exact R^n,
    and R^n within n of r^n, so each power falls short by at most
    D = 2n - 1 units and the ratios cost T under D sum G' more;
    W = wp + bits(sum G') - bits(G'_c) + 1 puts D sum G' below D 2^-wp T.
    A floor to wp bits loses under 2^(1-wp) of what it floors, and c^n
    holds each floor of c's chain at level j >= 1 floor(n / 2^j) times,
    that of c itself n times and each product's once: 2n - 1 in all, so
    F 2^f >= c^n (1 - rho), rho = (2n - 1) 2^(1-wp) <= 1/2.  So in X's unit
    X falls short of the sum by (rho X + F (T* - T)) / (1 - rho)
    < n 2^(3-wp) X + Y (1 + n 2^(3-wp)) for Y = F D sum G', and S by one
    unit more.  As X < 2^(wp+s) for S = X 2^-s floored and Y < D 2^-wp X,
    E < 8n + D + 8n D 2^-wp + 3 <= 10n + 3 once 16 n^2 <= 2^wp: within
    2^(ERROR_BITS - wp) S for every n <= 2^(ERROR_BITS - 5) when wp >= 64.
    """
    wp, W, cs, gs, kg, weight, chain = base
    if not gs:
        return 0, 0, 0
    while len(chain) < n.bit_length():
        chain.append([a * a >> W for a in chain[-1]])
        M, e = cs[-1]
        M *= M
        s = M.bit_length() - wp
        cs.append((M >> s, 2 * e + s))
    P = None
    for j, level in enumerate(chain[:n.bit_length()]):
        if n >> j & 1:
            if P is None:
                P, (F, f) = level, cs[j]
            else:
                M, e = cs[j]
                P = [a * b >> W for a, b in zip(P, level)]
                F *= M
                s = F.bit_length() - wp
                F, f = F >> s, f + e + s
    X = F * sum(map(mul, gs, P))
    Y = F * (2 * n - 1) * weight
    short = (n * X >> (wp - 3)) + Y + (n * Y >> (wp - 3)) + 2
    s = X.bit_length() - wp  # > 0, as X >= F G'_c 2^W
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
