"""Sums of powers g h^n for many n at once, in fixed-point Python integers.

The quadrature ladder (quadrature._ladder) integrates g(t) h(t)^n over a
piece for every n of a batch from one set of node values.  power_sums
gives every such Gauss sum as an integer S in units of 2^-k, the unit k
chosen per piece and n so that S keeps about wp bits however small the sum
is, with a bound E on how far it falls short of the exact sum of the node
values.  round_total adds the pieces of one total and rounds it once,
saying whether that is surely the exact sum's rounding.
"""

from __future__ import annotations

from typing import Sequence

import mpmath as mp
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

__all__ = ["ERROR_BITS", "fixed_powers", "power_sums", "round_total"]


def fixed_powers(xs: list[int], k: int, wp: int) -> list[int]:
    """[x^k] for fixed-point x in [0, 2^wp], scaled by 2^wp, by binary
    powering with every product floored: each within k - 1 units of the
    exact power of x."""
    out = None
    while True:
        if k & 1:
            out = xs if out is None else [a * b >> wp for a, b in zip(out, xs)]
        k >>= 1
        if not k:
            return out
        xs = [a * a >> wp for a in xs]


def _floor_bits(x: tuple, wp: int) -> tuple[int, int]:
    """(m, e), m 2^e the raw mpf x >= 0 floored to at most wp bits."""
    _, man, exp, bc = x
    return (man >> (bc - wp), exp + bc - wp) if bc > wp else (man, exp)


def _mul(x: tuple[int, int], y: tuple[int, int], wp: int) -> tuple[int, int]:
    """x y floored to at most wp bits: short by under 2^(1-wp) of itself."""
    m, e = x[0] * y[0], x[1] + y[1]
    s = m.bit_length() - wp
    return (m >> s, e + s) if s > 0 else (m, e)


def _power(x: tuple[int, int], k: int, wp: int) -> tuple[int, int]:
    """x^k, k >= 1, by binary powering with _mul: at most 2 bitcount(k) - 2 products."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else _mul(out, x, wp)
        k >>= 1
        if not k:
            return out
        x = _mul(x, x, wp)


ERROR_BITS = 32  # a running product starts afresh once its E exceeds 2^(ERROR_BITS - wp) S


def _fresh_terms(hs: Sequence[tuple], gs: Sequence[tuple], n: int, wp: int) -> tuple[list[int], int, int]:
    """(T, E, k): each g h^n floored to the unit 2^-k that puts the largest at
    wp bits, their sum short of the exact one by at most E units; k = 0 if
    every term is exactly 0.

    Each term is a floating binary power with wp-bit mantissas (_power)
    times g.  Every floored product is short by under 2^(1-wp) of itself,
    and the later squarings double that: a floor in h^(2^i) counts
    floor(n/2^i) times in h^n.  So the power counts at most n - 1 of them,
    and the term, with g floored and multiplied in, c = n + 1 (n more if
    some h has more than wp bits): it is short by at most rho = c 2^(1-wp)
    of its value.  Floored to the unit, the N terms' sum S is short by at
    most N + 2 rho (S + N), as rho <= 1/2 (ArithmeticError otherwise).
    """
    c = n + 1 + (n if any(h[3] > wp for h in hs) else 0)
    if c > 1 << (wp - 2):
        raise ArithmeticError(f"n = {n} is too large for {wp}-bit power sums")
    terms = [_mul(_floor_bits(g, wp), _power(_floor_bits(h, wp), n, wp), wp) for h, g in zip(hs, gs)]
    tops = [m.bit_length() + e for m, e in terms if m]
    if not tops:
        return [0] * len(terms), 0, 0
    k = wp - max(tops)
    T = [m << (e + k) if e + k >= 0 else m >> -(e + k) for m, e in terms]
    return T, len(T) + 1 + (c * (sum(T) + len(T)) >> (wp - 2)), k


def power_sums(hs: Sequence[tuple], gs: Sequence[tuple], ns: Sequence[int], wp: int) -> dict[int, tuple[int, int, int]]:
    """{n: (S, E, k)} for increasing ns: S 2^-k <= sum_i g_i h_i^n <= (S + E) 2^-k.

    hs and gs hold the N nodes' values as raw mpfs: h in [0, 1]
    (ArithmeticError otherwise) and g >= 0.  Each node's term g h^n is one
    running product across ns, in a unit 2^-k that follows the sum.  At
    the first n the terms start afresh (_fresh_terms), the largest at wp
    bits.  Each later n multiplies every term by floor(h^d 2^wp) for the
    gap d, by binary powering (fixed_powers, once per d), and raises k by
    the s bits the sum fell short of wp at the n before, in the same
    floored product.

    Error, in units u = 2^-k, at n + d after a step: each h^d is within
    2d - 1 units of 2^-wp, so each term's error shrinks by h^d <= m_d =
    (max floor(h^d 2^wp) + 2d - 1) 2^-wp, each product floors once, and
    h^d's own error is scaled by the term: E becomes (E m_d + (2d - 1) S
    2^-wp) 2^s + N, rounded up.  The sum falls by about h^d a step, so E/S,
    the relative error, grows by m_d/h^d a step, and by about 2^-wp S(n)/S
    at a step that takes the sum S(n) down to S: little while the sum falls
    like max(h)^n, more when a large gap or an early peak leaves the
    largest terms with few bits.  So once E exceeds 2^(ERROR_BITS - wp) S
    the terms start afresh at that n, and every sum this returns has
    E <= 2^(ERROR_BITS - wp) S.
    """
    one = 1 << wp
    H = [to_fixed(h, wp) for h in hs]
    if H and max(H) > one:
        raise ArithmeticError("a power-sum base lies above 1")
    T, E, k = _fresh_terms(hs, gs, ns[0], wp)
    S = sum(T)
    gaps = {}
    out = {}
    for prev, n in zip((ns[0], *ns), ns):
        if n > prev and S:
            d = n - prev
            if d not in gaps:
                Q = fixed_powers(H, d, wp)
                gaps[d] = Q, min(max(Q) + 2 * d - 1, one)
            Q, m_d = gaps[d]
            s = max(wp - S.bit_length(), 0)
            T = [t * q >> (wp - s) for t, q in zip(T, Q)]
            E = ((E * m_d + (2 * d - 1) * S) >> (wp - s)) + 1 + len(T)
            S = sum(T)
            k += s
            if E.bit_length() > S.bit_length() - wp + ERROR_BITS:
                T, E, k = _fresh_terms(hs, gs, n, wp)
                S = sum(T)
        out[n] = S, E, k
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
