"""Exact references for the expansion coefficients, derived apart from ballint.

The program builds its coefficients from a truncated Maclaurin partial sum
multiplied by a Gaussian factor and collected by Newton's binomial formula.
This module takes the classical Laplace route instead: write the integrand
as exp(n log f(t/sqrt n)), expand log f as a power series, exponentiate the
part beyond the quadratic term as a series in 1/n, and integrate each power
of t against the Gaussian weight.  Everything is exact (Fraction); nothing
here imports ballint.

  sinc:   log(sin x / x) = sum_k (-1)^k 2^(2k-1) B_2k x^2k / (k (2k)!),
          c_i = sum_w [s^2w] P_i(s) * 3^w (2w-1)!!            (units sqrt(3 pi/2))
  Bessel: f_nu(t) = 0F1(; nu+1; -t^2/4), log taken as a power series in
          u = t^2/4;  gamma_i = sum_w [v^w] P_i(v) * (nu+1)^w (nu)_w,
          with v = s^2/4 and the weight exp(-s^2/(4(nu+1))) s^(2nu-1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """B_m with B_1 = -1/2, from sum_{k<=m} C(m+1, k) B_k = 0."""
    values = [Fraction(1)]
    for j in range(1, m + 1):
        values.append(-sum(math.comb(j + 1, k) * values[k] for k in range(j)) / (j + 1))
    return values[m]


def _exp_series(log_terms: dict[int, dict[int, Fraction]], order: int) -> list[dict[int, Fraction]]:
    """P_0..P_order with sum_i P_i eps^i = exp(sum_j E_j eps^j), E_0 = 0.

    Each E_j and P_i is a polynomial in one variable, stored as a dict
    exponent -> coefficient.  Uses F' = E' F: P_m = (1/m) sum_j j E_j P_{m-j}.
    """
    out = [{0: Fraction(1)}]
    for m in range(1, order + 1):
        acc: dict[int, Fraction] = {}
        for j in range(1, m + 1):
            ej = log_terms.get(j)
            if not ej:
                continue
            for e1, v1 in ej.items():
                for e2, v2 in out[m - j].items():
                    acc[e1 + e2] = acc.get(e1 + e2, Fraction(0)) + j * v1 * v2
        out.append({e: v / m for e, v in acc.items() if v})
    return out


@lru_cache(maxsize=None)
def sinc_coefficients(order: int) -> tuple[Fraction, ...]:
    """c_0..c_order of I(n) ~ sqrt(3 pi/2) sum_i c_i / n^i."""
    # n log sinc(s/sqrt n) = -s^2/6 + sum_{k>=2} b_k s^2k / n^(k-1); exponent stored as k (power of s^2)
    log_terms = {}
    for j in range(1, order + 1):
        k = j + 1
        b = Fraction((-1) ** k * 2 ** (2 * k - 1)) * bernoulli(2 * k) / (k * math.factorial(2 * k))
        log_terms[j] = {k: b}
    return tuple(gaussian_moment(poly) for poly in _exp_series(log_terms, order))


def gaussian_moment(poly: dict[int, Fraction]) -> Fraction:
    """Integrate sum_w poly[w] s^2w against exp(-s^2/6), in units of the
    zeroth moment: s^2w contributes 3^w (2w-1)!!."""
    return sum(v * 3**w * _double_factorial(w) for w, v in poly.items())


def _double_factorial(w: int) -> int:
    """(2w-1)!!, with (-1)!! = 1."""
    return math.prod(range(2 * w - 1, 0, -2))


def _rising(x: Fraction, count: int) -> Fraction:
    out = Fraction(1)
    for r in range(count):
        out *= x + r
    return out


def _log_0f1(nu: Fraction, order: int) -> list[Fraction]:
    """L_0..L_order with log 0F1(; nu+1; -u) = sum_m L_m u^m."""
    f = [Fraction((-1) ** j) / (math.factorial(j) * _rising(nu + 1, j)) for j in range(order + 1)]
    logs = [Fraction(0)]
    for m in range(1, order + 1):
        acc = f[m]
        for k in range(1, m):
            acc -= Fraction(k, m) * logs[k] * f[m - k]
        logs.append(acc)
    return logs


@lru_cache(maxsize=None)
def bessel_gammas(nu: Fraction, order: int) -> tuple[Fraction, ...]:
    """gamma_0..gamma_order of I_nu(n) ~ c_0(nu) sum_i gamma_i / n^i."""
    logs = _log_0f1(nu, order + 1)
    # n log f(s/sqrt n) = -v/(nu+1) + sum_{m>=2} L_m v^m / n^(m-1), v = s^2/4
    log_terms = {m - 1: {m: logs[m]} for m in range(2, order + 2)}
    gammas = []
    for poly in _exp_series(log_terms, order):
        gammas.append(sum(v * (nu + 1) ** w * _rising(nu, w) for w, v in poly.items()))
    return tuple(gammas)


def bessel_gamma_closed_forms(nu: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """The source paper's closed forms for gamma_1, gamma_2, gamma_3 in nu."""
    v = Fraction(nu)
    g1 = -v * (v + 1) / (2 * (v + 2))
    g2 = v * (v + 1) * (3 * v**2 + 2 * v - 5) / (24 * (v + 2) * (v + 3))
    g3 = -v * (v + 1) ** 2 * (v**3 - v**2 - 4 * v - 8) / (48 * (v + 2) ** 2 * (v + 4))
    return g1, g2, g3

