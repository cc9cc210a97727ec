"""Truncated 1/n series with exact coefficients, and their collection.

An exact polynomial in t is a dict mapping each t-exponent to a nonzero
Fraction.  InvNSeries is the truncated expansion sum_i row_i(t) / n^i,
one such dict per row.

nseries_pow_binomial collects [1 + sum_{j>=2} a_j x^j / n^j]^n, x = t^2, by
powers of 1/n as exp(n log(...)).  The log b of 1 + sum_j a_j x^j has b_1 = 0,
so the 1/n^k term of n log(...) is the single monomial b_{k+1} x^{k+1}, and
row i of the exponential, E_i = (1/i) sum_{k=1}^{i} k b_{k+1} x^{k+1} E_{i-k},
is a shift and scale of earlier rows.  Row i reads a_2..a_{i+1} only, and
each monomial x^w of it has i < w <= 2i (i >= 1); row 0 is exactly 1.

moment_coeffs finishes the three-stage pipeline of the bessel module, whose
nu = 1/2 case gives the sinc coefficients: given the a_j and the moments of
the Gaussian weight, it collects the power and integrates each row, giving
the exact coefficient of 1/n^i.  It reads the collector's integer rows
directly; nseries_pow_binomial shows the same rows as an InvNSeries keyed
by the t-exponent 2w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

__all__ = ["InvNSeries", "nseries_pow_binomial", "collect_binomial_rows", "moment_coeffs"]


@dataclass(frozen=True)
class InvNSeries:
    """Truncated expansion sum_{i=0}^{order} row_i(t) / n^i with exact rows,
    each a dict from t-exponent to coefficient."""

    rows: tuple[dict[int, Fraction], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("at least row 0 is required")
        object.__setattr__(self, "rows", tuple(self.rows))

    def monomials(self) -> Iterator[tuple[int, int, Fraction]]:
        """All (row, exponent, coefficient) entries, row-major, sorted."""
        for i, r in enumerate(self.rows):
            for exp, v in sorted(r.items()):
                yield i, exp, v


def _validate_a(a: Mapping[int, Fraction], min_j_needed: int) -> dict[int, Fraction]:
    if min_j_needed >= 2:
        if not a:
            raise ValueError("insufficient input coefficients: a_j required for 2 <= j <= "
                             f"{min_j_needed}")
        top = max(a)
        if top < min_j_needed:
            raise ValueError(f"insufficient input coefficients: have up to a_{top}, "
                             f"need a_j through j = {min_j_needed}")
        missing = [j for j in range(2, top + 1) if j not in a]
        if missing:
            raise ValueError(f"insufficient input coefficients: missing a_{missing[0]}")
    if any(j < 2 for j in a):
        raise ValueError("a_j indices must start at j = 2")
    return {int(j): Fraction(v) for j, v in a.items()}


def _log_coeffs(a: Mapping[int, Fraction], top: int) -> list[Fraction]:
    """b_0..b_top of log(1 + sum_{j>=2} a_j x^j), a missing a_j counting as 0:
    (1 + A) b' = A' gives b_j = a_j - (1/j) sum_{k=2}^{j-2} k b_k a_{j-k}."""
    aa = [Fraction(a.get(j, 0)) for j in range(top + 1)]
    b = [Fraction(0)] * (top + 1)
    for j in range(2, top + 1):
        # the sum over the lcm of its terms' denominators, one Fraction a j
        terms = [(k * b[k].numerator * aa[j - k].numerator, b[k].denominator * aa[j - k].denominator)
                 for k in range(2, j - 1) if b[k] and aa[j - k]]
        den = math.lcm(*(d for _, d in terms))
        b[j] = aa[j] - Fraction(sum(v * (den // d) for v, d in terms), j * den)
    return b


def _binomial_rows(a: Mapping[int, Fraction], max_row: int, max_w: int) -> list[tuple[int, dict[int, int]]]:
    """collect_binomial_rows as (d_i, {w: integer numerator}) per row, each
    row over its one denominator d_i, reduced."""
    b = _log_coeffs(a, min(max_row + 1, max_w))
    # grade k of the log, with the factor k of E' = L' E: shift k + 1, value p / q
    grades = [(k, k * b[k + 1].numerator, b[k + 1].denominator) for k in range(1, len(b) - 1) if b[k + 1]]
    rows: list[tuple[int, dict[int, int]]] = [(1, {0: 1})]
    for i in range(1, max_row + 1):
        terms = [(k + 1, p, q * rows[i - k][0], rows[i - k][1]) for k, p, q in grades if k <= i]
        den = math.lcm(*(d for _, _, d, _ in terms))
        acc: dict[int, int] = {}
        for shift, p, d, row in terms:
            scale = p * (den // d)
            for w, v in row.items():
                if w + shift <= max_w:
                    acc[w + shift] = acc.get(w + shift, 0) + scale * v
        acc = {w: v for w, v in acc.items() if v}
        g = math.gcd(den * i, *acc.values())
        rows.append((den * i // g, {w: v // g for w, v in acc.items()}))
    return rows


def collect_binomial_rows(a: Mapping[int, Fraction], max_row: int, max_w: int) -> list[dict[int, Fraction]]:
    """Rows of [1 + sum a_j t^{2j}/n^j]^n, keeping t^{2w} with w <= max_w.

    Returns dicts mapping w (half the t-exponent) to the exact coefficient
    of t^{2w} / n^i for each row i <= max_row.  Shared by the order-m
    expansion (max_row = m, max_w = 2m) and by the wider bookkeeping table
    that mirrors the degree-28 fixture (max_row = 13, max_w = 14).  Only
    a_j with 2 <= j <= min(max_row + 1, max_w) are read; a missing one is 0.
    """
    return [{w: Fraction(v, d) for w, v in row.items()} for d, row in _binomial_rows(a, max_row, max_w)]


def nseries_pow_binomial(a: Mapping[int, Fraction], m: int) -> InvNSeries:
    """Collect [1 + sum_{j>=2} a_j t^{2j}/n^j]^n through order m in 1/n.

    Requires a_j for every 2 <= j <= m + 1: row i draws on a_2..a_{i+1}
    only (see the module docstring).  Rows beyond order m are discarded
    exactly; everything kept is exact.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _t_series(collect_binomial_rows(_validate_a(a, m + 1), max_row=m, max_w=2 * m))


def _t_series(rows: Sequence[Mapping[int, Fraction]]) -> InvNSeries:
    """Collected rows, keyed by w, as an InvNSeries keyed by the t-exponent 2w."""
    return InvNSeries([{2 * w: v for w, v in r.items()} for r in rows])


def moment_coeffs(a: Mapping[int, Fraction], m: int, moment: Callable[[int], Fraction]) -> tuple[Fraction, ...]:
    """Exact coefficients of 1/n^0..1/n^m of the integrated expansion.

    Collects [1 + sum_j a_j t^{2j}/n^j]^n through order m and integrates
    row i against the weight: each monomial t^{2w} becomes
    moment(w), the weight's 2w-th moment over its zeroth, so row i turns
    into sum_w row_i[w] moment(w).  The moments go over their lcm D once,
    and row i, integer numerators over d_i, becomes one Fraction over d_i D.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    rows = _binomial_rows(_validate_a(a, m + 1), max_row=m, max_w=2 * m)
    moments = [Fraction(moment(w)) for w in range(2 * m + 1)]
    D = math.lcm(*(v.denominator for v in moments))
    M = [v.numerator * (D // v.denominator) for v in moments]
    return tuple(Fraction(sum(v * M[w] for w, v in row.items()), d * D) for d, row in rows)
