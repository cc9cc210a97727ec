"""Even polynomials and truncated 1/n series with exact coefficients.

EvenPoly is a sparse polynomial in t containing only even powers; it houses
Maclaurin partial sums and the per-row polynomials of collected expansions.
InvNSeries is the truncated expansion sum_i row_i(t) / n^i.

nseries_pow_binomial collects [1 + sum_{j>=2} a_j x^j / n^j]^n, x = t^2, by
powers of 1/n as exp(n log(...)).  The log b of 1 + sum_j a_j x^j has b_1 = 0,
so the 1/n^k term of n log(...) is the single monomial b_{k+1} x^{k+1}, and
row i of the exponential, E_i = (1/i) sum_{k=1}^{i} k b_{k+1} x^{k+1} E_{i-k},
is a shift and scale of earlier rows.  Row i reads a_2..a_{i+1} only, and
each monomial x^w of it has i < w <= 2i (i >= 1); row 0 is exactly 1.

moment_coeffs finishes the three-stage pipeline that sinc and bessel share:
given a pipeline's a_j and the moments of its Gaussian weight, it collects
the power and integrates each row, giving the exact coefficient of 1/n^i.
It reads the collector's integer rows directly; nseries_pow_binomial is
the same rows as an InvNSeries of EvenPolys.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

import mpmath as mp

from .rationals import Rat, format_rational, to_mpf

__all__ = ["EvenPoly", "InvNSeries", "nseries_pow_binomial", "collect_binomial_rows", "moment_coeffs"]


class EvenPoly:
    """Sparse exact polynomial in t with even exponents only.

    Zero coefficients are never stored, so structural equality is value
    equality.  Instances are immutable.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, Rat] | None = None):
        c: dict[int, Fraction] = {}
        for exp, val in (coeffs or {}).items():
            exp = int(exp)
            if exp < 0 or exp % 2 != 0:
                raise ValueError(f"exponent {exp} is not a nonnegative even integer")
            v = Fraction(val)
            if v:
                c[exp] = v
        self._c = c

    def items(self) -> list[tuple[int, Fraction]]:
        """(exponent, coefficient) pairs in increasing exponent order."""
        return sorted(self._c.items())

    @property
    def max_degree(self) -> int:
        return max(self._c, default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EvenPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def eval_mpf(self, t) -> mp.mpf:
        """Value at an mpmath point, Horner in t^2 at current precision."""
        if not self._c:
            return mp.mpf(0)
        s = mp.mpf(t) ** 2
        acc = mp.mpf(0)
        for w in range(self.max_degree // 2, -1, -1):
            acc = acc * s
            v = self._c.get(2 * w)
            if v is not None:
                acc += to_mpf(v)
        return acc

    def __repr__(self) -> str:
        if not self._c:
            return "EvenPoly(0)"
        parts = [f"{format_rational(v)}*t^{e}" if e else format_rational(v) for e, v in self.items()]
        return "EvenPoly(" + " + ".join(parts) + ")"


class InvNSeries:
    """Truncated expansion sum_{i=0}^{order} row_i(t) / n^i with exact rows."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Sequence[EvenPoly]):
        if not rows:
            raise ValueError("at least row 0 is required")
        self._rows = tuple(rows)

    @property
    def rows(self) -> tuple[EvenPoly, ...]:
        return self._rows

    def monomials(self) -> Iterator[tuple[int, int, Fraction]]:
        """All (row, exponent, coefficient) entries, row-major, sorted."""
        for i, r in enumerate(self._rows):
            for exp, v in r.items():
                yield i, exp, v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InvNSeries):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"InvNSeries(order={len(self._rows) - 1}, rows={list(self._rows)!r})"


def _validate_a(a: Mapping[int, Rat], min_j_needed: int) -> dict[int, Fraction]:
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


def _log_coeffs(a: Mapping[int, Rat], top: int) -> list[Fraction]:
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


def _binomial_rows(a: Mapping[int, Rat], max_row: int, max_w: int) -> list[tuple[int, dict[int, int]]]:
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


def collect_binomial_rows(a: Mapping[int, Rat], max_row: int, max_w: int) -> list[dict[int, Fraction]]:
    """Rows of [1 + sum a_j t^{2j}/n^j]^n, keeping t^{2w} with w <= max_w.

    Returns dicts mapping w (half the t-exponent) to the exact coefficient
    of t^{2w} / n^i for each row i <= max_row.  Shared by the order-m
    expansion (max_row = m, max_w = 2m) and by the wider bookkeeping table
    that mirrors the degree-28 fixture (max_row = 13, max_w = 14).  Only
    a_j with 2 <= j <= min(max_row + 1, max_w) are read; a missing one is 0.
    """
    return [{w: Fraction(v, d) for w, v in row.items()} for d, row in _binomial_rows(a, max_row, max_w)]


def nseries_pow_binomial(a: Mapping[int, Rat], m: int) -> InvNSeries:
    """Collect [1 + sum_{j>=2} a_j t^{2j}/n^j]^n through order m in 1/n.

    Requires a_j for every 2 <= j <= m + 1: row i draws on a_2..a_{i+1}
    only (see the module docstring).  Rows beyond order m are discarded
    exactly; everything kept is exact.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    aa = _validate_a(a, m + 1)
    raw = collect_binomial_rows(aa, max_row=m, max_w=2 * m)
    return InvNSeries([EvenPoly({2 * w: v for w, v in r.items()}) for r in raw])


def moment_coeffs(a: Mapping[int, Rat], m: int, moment: Callable[[int], Rat]) -> tuple[Fraction, ...]:
    """Exact coefficients of 1/n^0..1/n^m of the integrated expansion.

    Collects [1 + sum_j a_j t^{2j}/n^j]^n through order m and integrates
    row i against the pipeline's weight: each monomial t^{2w} becomes
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
