"""The expansion pipeline for I(n) = sqrt(n) int_0^inf |sin t / t|^n dt.

On [0, sqrt(6n)] the integrand is written as exp(-t^2/6) times

    [exp(t^2 / 6n) T_k(t / sqrt n)]^n ,

where T_k is the degree-2k Maclaurin partial sum of sinc.  The bracketed
factor equals 1 + sum_{j>=2} a_j t^{2j}/n^j with a_j the Cauchy-product
coefficients of the exponential against the partial sum; the t^2 terms
cancel by construction, which is what makes the collected power start at
1/n^1.  Collecting the n-th power by powers of 1/n (series module) and
integrating row by row against the Gaussian weight,

    int_0^inf exp(-t^2/6) t^{2w} dt = 3^w (2w-1)!! * sqrt(3 pi / 2),

turns row i into the exact coefficient c_i of 1/n^i, reported in units of
sqrt(3 pi / 2).  Order m reads a_2..a_{m+1} only, so the coefficients are
independent of k as long as k >= m + 1, which the pipeline enforces and
the tests exercise.

Partial sums and table rows are dicts from t-exponent to exact coefficient.
The module also carries the degree-28 bookkeeping table (rows through
1/n^13, exponents through t^28) against which the shipped fixture file is
regression-checked, the printed coefficients, and the erratum ledger for
the entries where print and recomputation differ (data/errata.json).
check_errata is the one place that sets the ledger against live values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Mapping

import mpmath as mp

from .rationals import double_factorial, format_rational, parse_rational, to_mpf
from .series import InvNSeries, _t_series, collect_binomial_rows, moment_coeffs

__all__ = [
    "SincExpansion",
    "ErrataCheck",
    "SINC_UNIT",
    "REFERENCE_SINC",
    "sinc_partial_sum",
    "sinc_aj",
    "gaussian_moment_ratio",
    "sinc_expansion",
    "cutoff_tail_bound",
    "appendix_table",
    "load_appendix_fixture",
    "appendix_mismatches",
    "load_errata",
    "check_errata",
]

SINC_UNIT = "sqrt(3*pi/2)"

# Reference expansion coefficients in units of sqrt(3*pi/2), as printed in
# the source material; the ledgered duplicated line is kept exactly as printed.
REFERENCE_SINC = {
    0: "1",
    1: "-3/20",
    2: "-13/1120",
    3: "27/3200",
    4: "52791/3942400",
    5: "-5270328789/136478720000",
    6: "-124996631/10035200000",
    7: "-5270328789/136478720000",
}

APPENDIX_MAX_ROW = 13   # deepest 1/n power in the degree-28 table
APPENDIX_MAX_W = 14     # half the top t-exponent (t^28)
APPENDIX_K = 8          # truncation index the order-7 pipeline pins


def sinc_partial_sum(k: int) -> dict[int, Fraction]:
    """T_k(t) = sum_{j=0}^k (-1)^j t^{2j} / (2j+1)!, keyed by the exponent 2j."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return {2 * j: Fraction((-1) ** j, math.factorial(2 * j + 1)) for j in range(k + 1)}


def sinc_aj(j: int, k: int) -> Fraction:
    """Coefficient of t^{2j} in E_k(t) * sin(t)/t, E_k the degree-2k partial
    sum of exp(t^2/6).

    a_0 = 1 and a_1 = 0 (the t^2/6 terms cancel); a_2 = -1/180 starts the
    genuine series.  For j <= k, every a_j an expansion reads, this is also
    the coefficient in exp(t^2/6) * T_k(t); appendix_table reads j > k.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    if k < 1:
        raise ValueError("k must be at least 1")
    # over 6^j (2j+1)!, term i is (-6)^(j-i) (2j+1)! / (i! (2j-2i+1)!)
    total, term = 0, (-6) ** j
    for i in range(min(j, k) + 1):
        total += term
        term = term * (2 * (j - i) + 1) * (2 * (j - i)) // (-6 * (i + 1))
    return Fraction(total, 6**j * math.factorial(2 * j + 1))


def gaussian_moment_ratio(j: int) -> Fraction:
    """int_0^inf e^{-t^2/6} t^{2j} dt divided by the j = 0 integral."""
    return Fraction(3**j) * double_factorial(j)


@dataclass(frozen=True)
class SincExpansion:
    """Exact expansion I(n) ~ SINC_UNIT * sum_j coeffs[j] / n^j."""

    m: int
    k: int
    coeffs: tuple[Fraction, ...]

    def partial_sum_mpf(self, n) -> mp.mpf:
        """sum_j c_j / n^j at current mpmath precision (unit not applied)."""
        nn = mp.mpf(n)
        return mp.fsum(to_mpf(c) / nn**j for j, c in enumerate(self.coeffs))


def sinc_expansion(m: int, k: int | None = None) -> SincExpansion:
    """Exact c_0..c_m in units of sqrt(3 pi / 2).

    k defaults to m + 1, the smallest truncation index for which the
    partial sums bracket sinc on the relevant range.  The expansion reads
    a_2..a_{m+1} only, each independent of k >= m + 1, so every such k gives
    identical coefficients.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if k is None:
        k = m + 1
    if k <= m:
        raise ValueError("truncation too short: k must be at least m + 1")
    a = {j: sinc_aj(j, k) for j in range(2, m + 2)}
    return SincExpansion(m=m, k=k, coeffs=moment_coeffs(a, m, gaussian_moment_ratio))


def cutoff_tail_bound(n: int, cutoff) -> mp.mpf:
    """Bound sqrt(n) A^{1-n} / (n-1) on the integral beyond A >= 1.

    Uses |sin t / t|^n <= t^{-n}; at A = sqrt 6 it is sqrt(6n) 6^{-n/2} / (n-1).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    A = mp.mpf(cutoff)
    if A < 1:
        raise ValueError("cutoff must be at least 1")
    return mp.sqrt(n) * A ** (1 - n) / (n - 1)


def appendix_table(k: int = APPENDIX_K) -> InvNSeries:
    """The degree-28 bookkeeping table: rows 0..13, exponents through t^28.

    Rows 0..7 are the asymptotic coefficients of the order-7 pipeline and
    are independent of k >= 8.  Rows 8..13 are bookkeeping only (the
    order-7 truncation is not valid at those orders) and do depend on k;
    the default matches the pipeline's own truncation index.
    """
    if k < APPENDIX_K:
        raise ValueError(f"k must be at least {APPENDIX_K}")
    a = {j: sinc_aj(j, k) for j in range(2, APPENDIX_MAX_W + 1)}
    return _t_series(collect_binomial_rows(a, max_row=APPENDIX_MAX_ROW, max_w=APPENDIX_MAX_W))


def _data_text(name: str) -> str:
    return resources.files("ballint").joinpath("data", name).read_text(encoding="utf-8")


def load_appendix_fixture(text: str | None = None) -> dict[tuple[int, int], Fraction]:
    """Parse the fixture table of (row, exponent, rational) triples.

    One triple per line, whitespace separated; blank lines and lines
    starting with '#' are ignored.  Malformed rationals, odd exponents,
    and duplicate (row, exponent) keys are rejected.
    """
    if text is None:
        text = _data_text("appendix_a.txt")
    table: dict[tuple[int, int], Fraction] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise ValueError(f"fixture line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            row = int(parts[0])
            exp = int(parts[1])
        except ValueError:
            raise ValueError(f"fixture line {lineno}: bad row/exponent") from None
        if row < 0 or exp < 0 or exp % 2 != 0:
            raise ValueError(f"fixture line {lineno}: row/exponent out of range")
        try:
            value = parse_rational(parts[2])
        except ValueError as e:
            raise ValueError(f"fixture line {lineno}: {e}") from None
        key = (row, exp)
        if key in table:
            raise ValueError(f"fixture line {lineno}: duplicate entry for row {row}, t^{exp}")
        table[key] = value
    if not table:
        raise ValueError("fixture is empty")
    return table


@dataclass(frozen=True)
class AppendixMismatch:
    row: int
    exponent: int
    engine: Fraction
    fixture: Fraction


def appendix_mismatches(table: InvNSeries, fixture: Mapping[tuple[int, int], Fraction]) -> list[AppendixMismatch]:
    """Entries where the recomputed table and the fixture disagree.

    The comparison universe is the union of both monomial sets restricted
    to the fixture's shape (rows <= 13, exponents <= 28); a value missing
    on either side counts as 0 there.
    """
    engine: dict[tuple[int, int], Fraction] = {}
    for i, exp, v in table.monomials():
        if i <= APPENDIX_MAX_ROW and exp <= 2 * APPENDIX_MAX_W:
            engine[(i, exp)] = v
    out = []
    for key in sorted(set(engine) | set(fixture)):
        ev = engine.get(key, Fraction(0))
        fv = fixture.get(key, Fraction(0))
        if ev != fv:
            out.append(AppendixMismatch(row=key[0], exponent=key[1], engine=ev, fixture=fv))
    return out


def load_errata() -> dict:
    """The erratum ledger shipped with the package (data/errata.json)."""
    return json.loads(_data_text("errata.json"))


@dataclass(frozen=True)
class ErrataCheck:
    """The erratum ledger set against the live table and coefficients.

    mismatches pairs every table-fixture mismatch (at APPENDIX_K) with the
    ledger entry recording its fixture and recomputed values, or with None
    when no entry does.  The ledger is aligned when unledgered (those
    mismatches with None) and stale (the table entries that record no live
    mismatch), both sorted (row, exponent) pairs, are empty.  coefficients
    maps an order to its ledger entry when that entry records the printed
    REFERENCE_SINC value and the engine's c_order.
    """

    fixture: dict[tuple[int, int], Fraction]
    mismatches: tuple[tuple[AppendixMismatch, dict | None], ...]
    unledgered: tuple[tuple[int, int], ...]
    stale: tuple[tuple[int, int], ...]
    coefficients: dict[int, dict]


def check_errata() -> ErrataCheck:
    """Compare the shipped erratum ledger with the fixture, the recomputed
    table and the printed coefficients; see ErrataCheck."""
    fixture = load_appendix_fixture()
    errata = load_errata()
    unmatched = {(e["row"], e["exponent"], e["fixture"], e["recomputed"]): e for e in errata["table"]}
    mismatches = tuple(
        (m, unmatched.pop((m.row, m.exponent, format_rational(m.fixture), format_rational(m.engine)), None))
        for m in appendix_mismatches(appendix_table(), fixture))
    coefficients = {}
    for e in errata["coefficients"]:
        j = e["order"]
        if (e["fixture"], e["recomputed"]) == (REFERENCE_SINC.get(j), format_rational(sinc_expansion(j).coeffs[j])):
            coefficients[j] = e
    unledgered = tuple(sorted((m.row, m.exponent) for m, e in mismatches if e is None))
    stale = tuple(sorted((e["row"], e["exponent"]) for e in unmatched.values()))
    return ErrataCheck(fixture, mismatches, unledgered, stale, coefficients)
