"""High-precision evaluation of the sinc and Bessel power integrals.

This is the numerical oracle against which the exact pipelines are
checked, so the error accounting is explicit everywhere: every estimate
carries an abs_err_bound that adds the quadrature stabilization gap, an
analytic bound on whatever lies beyond the cutoff, and a working-precision
floor.  Analytic tail bounds are never folded into the value.

Integration strategy: |f|^n is smooth except at the zeros of f, so the
domain is split there (multiples of pi for sinc, the zeros of J_nu for
Bessel, found by Newton's method on the kernel and proven complete by a
Sturm comparison) and each smooth piece gets a fixed-order
Gauss-Legendre rule.  The rules come from legendre._legendre_rule, which
builds each from its (order, dps) alone: orders 16 to 256 are read at 75
digits from data/legendre_roots.txt and refined for a wider rule, any
other is found by Halley's method.  One function (_integrate) refines the
whole subdivision together, doubling the order until two successive
totals, times sqrt(n) or n^nu, agree below target/2, in one pass at the
working precision, so the node set is a deterministic function of the
inputs and results are bit-reproducible.  The Bessel kernel is its own
Maclaurin series, summed in fixed-point Python integers (_f_nu).  Every
piece past the first takes its node values from two short series about
its centre t0 (_taylor_series): f_nu's Taylor series, which two
Maclaurin sums seed and the Bessel ODE continues, and the binomial series
of the weight t^(2nu-1) with the exact rational exponent.  The Gauss rule
is symmetric, so the nodes t0 +- rad x come in pairs, and one Horner pass
in (rad x)^2 over each series' even and odd parts gives both nodes of a
pair (_direct_nodes).

Sweeps over n run as batches (sinc_integrals, bessel_integrals) through
that one ladder (_ladder).  Only the final power depends on n, so each
piece's base (|sin t|/t, or |f_nu(t)| with its weight) is evaluated once
a node for every n still on that rung, and each n keeps its own rung,
stopping test, tail and floor.  Every node value is rounded once to the
working precision and held exactly as a Python integer on its piece's
scale.  The powers are one fixed-point running product per node across
n (fixedpoint.power_sums), of each node's ratio to its piece's largest
h, with LADDER_GUARD bits beyond the working precision, and each n's
total is added exactly and rounded once: the correctly rounded Gauss sum
of its node values, which the ladder checks.  So a batch returns what
each n returns alone; the single-n functions are batches of one, sharing
one memo keyed per n.  A loop of Bessel calls over n shares the rest
through one family store (_FAMILY): it holds the last family's pieces,
with their series, and from the family's second consecutive call on the
node values of every rung climbed, as integers, so each node is
evaluated once.  Node values depend only on the piece, the rule order and
the precision, so every estimate keeps every bit.

Two sinc regimes, split by one threshold (_sinc_mode): for large n at most
ZETA_LOBES lobes with the t^{-n} envelope bound suffice; any other n folds
the tail past M = ZETA_LOBES lobes onto a panel on (0, pi) exactly, via
sum_{j>=M} (j pi + s)^{-n} = pi^{-n} zeta_H(n, M + s/pi).  Lobe j's node for
a rule node x is t = (pi/2)(2j+1+x), so |sin t| = cos(pi x/2) on every lobe
and panel, one table a rule (_cosines), and each panel's weight for every
zeta-mode n is one Euler-Maclaurin sum a node (_hurwitz_zetas), once a rung.

For the Bessel integral at n = 2 no usable envelope exists (the tail
decays only like 1/X), but the tail past any X equals
(2^nu Gamma(nu+1))^2 (1 - S(X)) / (2 nu) with
S(X) = J_nu(X)^2 + 2 sum_{k>=1} J_{nu+k}(X)^2.  So n = 2 integrates
only the first piece, up to X = min(j_{nu,1}, cutoff), and adds that
tail to the value as a convergent series, with its truncation error in
the bound; J_{nu+k}(X) comes from the same kernel.  This is the one
documented exception to the finite-interval-only rule.

remainder_decay_fit checks the sinc expansion against these integrals:
it fits the decay of r(n) = I(n) - sqrt(3 pi/2) sum_{j<=m} c_j/n^j and
returns the remainders it fitted, from which the verification suites
estimate the next coefficient.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from typing import Callable, Iterable, Sequence

import mpmath as mp
from mpmath.libmp import (fone, from_int, from_man_exp, mpf_add, mpf_div, mpf_mul, mpf_pi, mpf_pos,
                          mpf_shift, round_nearest, to_fixed)

from .bessel import Nu, amplitude, bessel_tail_bound
from .fixedpoint import fixed_nodes, power_sums, round_bits, round_total
from .legendre import _legendre_rule
from .rationals import to_mpf
from .sinc import cutoff_tail_bound, sinc_expansion

__all__ = [
    "Precision",
    "QuadEstimate",
    "BesselEval",
    "DecayFit",
    "PrecisionFailure",
    "ZETA_LOBES",
    "X_MAX",
    "sinc_integral",
    "sinc_integrals",
    "bessel_j_normalized",
    "bessel_integral",
    "bessel_integrals",
    "remainder_decay_fit",
]

ZETA_LOBES = 24   # head lobes kept in zeta mode
MAX_DOUBLINGS = 5  # quadrature-order doublings for each n; the ladder stops on a gap, so at least 1
X_MAX = 1024  # largest Bessel cutoff X = cutoff_mult 2^nu Gamma(nu+1)
COS_GUARD = 20  # bits the sinc cosine table (_cosines) holds beyond prec


@dataclass(frozen=True)
class Precision:
    """Requested accuracy: decimal_digits of working room.

    The absolute target is 10^-target_digits, held as that exponent,
    target_digits = decimal_digits - 10: Precision()'s 30 digits target
    1e-20; `ballint eval --digits d` targets 1e-d and builds
    Precision(decimal_digits=d + 10).
    The working precision adds fifteen more on top of decimal_digits.
    """

    decimal_digits: int = 30

    def __post_init__(self):
        if self.decimal_digits < 15:
            raise ValueError("decimal_digits must be at least 15")

    @property
    def target_digits(self) -> int:
        return self.decimal_digits - 10

    @property
    def working_dps(self) -> int:
        return self.decimal_digits + 15


@dataclass(frozen=True)
class QuadEstimate:
    """A finite-interval quadrature value with a one-sided error budget.

    abs_err_bound = stabilization gap + analytic bound beyond cutoff_used
    + precision floor.  cutoff_used is inf when the tail was transformed
    into the integrand itself and nothing lies beyond.  A Bessel n = 2
    estimate integrates up to cutoff_used = min(j_{nu,1}, X) and adds the
    exact tail beyond it, whose error is in the bound.
    """

    value: mp.mpf
    abs_err_bound: mp.mpf
    cutoff_used: mp.mpf
    pieces: int


@dataclass(frozen=True)
class BesselEval:
    """One point of f_nu(t) = 2^nu Gamma(nu+1) J_nu(t) / t^nu."""

    nu: Nu
    t: mp.mpf
    value: mp.mpf
    err_bound: mp.mpf


@dataclass(frozen=True)
class DecayFit:
    """Least-squares slope of log|remainder| against log n.

    signed_coeff = sign(remainder at largest usable n) * exp(intercept):
    when slope is close to -(m+1) this estimates the next expansion
    coefficient; residuals are per-point fit residuals in log10 units.
    remainders holds the signed r(n) at each used n, at the working
    precision of the fit.
    """

    slope: float
    signed_coeff: float
    residuals: tuple[float, ...]
    used_n: tuple[int, ...]
    dropped_n: tuple[int, ...]
    remainders: tuple[mp.mpf, ...]


class PrecisionFailure(ArithmeticError):
    """Raised when the refinement ladder cannot reach the target; carries
    the best estimate obtained so far in .estimate."""

    def __init__(self, message: str, estimate: QuadEstimate):
        super().__init__(message)
        self.estimate = estimate


@lru_cache(maxsize=64)
def _cosines(order: int, dps: int) -> tuple:
    """cos(pi x/2) at the nodes x of _legendre_rule(order, dps), in its order, as raw mpfs at
    wp = prec + COS_GUARD bits within 2^(2-wp) relatively: sin(pi (1 - |x|)/2), 1 - |x| exact."""
    with mp.workdps(dps), mp.extraprec(COS_GUARD):
        half = [mp.sin(mp.pi * mp.fsub(1, x, exact=True) / 2)._mpf_ for x, _ in _legendre_rule(order, dps)[order // 2:]]
    return tuple(half[::-1] + half)


# A piece (a, b, nodes) integrates g(t) h(t)^n over [a, b] for every n of a
# batch.  nodes(rule) returns the n-free node values (hs, gs, k) at the nodes of
# a Gauss rule ((x, w) on [-1, 1], mapped to the piece), in the rule's order, as
# integers on one scale: h = hs_i 2^-k in [0, 1] and the weight g = gs_i 2^-k >= 0,
# each a value rounded once to the ambient precision and held exactly.
Piece = tuple[mp.mpf, mp.mpf, Callable[[tuple], tuple[list[int], list[int], int]]]


LADDER_GUARD = 64  # bits the ladder's fixed-point power sums carry beyond prec


def _ladder(pieces: Sequence[Piece], uses: dict[int, Sequence[int]], rungs: int,
            half_targets: dict[int, mp.mpf], nodes: dict | None, dps: int) -> dict[int, tuple[mp.mpf, mp.mpf]]:
    """(total, diff) for every n of uses, from one order-doubling ladder.

    n integrates the pieces whose indices uses[n] lists.  At each rung
    every piece is visited once: its nodes function gives the node values
    h(t_i) and g(t_i) of the whole rule as integers (Piece), and the exact
    products g_i = w_i rad g(t_i) are formed once, in fixed point on the
    finest scale the rule's weights need.  One power sum (power_sums) then
    gives the piece's Gauss sum sum_i g_i h_i^n for every n still on the
    ladder that integrates it, and each n's pieces are added exactly and
    rounded once (round_total).  An n leaves at its first rung whose total
    is within half_targets[n] of the one before, or after rung `rungs`.
    nodes, if not None, holds those integers (hs, gs, kh, kg), keyed
    (piece index, rule order): a held piece skips its nodes function, and
    one evaluated here is added to it.

    At wp = prec + LADDER_GUARD bits power_sums gives each piece's sum S
    for each n, of wp bits in a unit of its own, within 2^(ERROR_BITS - wp)
    S (fixedpoint).  round_total floors the P pieces of a total to the
    coarsest unit among them, at most one unit each, so the total lies
    within about (P + 1) 2^(ERROR_BITS - wp) of its fixed-point sum: within
    2^-(prec+8) once LADDER_GUARD >= 8 + ERROR_BITS + log2(P + 1), which 64
    guard bits meet for up to 2^23 pieces.  round_total checks that bound,
    and that S and S + E round alike, so a total it calls sure is the
    correctly rounded Gauss sum of the node values, however the batch was
    formed: a batch returns what each n returns alone.  A total that is
    not sure, as one within E of a rounding boundary may be, does not
    count: its diff is inf and the next rung compares against nothing, so
    such an n refines and, at the last rung, misses its target.
    """
    wp = mp.mp.prec + LADDER_GUARD
    out = {}
    prev = dict.fromkeys(uses)
    r = 0
    while prev:
        rule = _legendre_rule(16 * 2**r, dps)
        ws = [w._mpf_ for _, w in rule]
        low = min(e for _, _, e, _ in ws)
        sums = {n: [] for n in prev}
        for i, (a, b, evaluate) in enumerate(pieces):
            users = sorted(n for n in prev if i in uses[n])
            if not users:
                continue
            held = nodes.get((i, len(rule))) if nodes is not None else None
            if held is None:
                hs, gs, k = evaluate(rule)
                _, rm, re, _ = ((b - a) / 2)._mpf_
                held = hs, [m * rm * g << (e - low) for (_, m, e, _), g in zip(ws, gs)], k, k - re - low
                if nodes is not None:
                    nodes[i, len(rule)] = held
            for n, part in power_sums(*held, users, wp).items():
                sums[n].append(part)
        for n, parts in sums.items():
            total, sure = round_total(parts)
            diff = abs(total - prev[n]) if sure and prev[n] is not None else mp.inf
            if diff < half_targets[n] or r == rungs:
                out[n] = total, diff
                del prev[n]
            else:
                prev[n] = total if sure else None
        r += 1
    return out


def _integrate(pieces: Sequence[Piece], setups: dict[int, tuple], prec: Precision,
               label: Callable[[int], str], nodes: dict | None = None) -> dict[int, QuadEstimate | PrecisionFailure]:
    """Run the order-doubling ladder (_ladder) once for every n of setups,
    until |Q_2N - Q_N| < target / (2 scale); the caller builds pieces and
    setups, and calls this, inside mp.workdps(prec.working_dps).  nodes
    is the ladder's store of node values, or None.

    setups maps each n to (uses, scale, offset, err, cutoff): n integrates
    the pieces listed by uses (indices into pieces, increasing), the value
    is scale * (sum of those integrals) + offset, and err is the absolute
    error of whatever the pieces leave out (the analytic tail bound, or the
    error of an offset completed exactly), in final units.  An n whose gap
    is not below that threshold after MAX_DOUBLINGS doublings maps to a
    PrecisionFailure, named by label(n), carrying that estimate: the ladder's
    stop and this verdict are one comparison against one threshold.
    """
    wdps, k, rungs = prec.working_dps, prec.target_digits, MAX_DOUBLINGS
    half = mp.mpf(10) ** -k / 2
    thresholds = {n: half / setup[1] for n, setup in setups.items()}
    ladder = _ladder(pieces, {n: setup[0] for n, setup in setups.items()}, rungs, thresholds, nodes, wdps)
    out: dict[int, QuadEstimate | PrecisionFailure] = {}
    for n, (uses, scale, offset, err, cutoff) in setups.items():
        total, diff = ladder[n]
        value = scale * total + offset
        bound = scale * diff + err + mp.mpf(10) ** (2 - wdps) * (1 + abs(value))
        est = QuadEstimate(value=+value, abs_err_bound=+bound, cutoff_used=+mp.mpf(cutoff), pieces=len(uses))
        out[n] = est if diff < thresholds[n] else PrecisionFailure(
            f"{label(n)}: target 1e-{k:02d} not reached after {rungs} order doublings", est)
    return out


# one memo for both integrals: (family..., n) -> QuadEstimate, where the family
# is ("sinc", prec) or ("bessel", nu, prec, cutoff_mult)
_MEMO: dict[tuple, QuadEstimate] = {}


def _memoised(family: tuple, ns: Iterable[int], compute) -> list[QuadEstimate]:
    """[the estimate for n, for n in ns], from _MEMO; the n not yet in it are
    computed first, each once, in one batch by compute(missing), which
    returns {n: QuadEstimate or PrecisionFailure}.  Every estimate is
    memoised before the failure of the first failing n in ns is raised.
    This is the one check of n for both integrals: an n that is not an
    integer raises TypeError (5.0 would find 5's entry), and one below 2
    ValueError, before any estimate is computed.
    """
    ns = [operator.index(n) for n in ns]
    if any(n < 2 for n in ns):
        raise ValueError("n must be at least 2")
    missing = list(dict.fromkeys(n for n in ns if (*family, n) not in _MEMO))
    failures = {}
    if missing:
        for n, result in compute(missing).items():
            if isinstance(result, PrecisionFailure):
                failures[n] = result
            else:
                _MEMO[(*family, n)] = result
    for n in ns:
        if n in failures:
            raise failures[n]
    return [_MEMO[(*family, n)] for n in ns]


def _sinc_mode(n: int, prec: Precision) -> tuple[str, int]:
    """Pick lobe-truncation or zeta-tail mode, deterministically.

    Truncation needs the envelope bound sqrt(n) A^{1-n}/(n-1) below
    target/2 = 10^-k/2; if that cutoff takes more than ZETA_LOBES lobes,
    the exact tail transform with its ZETA_LOBES head and panel is cheaper.
    """
    ln_a = (math.log(2 * math.sqrt(n) / (n - 1)) + prec.target_digits * math.log(10)) / (n - 1)
    A = max(math.exp(min(ln_a, 700)), math.sqrt(6))
    lobes = max(2, math.ceil(A / math.pi))
    if lobes <= ZETA_LOBES:
        return "truncate", lobes
    return "zeta", ZETA_LOBES


def sinc_integral(n: int, prec: Precision | None = None) -> QuadEstimate:
    """sqrt(n) int_0^inf |sin t / t|^n dt to the requested accuracy.

    Splits at every multiple of pi (the only non-smooth points of the
    integrand) and integrates each lobe by Gauss-Legendre under the
    doubling ladder.  In truncation mode the t^{-n} envelope bound on the
    discarded tail goes into abs_err_bound; in zeta mode the tail is an
    exact extra panel and cutoff_used is reported as inf.  Results are
    memoised per (n, prec), so a repeated call returns the same object.
    This is sinc_integrals([n], prec)[0].
    """
    return sinc_integrals([n], prec)[0]


def sinc_integrals(ns: Iterable[int], prec: Precision | None = None) -> list[QuadEstimate]:
    """[sinc_integral(n, prec) for n in ns], bit for bit, from one ladder.

    |sin t|/t at every node is computed once, from one table of cosines a
    rule (_cosines), and each node's power runs across n as a fixed-point
    product (_ladder); only the n not yet memoised are computed.  If any n
    misses its target, the PrecisionFailure of the first such n in ns is
    raised, after the others are memoised.
    """
    prec = prec or Precision()
    return _memoised(("sinc", prec), ns, lambda todo: _sinc_estimates(todo, prec))


@lru_cache(maxsize=None)
def _bernoulli(m: int) -> Fraction:
    return Fraction(*mp.bernfrac(m))


@lru_cache(maxsize=None)
def _em_ratio(n: int, j: int) -> tuple[int, int]:
    """(num, den), lowest terms: the (j+1)-th Euler-Maclaurin tail term of
    zeta_H(n, b) over the j-th, times b^2, namely
    (B_{2j+2} / B_{2j}) (n+2j-1)(n+2j) / ((2j+1)(2j+2))."""
    r = _bernoulli(2 * j + 2) / _bernoulli(2 * j) * Fraction((n + 2 * j - 1) * (n + 2 * j), (2 * j + 1) * (2 * j + 2))
    return r.numerator, r.denominator


def _hurwitz_zetas(ns: Sequence[int], a: mp.mpf) -> dict[int, mp.mpf]:
    """{n: zeta_H(n, a)} for every n >= 2 of ns and a in [24, 25], each
    within 9/16 ulp at the ambient precision prec.

    One Euler-Maclaurin sum in fixed-point Python integers, shared across n.
    The direct terms (a+k)^-n, k < K, take one reciprocal per k and one
    multiplication per n.  The tail at b = a + K is b^(1-n)/(n-1) + b^-n/2
    + sum_j T_j, T_j = B_2j/(2j)! (n)_(2j-1) b^(-n-2j+1), each T_j built
    from the one before by the exact ratio _em_ratio(n, j) b^-2.  Every
    derivative of x^-n of one parity has one sign, so the remainder is below
    the first omitted term (Johansson, Numer. Algorithms 69, 2015); n's tail
    stops at the first term below 2^-(prec+6) of its sum.

    Error: b >= max(3 n_max, (prec + n_max) // 4) puts every tail ratio
    below (n+2j)^2 / (2 pi b)^2 < 1/2 for j < 2b, and the stop within those
    terms (ArithmeticError otherwise).  So no floor's unit error grows along
    a chain, and the sum is off by fewer than b (n_max+50)/4 units of 2^-wp.
    At wp = prec + guard + n_max log2 b bits that is below
    2^-(prec+6) b^-n < 2^-(prec+6) zeta_H(n, a), so with the omitted term
    every value is within 2^-(prec+5) zeta_H(n, a) before its rounding.
    """
    prec = mp.mp.prec
    n_max = max(ns)
    b = max(3 * n_max, (prec + n_max) // 4)
    K = max(0, b - int(a))
    wp = prec + 4 + (b * (n_max + 50)).bit_length() + n_max * (int(a) + K + 1).bit_length()
    one = 1 << wp
    x = to_fixed(a._mpf_, wp)
    sums = dict.fromkeys(ns, 0)
    for k in range(K):
        r = p = (one << wp) // (x + k * one)
        for n in range(2, n_max + 1):
            p = p * r >> wp
            if n in sums:
                sums[n] += p
    rb = (one << wp) // (x + K * one)
    rb2 = rb * rb >> wp
    powers = [one, rb]  # b^-m
    for _ in range(n_max):
        powers.append(powers[-1] * rb >> wp)
    out = {}
    for n in ns:
        s = sums[n] + powers[n - 1] // (n - 1) + (powers[n] >> 1)
        t = n * powers[n + 1] // 12
        for j in range(1, 2 * b):
            if abs(t) <= s >> (prec + 6):
                break
            s += t
            num, den = _em_ratio(n, j)
            t = t * num * rb2 // (den << wp)
        else:
            raise ArithmeticError(f"the Euler-Maclaurin tail of zeta_H({n}, {mp.nstr(a, 10)}) did not converge")
        out[n] = mp.make_mpf(from_man_exp(s, -wp, prec, round_nearest))
    return out


def _sinc_estimates(ns: list[int], prec: Precision) -> dict[int, QuadEstimate | PrecisionFailure]:
    """sinc_integral for each n of ns, unmemoised, from one ladder."""
    modes = {n: _sinc_mode(n, prec) for n in ns}
    dps = prec.working_dps
    with mp.workdps(dps):
        pi, bits, half_pi = mp.pi, mp.mp.prec, mpf_shift(mpf_pi(mp.mp.prec + COS_GUARD), -1)
        zeta_ns = [n for n in ns if modes[n][0] == "zeta"]
        pi_powers = {n: pi**n for n in zeta_ns}

        @lru_cache(maxsize=1)  # one rung at a time: zeta_H(n, (2M+1+x)/2) / pi^n for every zeta-mode n and node x
        def zeta_rows(order):
            return [{m: (z[m] / pi_powers[m])._mpf_ for m in zeta_ns}
                    for z in (_hurwitz_zetas(zeta_ns, mp.ldexp(mp.fadd(2 * ZETA_LOBES + 1, x, exact=True), -1))
                              for x, _ in _legendre_rule(order, dps))]

        def lobe(j) -> Piece:  # h = cos(pi x/2) / ((pi/2)(2j+1+x)), 2j+1+x exact and h rounded once, and g = 1
            def nodes(rule):
                ds = [mpf_mul(half_pi, mpf_add(from_int(2 * j + 1), x._mpf_, 0), bits + COS_GUARD) for x, _ in rule]
                return fixed_nodes([mpf_div(c, d, bits, round_nearest) for c, d in zip(_cosines(len(ds), dps), ds)],
                                    [fone] * len(ds))
            return j * pi, (j + 1) * pi, nodes

        def panel(n) -> Piece:
            def nodes(rule):  # h = cos(pi x/2), and g = zeta_H(n, (2M+1+x)/2) / pi^n
                return fixed_nodes([mpf_pos(c, bits, round_nearest) for c in _cosines(len(rule), dps)],
                                    [row[n] for row in zeta_rows(len(rule))])
            return mp.mpf(0), pi, nodes

        pieces: list[Piece] = [lobe(j) for j in range(max(modes[n][1] for n in ns))]
        setups = {}
        for n in ns:
            mode, count = modes[n]
            if mode == "truncate":
                cutoff = count * pi
                setups[n] = range(count), mp.sqrt(n), mp.mpf(0), cutoff_tail_bound(n, cutoff), cutoff
            else:
                setups[n] = (*range(count), len(pieces)), mp.sqrt(n), mp.mpf(0), mp.mpf(0), mp.inf
                pieces.append(panel(n))
        return _integrate(pieces, setups, prec, lambda n: f"sinc_integral(n={n})")


def _f_nu(v: Fraction, t: mp.mpf, prec: int | None = None) -> mp.mpf:
    """f_v(t) = 0F1(; v+1; -t^2/4) = 2^v Gamma(v+1) J_v(t) / t^v for any
    real mpf t, rounded to prec bits (default: the ambient precision).

    mpmath's integer-order mpf_besseljn generalised to v = p/q: the terms
    (-t^2/4)^k / (k! (v+1)_k) are summed in Python integers in fixed point
    at wp = prec + 40 bits, each from the one before through the factor
    -(t^2/4) q / (k (p + k q)).  The error is absolute, O(K 2^-wp) for K
    terms: a rounding error in one term carries into the later ones as an
    alternating tail no larger than that term.  A caller that multiplies
    the result by a large factor must add that factor's magnitude to prec,
    as _completed_tail_n2 does.
    """
    p, q = v.numerator, v.denominator
    prec = prec or mp.mp.prec
    wp = prec + 40
    x = to_fixed(t._mpf_, wp) ** 2 >> (wp + 2)
    s = term = 1 << wp
    for k in count(1):
        term = -((term * x >> wp) * q) // (k * (p + k * q))
        if not term:
            return mp.make_mpf(from_man_exp(s, -wp, prec, round_nearest))
        s += term


def bessel_j_normalized(nu: Nu, t, prec: Precision | None = None) -> BesselEval:
    """f_nu(t) = 2^nu Gamma(nu+1) J_nu(t) / t^nu from the Maclaurin kernel _f_nu.

    Evaluated at the working precision for any finite t >= 0; err_bound is the
    working-precision floor, which covers the kernel's absolute error.
    """
    dps, floor = _kernel_floor(prec)
    with mp.workdps(dps):
        tt = mp.mpf(t)
        if not mp.isfinite(tt) or tt < 0:
            raise ValueError("t must be finite and nonnegative")
        value = _f_nu(nu.value, tt)
        err = floor * (1 + abs(value))
        return BesselEval(nu=nu, t=+tt, value=value, err_bound=+err)


@lru_cache(maxsize=16)
def _kernel_floor(prec: Precision | None) -> tuple[int, mp.mpf]:  # (dps, 10^(1 - dps)), prec's working dps
    with mp.workdps((prec or Precision()).working_dps):
        return mp.mp.dps, mp.mpf(10) ** (1 - mp.mp.dps)


def _f_slope(v: Fraction, t: mp.mpf, prec: int) -> tuple[mp.mpf, mp.mpf]:
    """(f_v(t), f_v'(t)), the kernel at prec bits; f_v' = -t f_{v+1} / (2 (v+1))."""
    return _f_nu(v, t, prec), -t * _f_nu(v + 1, t, prec) / (2 * to_mpf(v + 1))


# (wp, e, rad, (d_0 2^wp, ..., d_(K-1) 2^wp), (b_0 2^wp, ..., b_(L-1) 2^wp),
# t0^alpha), rad and t0^alpha as raw mpfs: see _taylor_series
TaylorSeries = tuple[int, int, tuple, tuple[int, ...], tuple[int, ...], tuple]


def _taylor_series(v: Fraction, t0: mp.mpf, rad: mp.mpf) -> TaylorSeries:
    """The node values of a direct Bessel piece, f_v(t) and t^alpha with the
    exact alpha = 2v - 1, as two series in u = (t - t0) / rho for
    |t - t0| <= rad, rho = 2^e >= rad so that |u| <= 1, built for the
    ambient precision prec: (wp, e, rad, (d_0 2^wp, ..., d_(K-1) 2^wp),
    (b_0 2^wp, ..., b_(L-1) 2^wp), t0^alpha).  _direct_nodes sums them.
    Every direct piece has rad < pi (_check_zeros' gap test) and
    t0 >= j_{v,1} + rad >= pi + rad, so rad < t0 / 2 and rho < t0, which
    the weight's series needs (ValueError otherwise).

    f = f_v solves t f'' + (2v+1) f' + t f = 0, so its coefficients c_k
    about t0 obey t0 (k+1)(k+2) c_(k+2) = -[(k+1)(k+2v+1) c_(k+1) + t0 c_k
    + c_(k-1)] from the seeds c_0 = f_v(t0) and c_1 = f_v'(t0) (_f_slope).
    They are held scaled, d_k = c_k rho^k, in fixed point at wp bits, and
    the recurrence runs on d_k, one floor division per coefficient.  The
    weight is t^alpha = t0^alpha sum_k b_k u^k, b_k = C(alpha, k) (rho/t0)^k:
    each b_k is the exact rational C(alpha, k) times the k-th power of
    rho/t0 in fixed point, and t0^alpha, taken once at wp + 20 bits, is
    the ad-th root of t0^an for alpha = an/ad.  For integer alpha the
    series is the finite binomial sum, L = alpha + 1.

    Error, in units of 2^-wp, of each sum before its final rounding:
    - f's truncation: |f_v^(k)| <= 1 (f_v is the characteristic function of a
      law on [-1, 1]), so |c_k| <= 1/k! and the terms k >= K add at most
      rad^K e^rad / K!; K is the first with that below 2^-(prec+42) in
      floating point, so below 2^-(prec+41);
    - f's seeds: taken by _f_nu at wp + e + mag(t0) + 4 bits, each is within
      2 units once scaled and floored;
    - f's recurrence: errors in d_(k-1), d_k, d_(k+1) reach d_(k+2) times at
      most a_k = rho (k+2v+1) / (t0 (k+2)) + rho^2 / ((k+1)(k+2))
      + rho^3 / (t0 (k+1)(k+2)), and each step floors once, so with
      G = prod_k max(1, a_k) every d_k is within G (2 + k) units; the
      seeds' error is carried along the ODE this way too;
    - the weight's truncation: with r = rad / t0 < 1/2, each term past
      k > alpha is at most r times the one before, so the terms k >= L add
      at most 2 |C(alpha, L)| r^L; L is the first k > alpha with that below
      2^-(prec+42) (1 - r)^alpha in floating point, so below 2^-(prec+41) of
      the sum, which is at least (1 - r)^alpha;
    - the weight's coefficients: rho/t0 < 1 is floored at wp + g bits, its
      k-th power is then within 2k units of that width, and b_k, floored to wp
      bits, is within 2 units once 2^g > 2 L max_k |C(alpha, k)|;
    - the pair sum (_direct_nodes) of a series P(u) = sum_k p_k u^k of N
      terms, at u = +-U: U is floored once, Y = U^2 once more, so they are
      within 1 and 3 units of u and u^2; the N - 2 Horner steps in Y and
      the product U O(Y) floor once each, earlier errors times Y <= 1; each
      coefficient's error counts once; and moving the point costs at most
      3/2 D units, D = sum_k k |p_k|, as E and O have slopes at most
      sum_j j |p_2j| and sum_j j |p_(2j+1)| on [0, 1], and |O| <= D.
      D <= rho e^rho for f, and the weight's D_w is summed in floating point.
    So f's sum is within A_f = K + KG(K + 2) + 3/2 rho e^rho units of its
    truncated series, and the weight's within A_w = 3L + 3/2 D_w.
    wp = prec + 42 + bits(max(A_f, A_w / (1 - r)^alpha)) puts both below
    2^-(prec+42), the weight's relative to its sum.  So f's sum is within
    2^-(prec+40) of f_v(t), closer than _f_nu's own O(K 2^-(prec+40)), and,
    with t0^alpha within 2^-(wp+18) of itself, the weight's product is
    within 2^-(prec+40) of t^alpha, relatively.
    """
    prec = mp.mp.prec
    e = max(0, mp.mag(rad))
    if not (2 * rad < t0 and 2**e < t0):
        raise ValueError("a direct Bessel piece needs rad < t0 / 2 and rho < t0")
    nu = float(v)
    alpha = 2 * nu - 1
    an, ad = (2 * v - 1).as_integer_ratio()
    h, c = float(rad), float(t0)
    rho = 2.0**e
    K = 2
    while K * math.log2(h) - math.lgamma(K + 1) / math.log(2) + h / math.log(2) >= -(prec + 42):
        K += 1
    G = 1.0
    for k in range(K - 2):
        G *= max(1.0, (rho * (k + 2 * nu + 1) / (c * (k + 2)) + rho**2 / ((k + 1) * (k + 2))
                       + rho**3 / (c * (k + 1) * (k + 2))))
    r, s = h / c, rho / c
    tol = alpha * math.log2(1 - r) - (prec + 42)  # log2 of the weight's truncation tolerance
    L, C, top, D = 0, 1.0, 1.0, 0.0
    while L <= alpha or (C and 1 + math.log2(abs(C)) + L * math.log2(r) >= tol):
        top, D = max(top, abs(C)), D + L * abs(C) * s**L
        C *= (alpha - L) / (L + 1)
        L += 1
    wp = prec + 42 + math.ceil(max(K + K * G * (K + 2) + 1.5 * rho * math.exp(rho),
                                   (3 * L + 1.5 * D) / (1 - r) ** alpha)).bit_length()
    with mp.workprec(wp + e + mp.mag(t0) + 4):
        f0, f1 = _f_slope(v, t0, mp.mp.prec)
    p, q = v.numerator, v.denominator
    T = to_fixed(t0._mpf_, wp)
    d = [to_fixed(f0._mpf_, wp), to_fixed(f1._mpf_, wp + e)]
    for k in range(K - 2):
        num = ((k + 1) * (q * (k + 1) + 2 * p) * d[k + 1] << (wp + e)) + (q * T * d[k] << 2 * e)
        if k:
            num += q * d[k - 1] << (wp + 3 * e)
        d.append(-num // (q * T * (k + 1) * (k + 2)))
    g = (2 * L * math.ceil(top) + 1).bit_length()
    _, tm, te, _ = t0._mpf_
    W = wp + g
    S = (1 << (W + e - te)) // tm  # rho / t0, floored at W bits
    power, cnum, cden, b = 1 << W, 1, 1, []
    for k in range(L):  # C(alpha, k) = cnum / cden
        b.append(cnum * power // cden >> g)
        power = power * S >> W
        cnum, cden = cnum * (an - k * ad), cden * (k + 1) * ad
    with mp.workprec(wp + 20):
        t0_alpha = mp.root(t0**an, ad)
    return wp, e, rad._mpf_, tuple(d), tuple(b), t0_alpha._mpf_


def _even_odd(even: Sequence[int], odd: Sequence[int], U: int, Y: int, wp: int) -> tuple[int, int]:
    """(E(Y), U O(Y)) in fixed point at wp bits, for E and O given by their
    coefficients, highest first: one Horner pass in Y each."""
    s = 0
    for c in even:
        s = (s * Y >> wp) + c
    o = 0
    for c in odd:
        o = (o * Y >> wp) + c
    return s, U * o >> wp


def _direct_nodes(series: TaylorSeries, rule: tuple) -> tuple[list[int], list[int], int]:
    """The node values (hs, gs, k), in the rule's order, of a direct Bessel
    piece: h = |f_v(t)| and g = t^alpha at each node t = t0 + rad x of a
    Gauss rule, from the piece's series (_taylor_series), each sum rounded
    once half-even to the ambient precision (round_bits) and held
    exactly as an integer in units of 2^-k.

    _legendre_rule is symmetric, its first half the second negated in
    reverse order, so the nodes pair up as t0 +- rho U, U = x rad / rho for
    each positive x, and a series P(u) = E(u^2) + u O(u^2) gives both nodes
    of a pair from one Horner pass in Y = U^2 over each of E and O:
    P(+-U) = E(Y) +- U O(Y).  U is the exact x rad, scaled and floored once
    to wp bits.  h is in units of 2^-wp and g = t0^alpha times the weight's
    sum in units of 2^(te-wp), t0^alpha = tm 2^te: k = wp + max(0, -te).
    """
    wp, e, (_, rm, re, _), d, b, (_, tm, te, _) = series
    prec = mp.mp.prec
    sh = max(0, -te)
    f_even, f_odd, w_even, w_odd = d[::2][::-1], d[1::2][::-1], b[::2][::-1], b[1::2][::-1]
    hs, gs = [], []  # the -U and +U node of each pair, unrounded
    for x, _ in rule[len(rule) // 2:]:
        _, xm, xe, _ = x._mpf_
        shift = xe + re + wp - e
        U = xm * rm << shift if shift >= 0 else xm * rm >> -shift
        Y = U * U >> wp
        f, fu = _even_odd(f_even, f_odd, U, Y, wp)
        w, wu = _even_odd(w_even, w_odd, U, Y, wp)
        hs += abs(f - fu), abs(f + fu)
        gs += (w - wu) * tm, (w + wu) * tm
    return ([round_bits(v, prec) << sh for v in hs[-2::-2] + hs[1::2]],
            [round_bits(v, prec) << (te + sh) for v in gs[-2::-2] + gs[1::2]], wp + sh)


def _zero_start(nu: float, k: int) -> float:
    """A float start for the k-th zero of J_nu: McMahon's expansion
    (DLMF 10.21.19), or for k = 1 at nu > 2, where McMahon's is poor, the
    large-order form nu + 1.8557571 nu^(1/3) + 1.033150 nu^(-1/3)
    (DLMF 10.21.40)."""
    if k == 1 and nu > 2:
        c = nu ** (1 / 3)
        return nu + 1.8557571 * c + 1.033150 / c
    b = (k + nu / 2 - 0.25) * math.pi
    mu = 4 * nu * nu
    e = 8 * b
    return (b - (mu - 1) / e - 4 * (mu - 1) * (7 * mu - 31) / (3 * e**3)
            - 32 * (mu - 1) * (83 * mu * mu - 982 * mu + 3779) / (15 * e**5))


def _newton_zero(v: Fraction, z: mp.mpf, slope_mag: int) -> tuple[mp.mpf, mp.mpf, mp.mpf]:
    """Newton's method on f_v from z: (z, f_v(z), f_v'(z)), z the zero
    rounded to the ambient precision.

    Each step evaluates the kernel with 16 bits plus as many as 1/|f_v'|
    has (slope_mag: the magnitude of the last slope seen), so its absolute
    error moves the zero by far less than an ulp, and rounds z - f/f' once
    to the ambient precision.  It stops when that leaves z in place, or
    steps back to the z before it at a rounding tie.
    """
    prev = None
    for _ in range(64):
        f, fp = _f_slope(v, z, mp.mp.prec + 16 + max(0, -slope_mag))
        slope_mag = mp.mag(fp)
        nxt = z - f / fp
        if nxt == z or nxt == prev:
            return z, f, fp
        prev, z = z, nxt
    raise ArithmeticError(f"Newton's method for a zero of J_{v} did not settle near {mp.nstr(z, 10)}")


def _check_zeros(v: Fraction, X: mp.mpf, points: Sequence[tuple[mp.mpf, mp.mpf, mp.mpf]]) -> None:
    """Prove that points, (z, f_v(z), f_v'(z)) by increasing z, sit at the
    first len(points) zeros of J_v, all below X but the last; raise
    ArithmeticError otherwise.

    |f_v''| <= 1, as f_v is the characteristic function of a law on
    [-1, 1].  So |f| <= eta |f'| / 2 and |f'| > 2 eta put a zero of f_v
    within 2 eta of z, across which f_v turns to the sign of f'(z); eta is
    16 ulps of z.  Those signs must alternate from f_v(0) = 1.  For
    nu >= 1/2, Sturm comparison puts consecutive zeros at least pi apart,
    so a gap below 2 pi - 4 eta skips no zero, and none lies below the
    first if z_1 - pi + 2 eta < L, a lower bound on j_{nu,1}: pi when
    z_1 < 2 pi, else nu + 1.855757 nu^(1/3) (Qu and Wong, Trans. AMS 351,
    1999).
    """
    def fail(why):
        raise ArithmeticError(f"zeros of J_{v} below {mp.nstr(X, 10)}: {why}")

    if not points or points[-1][0] < X or any(z >= X for z, _, _ in points[:-1]):
        fail("the search must end at the first zero at or beyond the cutoff")
    pi = mp.pi
    last = None
    for i, (z, f, fp) in enumerate(points, 1):
        eta = mp.ldexp(z, 4 - mp.mp.prec)
        if not 2 * abs(f) <= eta * abs(fp) or not abs(fp) > 2 * eta:
            fail(f"no sign change at {mp.nstr(z, 10)}")
        if (fp < 0) != (i % 2 == 1):
            fail(f"the sign of f does not alternate at {mp.nstr(z, 10)}")
        if last is not None and not 4 * eta < z - last < 2 * pi - 4 * eta:
            fail(f"the gap {mp.nstr(last, 10)} .. {mp.nstr(z, 10)} is not in (0, 2 pi)")
        last = z
    z1 = points[0][0]
    nu = float(v)
    lower = pi if z1 < 2 * pi else nu + 1.855757 * nu ** (1 / 3)
    if not z1 - pi + mp.ldexp(z1, 5 - mp.mp.prec) < lower:
        fail(f"a zero may lie below {mp.nstr(z1, 10)}")


def _bessel_zeros(v: Fraction, X: mp.mpf, wdps: int) -> tuple:
    """All zeros of J_v in (0, X), then the first at or beyond X, each
    rounded once to wdps digits; at X = 0, the first zero j_{v,1} alone.

    Newton's method on the kernel (_newton_zero) runs from _zero_start
    for k = 1, 2, ... up to the first zero at or beyond X, and
    _check_zeros proves the set complete before it is returned.  It is
    not memoised: _bessel_estimates holds the pieces built from the
    zeros of the last family (_FAMILY).
    """
    with mp.workdps(wdps):
        points, slope_mag = [], 0
        for k in count(1):
            z, f, fp = _newton_zero(v, mp.mpf(_zero_start(float(v), k)), slope_mag)
            points.append((z, f, fp))
            if z >= X:
                break
            slope_mag = mp.mag(fp)
        _check_zeros(v, X, points)
        return tuple(z for z, _, _ in points)


def _completed_tail_n2(nu: Nu, X: mp.mpf, amp: mp.mpf) -> tuple[mp.mpf, mp.mpf]:
    """Exact n = 2 tail amp^2 (1 - S(X)) / (2 nu) and its error.

    S(X) = J_nu(X)^2 + 2 sum_{k>=1} J_{nu+k}(X)^2 telescopes
    d/dx S = 2 nu J_nu^2 / x, so the tail integral of amp^2 J_nu^2 / t
    beyond X is exactly amp^2 (1 - S(X)) / (2 nu), at every X.
    bessel_integral takes it from X = min(j_{nu,1}, cutoff), where the
    sum below is short (56 terms at nu = 1).  Terms are summed until
    the (X/2)^{nu+k}/Gamma(nu+k+1) prefactor is negligible; it bounds
    |J_{nu+k}(X)| and so the truncated terms; J_{nu+k}(X) = pref f_{nu+k}(X).
    The error covers the truncation, the sum at ten extra digits and the
    final rounding of the tail to the ambient precision, |tail| 2^-prec.
    """
    with mp.extradps(10):
        nv = to_mpf(nu.value)
        pref = mp.power(X / 2, nv) / mp.gamma(nv + 1)
        stop = mp.mpf(10) ** (-(mp.mp.dps + 5))
        S = mp.mpf(0)
        k = 0
        while pref > stop:
            # the kernel's error is absolute: add the bits pref magnifies
            jk = pref * _f_nu(nu.value + k, X, mp.mp.prec + max(0, mp.mag(pref)))
            S += (jk * jk) if k == 0 else 2 * (jk * jk)
            k += 1
            pref *= (X / 2) / (nv + k)
        trunc = 3 * pref * pref
        tail = amp * amp * (1 - S) / (2 * nv)
        err = amp * amp * (trunc + mp.mpf(10) ** (3 - mp.mp.dps) * (1 + k)) / (2 * nv)
    tail = +tail
    return tail, err + mp.ldexp(abs(tail), -mp.mp.prec)


def bessel_integral(nu: Nu, n: int, prec: Precision | None = None,
                    cutoff_mult: float = 24) -> QuadEstimate:
    """n^nu int_0^inf (2^nu Gamma(nu+1)|J_nu(t)|/t^nu)^n t^{2nu-1} dt.

    For n >= 3, integrates to X = cutoff_mult * 2^nu Gamma(nu+1), splitting
    at every zero of J_nu below X (_bessel_zeros); the kernel _f_nu has no cap.
    X, formed at the working precision, must lie between 2^nu Gamma(nu+1)
    and X_MAX, so cutoff_mult is finite and at least 1, or ValueError is
    raised before the memo is read or any kernel call: the zeros below X,
    and the terms of each kernel sum, grow with X, and X grows factorially
    with nu (X = 46080 at nu = 6 and cutoff_mult = 1).  The first piece is
    mapped through t = y^{q/2} (nu = p/q) so the t^{2nu-1} branch point
    becomes the analytic monomial y^{p-1}.  For n >= 3 the
    decay-envelope tail bound at X goes into abs_err_bound.  At n = 2 only
    that first piece is integrated, up to min(j_{nu,1}, X), and the whole
    tail past its end is completed exactly into the value
    (_completed_tail_n2), so value, bound and cutoff_used are the same
    at every cutoff_mult with X >= j_{nu,1}.
    Results are memoised per (nu, n, prec, float(cutoff_mult)); n is checked
    there (_memoised).  This is bessel_integrals(nu, [n], prec, cutoff_mult)[0].
    """
    return bessel_integrals(nu, [n], prec, cutoff_mult)[0]


def bessel_integrals(nu: Nu, ns: Iterable[int], prec: Precision | None = None,
                     cutoff_mult: float = 24) -> list[QuadEstimate]:
    """[bessel_integral(nu, n, prec, cutoff_mult) for n in ns], bit for bit,
    from one ladder.

    The zeros, the pieces, and |f_nu| and the weight t^{2nu-1} at every
    node are computed once for all n, and each node's power runs from one
    n to the next as a fixed-point product (_ladder); only the n not yet
    memoised are computed.  Each piece past the first builds its series for
    f_nu and for the weight, with the exact exponent 2nu - 1, once, and
    evaluates a whole rule from them on each rung, its nodes in +- pairs
    at t0 + rad x to the series' working precision (_direct_nodes); the
    first piece evaluates each node alone.  n = 2 integrates the
    first piece alone, so a batch of n = 2 alone finds only the first
    zero and builds no other piece.  The pieces of the last family, keyed
    by nu, X, whether any n >= 3 and the working precision, are held for
    the next call (_FAMILY); from that family's second consecutive call
    on, so are the node values of every rung it climbs, and no later call
    evaluates a node held.  If any n misses
    its target, the PrecisionFailure of the first such n in ns is raised,
    after the others are memoised.  The cutoff is checked as in bessel_integral.
    """
    prec = prec or Precision()
    cutoff_mult = float(cutoff_mult)
    with mp.workdps(prec.working_dps):  # the X that _bessel_estimates integrates to
        amp = amplitude(nu)
        X = cutoff_mult * amp
        if not amp <= X <= X_MAX:  # false for nan, so nan and inf are refused too
            raise ValueError(f"the cutoff X = cutoff_mult 2^nu Gamma(nu+1) = {mp.nstr(X, 6)} at nu = {nu} "
                             f"is above X_MAX = {X_MAX}" if X_MAX < X < mp.inf
                             else f"cutoff_mult = {cutoff_mult} must be finite and at least 1")
    return _memoised(("bessel", nu, prec, cutoff_mult), ns,
                     lambda todo: _bessel_estimates(nu, todo, prec, cutoff_mult))


# The last Bessel family, one entry: {(v, X, any n >= 3, wdps): [bounds, pieces, nodes]}.
# nodes, the ladder's node values, is None on the family's first call and held
# from its second consecutive call on; a call for another family replaces the entry.
# So only a family called again pays for their memory.  Held from the first call, they
# would also keep every one-shot family's (one eval line, one 16-piece batch) until the
# next family: in 6 alternating pairs of 8 s bessel-quad benchmark runs its peak RSS
# read 26.14-26.56 MB against 25.51-25.54 MB (+2.5-4.1%, against a 5% bound) and
# wall_s 0.153-0.162 s against 0.154-0.165 s.
_FAMILY: dict[tuple, list] = {}


def _bessel_estimates(nu: Nu, ns: list[int], prec: Precision,
                      cutoff_mult: float) -> dict[int, QuadEstimate | PrecisionFailure]:
    """bessel_integral for each n of ns, unmemoised, from one ladder."""
    v = nu.value
    p, q = v.numerator, v.denominator
    wdps = prec.working_dps
    with mp.workdps(wdps):
        nv = to_mpf(v)
        amp = amplitude(nu)
        X = cutoff_mult * amp
        key = v, X, max(ns) > 2, wdps
        family = _FAMILY.get(key)
        if family is None:
            # the zeros below X, then the first beyond; n = 2 integrates only up to
            # the first zero, so a batch of n = 2 alone searches from 0 for that one
            zeros = _bessel_zeros(v, X if key[2] else mp.mpf(0), wdps)
            bounds = [mp.mpf(0), *zeros[:-1], min(zeros[-1], X)]

            def direct(a, b) -> Piece:  # (|f_nu(t)|, t^{2nu-1}) on [a, b], from two series about its centre
                series = _taylor_series(v, (a + b) / 2, (b - a) / 2)
                return a, b, lambda rule: _direct_nodes(series, rule)

            half_q, half_y = mp.mpf(q) / 2, mp.power(bounds[1], mp.mpf(2) / q) / 2

            def first(rule):  # (|f_nu(t)|, q/2 y^{p-1}) at t = y^{q/2}, y = half_y (1 + x) rounded
                ys = [half_y + half_y * x for x, _ in rule]
                return fixed_nodes([abs(_f_nu(v, mp.power(y, half_q)))._mpf_ for y in ys],
                                    [mp.fmul(y ** (p - 1), half_q, exact=True)._mpf_ for y in ys])

            pieces: list[Piece] = [(mp.mpf(0), 2 * half_y, first)]
            pieces += [direct(a, b) for a, b in zip(bounds[1:-1], bounds[2:])]
            _FAMILY.clear()
            family = _FAMILY[key] = [bounds, pieces, None]
        elif family[2] is None:
            family[2] = {}
        bounds, pieces, nodes = family
        every = range(len(pieces))
        setups = {}
        for n in ns:
            scale = mp.power(n, nv)
            if n == 2:
                tail, tail_err = _completed_tail_n2(nu, bounds[1], amp)
                setups[n] = range(1), scale, scale * tail, scale * tail_err, bounds[1]
            else:
                setups[n] = every, scale, mp.mpf(0), bessel_tail_bound(nu, n, X, digits=wdps), X
        return _integrate(pieces, setups, prec, lambda n: f"bessel_integral(nu={nu}, n={n})", nodes)


def remainder_decay_fit(m: int, n_grid: Sequence[int], prec: Precision | None = None) -> DecayFit:
    """Fit the decay exponent of r(n) = I(n) - sqrt(3 pi/2) sum_{j<=m} c_j/n^j.

    Fits log|r| against log n by least squares; grid points where the
    quadrature error budget is not at least 10x below |r| are dropped,
    and fewer than 3 surviving points is an error.  A grid that gives
    some n twice is refused before any quadrature: its points would count
    towards those 3 without adding a distinct n.  The slope should sit
    near -(m+1); exp(intercept), signed like r, then estimates the next
    coefficient (in absolute units, including the leading constant).
    sinc_expansion refuses a negative m, also before any quadrature.
    """
    ns = sorted(n_grid)
    for a, b in zip(ns, ns[1:]):
        if a == b:
            raise ValueError(f"n = {a} appears more than once in the grid")
    prec = prec or Precision(decimal_digits=50)
    expansion = sinc_expansion(m)
    used, dropped, remainders, xs, ys = [], [], [], [], []
    with mp.workdps(prec.working_dps):
        for n, est in zip(ns, sinc_integrals(ns, prec)):
            r = est.value - mp.sqrt(3 * mp.pi / 2) * expansion.partial_sum_mpf(n)
            if abs(r) == 0 or est.abs_err_bound > abs(r) / 10:
                dropped.append(n)
                continue
            used.append(n)
            remainders.append(r)
            xs.append(math.log(n))
            ys.append(float(mp.log(abs(r))))
    if len(used) < 3:
        raise ValueError(f"insufficient data: {len(used)} usable grid points, need at least 3")
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    residuals = tuple((y - (intercept + slope * x)) / math.log(10) for x, y in zip(xs, ys))
    sign = 1.0 if remainders[-1] > 0 else -1.0
    return DecayFit(slope=slope, signed_coeff=sign * math.exp(intercept), residuals=residuals,
                    used_n=tuple(used), dropped_n=tuple(dropped), remainders=tuple(remainders))
