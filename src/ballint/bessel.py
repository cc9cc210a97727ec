"""Expansion pipeline for the Bessel-normalized integral

    I_nu(n) = n^nu int_0^inf (2^nu Gamma(nu+1) |J_nu(t)| / t^nu)^n t^{2nu-1} dt,

for rational nu >= 1/2.  Structure mirrors the sinc pipeline: the
normalized Bessel function F_nu(t) = 2^nu Gamma(nu+1) J_nu(t)/t^nu has
F_nu(0) = 1 and Maclaurin quadratic term -t^2/(4(nu+1)), so multiplying
its partial sum by exp(t^2/(4(nu+1)n)) after the t -> t/sqrt(n) rescale
cancels the 1/n^1 band and leaves 1 + sum_{j>=2} a_j (t^2/4n)^j.
Collecting the n-th power in 1/n and integrating rows against the weight
exp(-t^2/(4(nu+1))) t^{2nu-1} gives

    I_nu(n) ~ c_0 [ 1 + gamma_1/n + gamma_2/n^2 + ... ],

with c_0 = (4^nu/2) (nu+1)^nu Gamma(nu) and every gamma_j an exact
rational function of nu.  At nu = 1/2 the kernel reduces to sinc and the
gamma_j coincide with the sinc pipeline's coefficients, which the tests
pin as the keystone identity.  Partial sums are dicts from t-exponent to
exact coefficient, as in the sinc module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .rationals import format_rational, to_mpf
from .series import moment_coeffs

__all__ = [
    "Nu",
    "BesselExpansion",
    "LANDAU_BOUND_C",
    "amplitude",
    "bessel_partial_sum",
    "bessel_aj",
    "bessel_moment_ratio",
    "bessel_expansion",
    "c0_exact",
    "c0_value",
    "i_nu_at_2",
    "bessel_tail_bound",
]

# Landau's c = sup_x x^(1/3) |J_0(x)| = 0.78574687049851..., rounded up to
# an exact rational so tail bounds stay reproducible.  It bounds
# |J_nu(t)| t^(1/3) for every nu >= 1/2, whose supremum is about 0.7445.
LANDAU_BOUND_C = Fraction(7857468705, 10**10)


@dataclass(frozen=True)
class Nu:
    """Rational order nu >= 1/2 of the Bessel kernel: an int, a Fraction or a
    "p/q" string.  A float is refused: 0.7 is 3152519739159347/2^52, and a
    numerator that large makes bessel_integral's first-piece weight y^(p-1) vast."""

    value: Fraction

    def __post_init__(self):
        if isinstance(self.value, float):
            raise TypeError(f"nu must be an int, a Fraction or a 'p/q' string, not the float {self.value!r}")
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))
        if self.value < Fraction(1, 2):
            raise ValueError("nu must be at least 1/2")

    @property
    def is_integer(self) -> bool:
        return self.value.denominator == 1

    def __str__(self) -> str:
        return format_rational(self.value)


def _rising(p: int, q: int, count: int, start: int = 1) -> int:
    """q^count (nu+start)(nu+start+1)...(nu+start+count-1) for nu = p/q:
    the integer product of p + r q over start <= r < start + count."""
    return math.prod(p + r * q for r in range(start, start + count))


def bessel_partial_sum(nu: Nu, k: int) -> dict[int, Fraction]:
    """Degree-2k Maclaurin partial sum of 2^nu Gamma(nu+1) J_nu(t)/t^nu,
    keyed by the t-exponent 2j.

    Coefficient of t^{2j} is (-1)^j / (4^j j! (nu+1)(nu+2)...(nu+j)),
    rational for rational nu; at nu = 1/2 this is the sinc partial sum.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    p, q = nu.value.numerator, nu.value.denominator
    return {2 * j: Fraction((-q) ** j, 4**j * math.factorial(j) * _rising(p, q, j)) for j in range(k + 1)}


def bessel_aj(nu: Nu, j: int, k: int) -> Fraction:
    """Coefficient of u^j, u = t^2/(4n), in exp(u/(nu+1)) * T_k at t/sqrt n.

    a_j = sum_{i=0}^{min(j,k)} (-1)^i / ((nu+1)^{j-i} (j-i)! i! (nu+1)...(nu+i)),
    with the partial-sum index i capped at k.  a_0 = 1 and a_1 = 0: the
    u/( nu+1) terms of the two factors cancel by construction.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    if k < 1:
        raise ValueError("k must be at least 1")
    # over j! (p+q)^j R, R = (p+q)(p+2q)...(p+top q), term i is
    # (-1)^i q^j binom(j, i) (p+q)^i (p+(i+1)q)...(p+top q)
    p, q = nu.value.numerator, nu.value.denominator
    top = min(j, k)
    total, tail = 0, 1  # tail = (p+(i+1)q)...(p+top q)
    for i in range(top, -1, -1):
        total += math.comb(j, i) * (-(p + q)) ** i * tail
        tail *= p + i * q
    return Fraction(q**j * total, math.factorial(j) * (p + q) ** j * _rising(p, q, top))


def bessel_moment_ratio(nu: Nu, j: int) -> Fraction:
    """int_0^inf e^{-t^2/(4(nu+1))} t^{2j+2nu-1} dt over the j = 0 integral.

    Equals (4(nu+1))^j * nu(nu+1)...(nu+j-1) by the Gamma recurrence.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    p, q = nu.value.numerator, nu.value.denominator
    return Fraction((4 * (p + q)) ** j * _rising(p, q, j, start=0), q ** (2 * j))


@dataclass(frozen=True)
class BesselExpansion:
    """I_nu(n) ~ c_0 [gamma_0 + gamma_1/n + ... + gamma_m/n^m], gamma_0 = 1."""

    nu: Nu
    m: int
    k: int
    gamma_coeffs: tuple[Fraction, ...]

    def partial_sum_mpf(self, n, digits: int = 30) -> mp.mpf:
        """c_0 * sum_j gamma_j / n^j evaluated at the requested precision."""
        with mp.workdps(digits + 10):
            nn = mp.mpf(n)
            s = mp.fsum(
                to_mpf(g) / nn**j for j, g in enumerate(self.gamma_coeffs)
            )
            return +(c0_value(self.nu, digits + 10) * s)


def bessel_expansion(nu: Nu, m: int, k: int | None = None) -> BesselExpansion:
    """Exact gamma_0..gamma_m for rational nu; k defaults to m + 1.

    The collection runs in the variable u = t^2/4 (the row monomial t^{2w}
    standing for u^w); the 4^w from the moment ratio cancels against the
    u-normalization, leaving (nu+1)^w nu(nu+1)...(nu+w-1) per monomial.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if k is None:
        k = m + 1
    if k <= m:
        raise ValueError("truncation too short: k must be at least m + 1")
    a = {j: bessel_aj(nu, j, k) for j in range(2, m + 2)}
    gammas = moment_coeffs(a, m, lambda w: bessel_moment_ratio(nu, w) / Fraction(4) ** w)
    return BesselExpansion(nu=nu, m=m, k=k, gamma_coeffs=gammas)


def c0_exact(nu: Nu) -> Fraction | None:
    """Exact c_0 = (4^nu/2)(nu+1)^nu Gamma(nu) for positive integer nu, else None."""
    if not nu.is_integer:
        return None
    p = int(nu.value)
    return Fraction(4**p, 2) * Fraction(p + 1) ** p * math.factorial(p - 1)


def c0_value(nu: Nu, digits: int = 30) -> mp.mpf:
    """c_0 = (4^nu/2)(nu+1)^nu Gamma(nu) to the requested decimal digits.

    Integer nu goes through the exact rational; every other rational nu
    through the library Gamma at ten guard digits.
    """
    if digits < 1:
        raise ValueError("digits must be positive")
    v = nu.value
    with mp.workdps(digits + 10):
        exact = c0_exact(nu)
        if exact is not None:
            return +to_mpf(exact)
        prefactor = mp.power(4, to_mpf(v)) / 2
        prefactor *= mp.power(to_mpf(v + 1), to_mpf(v))
        return +(prefactor * mp.gamma(to_mpf(v)))


def i_nu_at_2(nu: Nu) -> Fraction:
    """Closed form I_nu(2) = 2^{3nu-1} nu! (nu-1)! for positive integer nu;
    ValueError for any other nu.  The paper's comparison with c_0, equality
    at nu = 1 and I_nu(2) < c_0 above, is decided by the paper-constants
    rows of the verify module, not here.
    """
    if not nu.is_integer:
        raise ValueError("closed form only supported for positive integer nu")
    p = int(nu.value)
    return Fraction(2) ** (3 * p - 1) * math.factorial(p) * math.factorial(p - 1)


def amplitude(nu: Nu) -> mp.mpf:
    """2^nu Gamma(nu+1) at the ambient precision: the factor that makes f_nu(0) = 1."""
    v = to_mpf(nu.value)
    return mp.power(2, v) * mp.gamma(v + 1)


def bessel_tail_bound(nu: Nu, n: int, X, digits: int = 30) -> mp.mpf:
    """Bound n^nu (2^nu Gamma(nu+1) c)^n X^{-(nu+1/3)n+2nu} / ((nu+1/3)n - 2nu)
    on the integral beyond the cutoff X, from |J_nu(t)| <= c t^{-1/3}.

    Valid once X is at least 2^nu Gamma(nu+1), the point where the decay
    envelope c t^{-1/3} gives the integrand modulus below 1; the bound is
    monotone decreasing in X.  X formed at `digits` digits, as
    cutoff_mult 2^nu Gamma(nu+1) is, may round below that point, so X is
    refused only if it lies more than a relative 10^-digits below it.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    v = nu.value
    with mp.workdps(digits + 10):
        nv = to_mpf(v)
        amp = amplitude(nu)
        Xv = mp.mpf(X)
        if Xv < amp * (1 - mp.mpf(10) ** -digits):
            raise ValueError("cutoff below 2^nu Gamma(nu+1)")
        c = to_mpf(LANDAU_BOUND_C)
        expo = -(nv + mp.mpf(1) / 3) * n + 2 * nv
        denom = (nv + mp.mpf(1) / 3) * n - 2 * nv
        val = mp.power(n, nv) * mp.power(amp * c, n) * mp.power(Xv, expo) / denom
        return +val
