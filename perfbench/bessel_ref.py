"""Independent head integrals for the bessel-quad workload.

For each point (nu, n, cutoff_mult) this computes

    n^nu * int_0^X |f_nu(t)|^n t^(2 nu - 1) dt,   X = cutoff_mult * 2^nu Gamma(nu+1),
    f_nu(t) = 2^nu Gamma(nu+1) J_nu(t) / t^nu,

which is what ballint.quadrature.bessel_integral returns as its value for
n >= 3 (the tail beyond X goes into its error bound, not its value).  It
uses only mpmath's own primitives: mp.besselj for the kernel,
mp.besseljzero for the split points and mp.quad (tanh-sinh) per piece, so
it shares no kernel, zero finder or Gauss-Legendre rule with the program.

The error estimate is the gap between two evaluations at different
working precisions, plus the quadrature's own error estimates, plus 1e-40.

Regenerate the stored table (about twenty seconds on one core):

    python3 perfbench/bessel_ref.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp

REF_PATH = Path(__file__).with_name("bessel_refs.json")
LOW_DPS = 45
HIGH_DPS = 60

# every n >= 3 point the bessel-quad workload can draw, as (nu, n, cutoff_mult)
POINTS = [("7/3", 8, 6)] + [("1", n, 6) for n in range(23, 38)] + [("1", 3, 24)]


def _nu(text: str) -> mp.mpf:
    q = Fraction(text)
    return mp.mpf(q.numerator) / q.denominator


def cutoff(nu_text: str, cutoff_mult: float) -> mp.mpf:
    nu = _nu(nu_text)
    return mp.mpf(cutoff_mult) * mp.power(2, nu) * mp.gamma(nu + 1)


def _head(nu_text: str, n: int, X: mp.mpf, degree: int) -> tuple[mp.mpf, mp.mpf]:
    nu = _nu(nu_text)
    amp = mp.power(2, nu) * mp.gamma(nu + 1)

    def integrand(t):
        return abs(amp * mp.besselj(nu, t) / mp.power(t, nu)) ** n * mp.power(t, 2 * nu - 1)

    splits = [mp.mpf(0)]
    k = 1
    while True:
        z = mp.besseljzero(nu, k)
        if z >= X:
            break
        splits.append(z)
        k += 1
    splits.append(X)
    total = mp.mpf(0)
    err = mp.mpf(0)
    for a, b in zip(splits, splits[1:]):
        value, e = mp.quad(integrand, [a, b], error=True, maxdegree=degree)
        total += value
        err += e
    scale = mp.power(n, nu)
    return scale * total, scale * err


def head_integral(nu_text: str, n: int, cutoff_mult: float) -> dict:
    """Reference at X = cutoff_mult * 2^nu Gamma(nu+1), as decimal strings."""
    with mp.workdps(HIGH_DPS + 10):
        X = cutoff(nu_text, cutoff_mult)
    row = head_integral_at(nu_text, n, X)
    row["cutoff_mult"] = cutoff_mult
    return row


def head_integral_at(nu_text: str, n: int, X) -> dict:
    """Reference value, its error estimate and X, all as decimal strings."""
    with mp.workdps(LOW_DPS):
        low, _ = _head(nu_text, n, +X, degree=8)
    with mp.workdps(HIGH_DPS):
        high, quad_err = _head(nu_text, n, +X, degree=10)
        err = abs(high - low) + quad_err + mp.mpf(10) ** (5 - LOW_DPS)
        return {
            "nu": nu_text,
            "n": n,
            "X": mp.nstr(X, 40),
            "value": mp.nstr(high, 50),
            "err": mp.nstr(err, 3),
        }


def main() -> int:
    rows = []
    for nu_text, n, cutoff_mult in POINTS:
        row = head_integral(nu_text, n, cutoff_mult)
        print(f"nu={nu_text} n={n} cutoff_mult={cutoff_mult}: {row['value'][:30]} err {row['err']}",
              file=sys.stderr, flush=True)
        rows.append(row)
    doc = {
        "method": "mp.besselj kernel, mp.besseljzero splits, mp.quad per piece; "
                  f"err = |value at {HIGH_DPS} dps - value at {LOW_DPS} dps| + quad error estimates + 1e-{LOW_DPS - 5}",
        "mpmath": mp.__version__,
        "points": rows,
    }
    REF_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
