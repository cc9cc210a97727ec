"""Exact asymptotic expansions of Ball's sinc integral and its Bessel
generalization, with a high-precision numerical verifier.

The symbolic side computes, in exact rational arithmetic, the coefficients
c_j of the large-n expansion of

    I(n) = sqrt(n) * int_0^inf |sin t / t|^n dt
         ~ sqrt(3 pi / 2) * (1 - (3/20)/n - (13/1120)/n^2 + ...)

and of the Bessel-normalized family I_nu(n).  The numerical side evaluates
the same integrals by arbitrary-precision lobe-split quadrature and serves
as an independent oracle for every expansion coefficient.
"""

__version__ = "0.1.0"

from .rationals import format_rational, parse_rational
from .series import InvNSeries, nseries_pow_binomial
from .sinc import (
    SincExpansion,
    sinc_partial_sum,
    sinc_aj,
    sinc_expansion,
    appendix_table,
    appendix_mismatches,
    load_appendix_fixture,
    load_errata,
    check_errata,
)
from .bessel import (
    Nu,
    BesselExpansion,
    bessel_partial_sum,
    bessel_aj,
    bessel_moment_ratio,
    bessel_expansion,
    c0_value,
    c0_exact,
    i_nu_at_2,
    bessel_tail_bound,
)
from .quadrature import (
    Precision,
    QuadEstimate,
    BesselEval,
    DecayFit,
    PrecisionFailure,
    sinc_integral,
    sinc_integrals,
    bessel_j_normalized,
    bessel_integral,
    bessel_integrals,
    remainder_decay_fit,
)
from .records import CoeffRecord, VerifyReport
from .verify import SUITES, run_suite, suite_exit_code

__all__ = [
    "__version__",
    "format_rational",
    "parse_rational",
    "InvNSeries",
    "nseries_pow_binomial",
    "SincExpansion",
    "sinc_partial_sum",
    "sinc_aj",
    "sinc_expansion",
    "appendix_table",
    "appendix_mismatches",
    "load_appendix_fixture",
    "load_errata",
    "check_errata",
    "Nu",
    "BesselExpansion",
    "bessel_partial_sum",
    "bessel_aj",
    "bessel_moment_ratio",
    "bessel_expansion",
    "c0_value",
    "c0_exact",
    "i_nu_at_2",
    "bessel_tail_bound",
    "Precision",
    "QuadEstimate",
    "BesselEval",
    "DecayFit",
    "PrecisionFailure",
    "sinc_integral",
    "sinc_integrals",
    "bessel_j_normalized",
    "bessel_integral",
    "bessel_integrals",
    "remainder_decay_fit",
    "CoeffRecord",
    "VerifyReport",
    "SUITES",
    "run_suite",
    "suite_exit_code",
]
