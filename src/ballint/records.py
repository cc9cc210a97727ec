"""Output records and renderers for the command-line surface.

Every machine-readable artifact but appendix-check's (rendered in cli)
flows through the renderers here: coefficient tables, built from the bare
exact coefficients (exact rational plus a decimal rendering in the table's
unit), quadrature estimates and verification case rows.  The JSON field
names are a stable contract:

  coefficients  kind = "coefficients", pipeline, nu, order, unit,
                coefficients[{j, rational, decimal}]
  estimate      kind = "estimate", pipeline, nu, n, value, abs_err_bound,
                cutoff, pieces
  verify        kind = "verify", suite,
                reports[{id, expected, computed, tolerance, status,
                provenance, notes}]

pipeline is "sinc" or "bessel"; nu is a canonical p/q string, null for
sinc.  order, j, n and pieces are integers; every other value is a
string, decimals included.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction

import mpmath as mp

from .bessel import Nu, c0_value
from .rationals import format_rational, parse_rational, to_mpf
from .sinc import SINC_UNIT

__all__ = [
    "CoeffRecord",
    "VerifyReport",
    "sinc_coeff_records",
    "bessel_coeff_records",
    "records_to_text",
    "records_to_json",
    "records_to_csv",
    "estimate_to_text",
    "estimate_to_json",
    "reports_to_text",
    "reports_to_json",
]

@dataclass(frozen=True)
class CoeffRecord:
    """One expansion coefficient: exact rational plus decimal-in-unit."""

    pipeline: str            # "sinc" or "bessel"
    nu: Fraction | None
    j: int
    rational: str            # canonical p/q
    decimal: str             # rational x unit value, at the requested digits
    unit: str                # "sqrt(3*pi/2)" or "c0(nu)"

    def __post_init__(self):
        # canonical-form guard: the string must round-trip exactly
        parse_rational(self.rational)


@dataclass(frozen=True)
class VerifyReport:
    """One verification case with provenance and outcome."""

    id: str
    expected: str
    computed: str
    tolerance: str
    status: str              # pass | fail | erratum
    provenance: str          # paper | derived | trivial
    notes: str = ""

    def __post_init__(self):
        if self.status not in ("pass", "fail", "erratum"):
            raise ValueError(f"bad status {self.status!r}")
        if self.provenance not in ("paper", "derived", "trivial"):
            raise ValueError(f"bad provenance {self.provenance!r}")


def _coeff_records(pipeline: str, nu: Fraction | None, unit: str, coeffs, unit_value: mp.mpf,
                   digits: int) -> list[CoeffRecord]:
    return [CoeffRecord(pipeline, nu, j, format_rational(c),
                        mp.nstr(to_mpf(c) * unit_value, digits, strip_zeros=False), unit)
            for j, c in enumerate(coeffs)]


def sinc_coeff_records(coeffs, digits: int = 30) -> list[CoeffRecord]:
    """Records for the sinc coefficients c_0..c_m, decimals in units of sqrt(3 pi/2)."""
    with mp.workdps(digits + 10):
        return _coeff_records("sinc", None, SINC_UNIT, coeffs, mp.sqrt(3 * mp.pi / 2), digits)


def bessel_coeff_records(nu: Nu, coeffs, digits: int = 30) -> list[CoeffRecord]:
    """Records for the Bessel coefficients gamma_0..gamma_m at nu, decimals in units of c0(nu)."""
    with mp.workdps(digits + 10):
        return _coeff_records("bessel", nu.value, f"c0({nu})", coeffs, c0_value(nu, digits), digits)


def records_to_text(records: list[CoeffRecord], header: str) -> str:
    width = max((len(r.rational) for r in records), default=8)
    lines = [header]
    for r in records:
        lines.append(f"  j={r.j:<3d} {r.rational:<{width}}  {r.decimal}")
    return "\n".join(lines)


def records_to_json(records: list[CoeffRecord]) -> str:
    """The table as JSON; its order is the last record's j."""
    if not records:
        raise ValueError("no records")
    head = records[0]
    doc = {
        "kind": "coefficients",
        "pipeline": head.pipeline,
        "nu": format_rational(head.nu) if head.nu is not None else None,
        "order": records[-1].j,
        "unit": head.unit,
        "coefficients": [
            {"j": r.j, "rational": r.rational, "decimal": r.decimal} for r in records
        ],
    }
    return json.dumps(doc, indent=2)


def records_to_csv(records: list[CoeffRecord]) -> str:
    lines = ["j,rational,decimal"]
    for r in records:
        lines.append(f"{r.j},{r.rational},{r.decimal}")
    return "\n".join(lines)


def _estimate_fields(est, digits: int) -> dict:
    """value, abs_err_bound, cutoff and pieces as both estimate renderers print them."""
    with mp.workdps(digits + 10):
        return {
            "value": mp.nstr(est.value, digits, strip_zeros=False),
            "abs_err_bound": mp.nstr(est.abs_err_bound, 6),
            "cutoff": mp.nstr(est.cutoff_used, 10),
            "pieces": est.pieces,
        }


def estimate_to_text(est, label: str, digits: int) -> str:
    return "\n".join([label] + [f"  {k:<13} = {v}" for k, v in _estimate_fields(est, digits).items()])


def estimate_to_json(est, pipeline: str, nu: Fraction | None, n: int, digits: int) -> str:
    doc = {
        "kind": "estimate",
        "pipeline": pipeline,
        "nu": format_rational(nu) if nu is not None else None,
        "n": n,
        **_estimate_fields(est, digits),
    }
    return json.dumps(doc, indent=2)


def reports_to_text(reports: list[VerifyReport], suite: str) -> str:
    lines = [f"verify {suite}"]
    for r in reports:
        lines.append(f"  [{r.status:<7}] {r.id} ({r.provenance})")
        lines.append(f"            expected {r.expected}")
        lines.append(f"            computed {r.computed}  tol {r.tolerance}")
        if r.notes:
            lines.append(f"            note: {r.notes}")
    counts = {s: sum(1 for r in reports if r.status == s) for s in ("pass", "fail", "erratum")}
    lines.append(f"  {counts['pass']} pass, {counts['fail']} fail, {counts['erratum']} erratum")
    return "\n".join(lines)


def reports_to_json(reports: list[VerifyReport], suite: str) -> str:
    return json.dumps({"kind": "verify", "suite": suite, "reports": [asdict(r) for r in reports]}, indent=2)
