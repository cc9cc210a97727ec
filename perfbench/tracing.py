"""Spans around the public functions of each ballint module, from outside it.

Tracer.install() wraps every function listed in LAYERS and rebinds the
wrapper wherever the package binds the original name (cli and verify, for
example, import sinc_integral by name), so internal calls are traced too.
Spans (name, start, end, parent, detail) stay in memory; dump() writes them
out once the round is over and summary() turns them into per-layer calls,
self time and counters.  Nothing under src/ changes.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import SUITES

RECORDS = (
    "sinc_coeff_records",
    "bessel_coeff_records",
    "records_to_text",
    "records_to_json",
    "records_to_csv",
    "estimate_to_text",
    "estimate_to_json",
    "reports_to_text",
    "reports_to_json",
)

LAYERS = {
    "quadrature": ("sinc_integral", "bessel_integral", "bessel_j_normalized", "remainder_decay_fit"),
    "sinc": ("sinc_expansion", "appendix_table", "cutoff_tail_bound"),
    "bessel": ("bessel_expansion", "bessel_tail_bound", "c0_value"),
    "series": ("nseries_pow_binomial", "collect_binomial_rows"),
    "rationals": ("format_rational", "parse_rational"),
    "cache": ("load_coeffs", "store_coeffs"),
    "records": RECORDS,
    "verify": ("run_suite", "sinc_coefficient_fit"),
    "cli": ("main",),
}

def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for layer, names in LAYERS.items():
        if layer == "records":
            out += [("records.calls", "count", "lower"), ("records.self_s", "s", "lower")]
            continue
        for name in names:
            out += [(f"{layer}.{name}.calls", "count", "lower"), (f"{layer}.{name}.self_s", "s", "lower")]
        if layer == "quadrature":
            out += [("quadrature.pieces", "count", "lower"),
                    ("quadrature.memo_hits", "count", "higher"),
                    ("quadrature.precision_failures", "count", "lower")]
        elif layer == "cache":
            out.append(("cache.load_hits", "count", "higher"))
        elif layer == "verify":
            out += [(f"verify.{suite}.total_s", "s", "lower") for suite in SUITES]
    out.append(("trace.overhead_s", "s", "lower"))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, detail]
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._seen_estimates: dict[int, object] = {}  # keeps returned objects alive so ids stay unique

    def install(self) -> None:
        import ballint.quadrature as quadrature

        failure = quadrature.PrecisionFailure
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ballint" or name.startswith("ballint."))]
        for layer, names in LAYERS.items():
            module = sys.modules[f"ballint.{layer}"]
            for name in names:
                original = getattr(module, name)
                span = "records" if layer == "records" else f"{layer}.{name}"
                wrapper = self._wrap(span, original, failure)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def _wrap(self, span_name, original, failure):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        is_estimate = span_name in ("quadrature.sinc_integral", "quadrature.bessel_integral")
        is_load = span_name == "cache.load_coeffs"
        is_suite = span_name == "verify.run_suite"

        def traced(*args, **kwargs):
            index = len(spans)
            detail = args[0] if is_suite and args else None
            spans.append([span_name, clock(), None, stack[-1] if stack else -1, detail])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            except failure:
                if is_estimate:  # counted where it is raised, not again in each caller it passes
                    counters["quadrature.precision_failures"] += 1
                raise
            finally:
                spans[index][2] = clock()
                stack.pop()
            if is_estimate:
                if id(result) in self._seen_estimates:
                    counters["quadrature.memo_hits"] += 1
                else:
                    self._seen_estimates[id(result)] = result
                    counters["quadrature.pieces"] += result.pieces
            elif is_load and result is not None:
                counters["cache.load_hits"] += 1
            return result

        return traced

    def summary(self) -> dict[str, float]:
        """calls and self_s per span name, suite totals, and the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, detail) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[i]
            if detail is not None:
                out[f"verify.{detail}.total_s"] += end - start
        out.update(self.counters)
        return dict(out)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans}), encoding="utf-8")
