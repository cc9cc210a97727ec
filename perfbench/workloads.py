"""The three workloads: their operations, drawn from the seed, and the checks
that judge each operation's outputs against references made apart from ballint.

plan() lists one round of operations as JSON-able dicts that worker.py runs;
each round of a run draws its inputs afresh from the seed and the round's number.
check() takes an operation and what the worker recorded for it and returns
"ok", "failed" (the operation raised, exited with a usage or precision error,
or missed its accuracy target) or "wrong: <reason>" (a result contradicts its
own claimed bound or an independent reference, its output cannot be read, or a
verify suite exits 1).  Every round of a workload has the same
number of operations whatever the seed, and the only operations that fail
today are the four F1/F2 operations of bessel-quad, whose inputs are fixed.
"""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

import bessel_ref
import reference

WORKLOADS = ("verify-suites", "bessel-quad", "exact-coeffs")

SUITES = ("paper-constants", "appendix", "reduction", "decay", "inequalities")

# bessel_integral's default Precision(): 30 digits, target 1e-20; `eval --digits 20` is the same
BESSEL_TARGET = mp.mpf("1e-20")

SINC_ORDER = 40
BESSEL_ORDER = 24
CLI_SINC_ORDER = 12
CLI_BESSEL_ORDER = 8
EXACT_NU_POOL = ("1", "3/2", "2", "5/2", "3", "4/3", "5/3", "7/3", "7/4", "9/4")
# The coefficient CLI runs at fixed nu: its cold tables are the round's median
# operations, and their cost depends on nu.
CLI_NUS = ("7/3", "3/2")
SWEEP_N = range(23, 38)  # nu = 1, cutoff_mult 6: every bound is at most 1.3e-24, every cost about the same

# Rounds per untraced run at the least.  A verify-suites round has five
# operations, so its median latency is a single suite's; a second round halves
# that suite's noise.  A bessel-quad round has fifteen sweep points for its
# median, and exact-coeffs fits many rounds into a run.
MIN_ROUNDS = {"verify-suites": 2, "bessel-quad": 1, "exact-coeffs": 1}

PRECISION = {
    "verify-suites": "set by each suite: 30, 50 and 60 decimal digits",
    "bessel-quad": "30 decimal digits, absolute target 1e-20",
    "exact-coeffs": "exact rationals; decimal columns at 30 digits",
}


def plan(workload: str, seed: int, round_no: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}:{round_no}")
    if workload == "verify-suites":
        # fixed order: later suites reuse the quadrature memo the earlier ones fill
        return [{"kind": "cli", "label": f"verify {s}",
                 "argv": ["verify", s, "--report", "{out}/report-" + s + ".json"]} for s in SUITES]
    if workload == "bessel-quad":
        # n = 2 family; the tail is completed exactly, so the value must not depend on the cutoff
        ops = [_bessel("1/2", 2, 8), _bessel("3/2", 2, 6), _bessel("1", 2, 6)]
        # a sweep over n that shares (nu, cutoff) with the n = 2 point before it, so the zero
        # cache is reused.  It takes every n of SWEEP_N, in an order drawn from the seed.  Its
        # points cost about the same, and they are the middle of the round's latencies, so
        # the median latency is the median of the sweep.
        sweep = list(SWEEP_N)
        rng.shuffle(sweep)
        ops += [_bessel("1", n, 6) for n in sweep]
        ops.append({"kind": "cli", "label": "README eval bessel n=8 nu=7/3",
                    "argv": ["eval", "bessel", "--n", "8", "--nu", "7/3", "--cutoff-mult", "6"], "nu": "7/3", "n": 8})
        # F1: the T_MAX evaluation cap rejects the default cutoff at nu = 2, n = 2
        # F2: nu = 1, n = 3 at the defaults returns a bound far above its target
        for fault, nu, n in (("F1", "2", 2), ("F2", "1", 3)):
            ops.append(_bessel(nu, n, None, tag=f"{fault} "))
            ops.append({"kind": "cli", "label": f"{fault} eval bessel n={n} nu={nu}",
                        "argv": ["eval", "bessel", "--n", str(n), "--nu", nu], "nu": nu, "n": n})
        return ops
    if workload == "exact-coeffs":
        nu_a, nu_b = rng.sample(EXACT_NU_POOL, 2)
        ops = [{"kind": "sinc_expansion", "label": f"sinc_expansion({SINC_ORDER})",
                "m": SINC_ORDER, "k": SINC_ORDER + rng.randint(1, 4)}]
        for nu in ("1/2", nu_a, nu_b):
            ops.append({"kind": "bessel_expansion", "label": f"bessel_expansion({nu})", "nu": nu, "m": BESSEL_ORDER})
        ops.append({"kind": "appendix_table", "label": "appendix_table()"})
        cli = [["sinc-coeffs", "--order", str(CLI_SINC_ORDER), "--format", "json"],
               ["bessel-coeffs", "--nu", CLI_NUS[0], "--order", str(CLI_BESSEL_ORDER), "--format", "json"],
               ["bessel-coeffs", "--nu", CLI_NUS[1], "--order", str(CLI_BESSEL_ORDER), "--format", "csv"]]
        for phase in ("cold", "warm"):
            for argv in cli:
                ops.append({"kind": "cli", "label": f"{phase} {' '.join(argv[:3])}", "argv": argv,
                            "phase": phase, "snapshot_cache": True})
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _bessel(nu: str, n: int, cutoff_mult: int | None, tag: str = "") -> dict:
    """A bessel_integral call; cutoff_mult None keeps the function's default."""
    return {"kind": "bessel_integral", "label": f"{tag}bessel_integral(nu={nu}, n={n}, cutoff_mult={cutoff_mult})",
            "nu": nu, "n": n, "cutoff_mult": cutoff_mult}


# ---------------------------------------------------------------- checks

def _mpq(q: Fraction) -> mp.mpf:
    return mp.mpf(q.numerator) / q.denominator


def check_round(workload: str, ops: list[dict], outs: list[dict], trace: dict | None) -> list[str]:
    verdicts = [check(op, out) for op, out in zip(ops, outs)]
    if workload == "exact-coeffs":
        verdicts = _check_cache_pass(ops, outs, verdicts, trace)
    return verdicts


def check(op: dict, out: dict) -> str:
    with mp.workdps(50):
        try:
            return _check(op, out)
        except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
            return f"wrong: unreadable output ({type(exc).__name__}: {exc})"


def _check(op: dict, out: dict) -> str:
    if "error" in out:
        return "failed"
    kind = op["kind"]
    if kind == "bessel_integral":
        return _check_estimate(op, mp.mpf(out["value"]), mp.mpf(out["bound"]), mp.mpf(out["cutoff"]), 0)
    if kind == "sinc_expansion":
        return _same_rationals(out["coeffs"], reference.sinc_coefficients(op["m"]), "sinc coefficient")
    if kind == "bessel_expansion":
        return _check_gammas(Fraction(op["nu"]), out["coeffs"])
    if kind == "appendix_table":
        return _check_appendix(out["rows"])
    if kind == "cli":
        command = op["argv"][0]
        if command == "verify" and out["exit"] == 1:
            return f"wrong: verify {op['argv'][1]} exits 1, a verification failure"
        if out["exit"] != 0:
            return "failed"
        if command == "verify":
            return _check_verify(op["argv"][1], out)
        if command == "eval":
            return _check_eval_text(op, out["stdout"])
        return _check_coeff_table(op, out["stdout"])
    return f"wrong: unknown operation kind {kind}"


def _same_rationals(got: list[str], expected, what: str) -> str:
    if len(got) != len(expected):
        return f"wrong: {len(got)} {what}s, expected {len(expected)}"
    for j, (g, e) in enumerate(zip(got, expected)):
        if Fraction(g) != e:
            return f"wrong: {what} {j} is {g}, the log-series derivation gives {e}"
    return "ok"


def _check_gammas(nu: Fraction, got: list[str]) -> str:
    verdict = _same_rationals(got, reference.bessel_gammas(nu, len(got) - 1), f"gamma (nu={nu})")
    if verdict != "ok":
        return verdict
    closed = reference.bessel_gamma_closed_forms(nu)
    for j in (1, 2, 3):
        if Fraction(got[j]) != closed[j - 1]:
            return f"wrong: gamma_{j} at nu={nu} differs from the paper's closed form"
    if nu == Fraction(1, 2):
        return _same_rationals(got, reference.sinc_coefficients(len(got) - 1), "gamma at nu=1/2 vs sinc c_j")
    return "ok"


def _check_appendix(rows: list[dict]) -> str:
    c = reference.sinc_coefficients(7)
    for i in range(8):
        row = {int(e) // 2: Fraction(v) for e, v in rows[i].items()}
        if reference.gaussian_moment(row) != c[i]:
            return f"wrong: appendix row {i} integrates to something other than c_{i}"
    return "ok"


@lru_cache(maxsize=None)
def _closed_n2(nu: str) -> mp.mpf:
    v = _mpq(Fraction(nu))
    return mp.power(2, 3 * v - 1) * mp.gamma(v + 1) * mp.gamma(v)


@lru_cache(maxsize=None)
def _stored_refs() -> dict:
    doc = json.loads(bessel_ref.REF_PATH.read_text(encoding="utf-8"))
    return {(p["nu"], p["n"]): p for p in doc["points"]}


@lru_cache(maxsize=None)
def _head_ref(nu: str, n: int, cutoff: str) -> tuple[mp.mpf, mp.mpf]:
    """The independent int_0^X for this cutoff, from the stored table when X
    matches it, else computed afresh."""
    X = mp.mpf(cutoff)
    stored = _stored_refs().get((nu, n))
    if stored is not None and abs(mp.mpf(stored["X"]) - X) <= mp.mpf(10) ** -8 * X:
        return mp.mpf(stored["value"]), mp.mpf(stored["err"])
    row = bessel_ref.head_integral_at(nu, n, X)
    return mp.mpf(row["value"]), mp.mpf(row["err"])


def _check_estimate(op: dict, value, bound, cutoff, print_slack) -> str:
    """Judge one Bessel estimate; print_slack covers a value printed to 20 digits."""
    if bound > BESSEL_TARGET:
        return "failed"
    nu, n = op["nu"], op["n"]
    if n == 2:
        err = abs(value - _closed_n2(nu))
        if err > bound + print_slack:
            return f"wrong: I_{nu}(2) off 2^(3nu-1)Gamma(nu+1)Gamma(nu) by {mp.nstr(err, 3)} > bound {mp.nstr(bound, 3)}"
    else:
        ref, ref_err = _head_ref(nu, n, mp.nstr(cutoff, 30))
        err = abs(value - ref)
        if err > bound + ref_err + print_slack:
            return f"wrong: nu={nu} n={n} off the independent head integral by {mp.nstr(err, 3)}"
    if nu == "1" and value > 4 + bound + print_slack:
        return f"wrong: I_1({n}) = {mp.nstr(value, 25)} exceeds 4 + bound"
    return "ok"


_EVAL_FIELD = re.compile(r"^\s*(value|abs_err_bound|cutoff)\s*=\s*(\S+)\s*$", re.M)


def _check_eval_text(op: dict, stdout: str) -> str:
    fields = dict(_EVAL_FIELD.findall(stdout))
    if set(fields) != {"value", "abs_err_bound", "cutoff"}:
        return "wrong: eval output lacks value, abs_err_bound or cutoff"
    value = mp.mpf(fields["value"])
    digits = 20  # `eval` default --digits
    slack = mp.mpf(10) ** (math.floor(mp.log10(abs(value))) - digits + 1)
    return _check_estimate(op, value, mp.mpf(fields["abs_err_bound"]), mp.mpf(fields["cutoff"]), slack)


def _check_verify(suite: str, out: dict) -> str:
    tail = out["stdout"].strip().splitlines()[-1]
    if not re.fullmatch(r"\s*\d+ pass, 0 fail, \d+ erratum", tail):
        return f"wrong: verify {suite} summary line {tail!r}"
    if not out.get("report"):
        return f"wrong: verify {suite} wrote no report file"
    rows = {r["id"]: r for r in json.loads(out["report"])["reports"]}
    if any(r["status"] == "fail" for r in rows.values()):
        return f"wrong: verify {suite} report has failing rows"
    if suite == "paper-constants":
        c = reference.sinc_coefficients(7)
        for j in range(8):
            if Fraction(rows[f"sinc-c{j}"]["computed"]) != c[j]:
                return f"wrong: report row sinc-c{j} differs from the log-series c_{j}"
        if rows["i-nu-1-at-2"]["computed"] != "4":
            return "wrong: report row i-nu-1-at-2 is not 4"
        for v in ("1/2", "1", "3/2", "2", "5/2", "3"):
            closed = reference.bessel_gamma_closed_forms(Fraction(v))
            for j in (1, 2, 3):
                if Fraction(rows[f"bessel-gamma{j}-nu-{v}"]["computed"]) != closed[j - 1]:
                    return f"wrong: report row bessel-gamma{j}-nu-{v} differs from the closed form"
    elif suite == "reduction":
        if abs(mp.mpf(rows["reduction-c0-half"]["computed"]) - mp.sqrt(3 * mp.pi / 2)) > mp.mpf("1e-30"):
            return "wrong: c_0(1/2) is not sqrt(3 pi/2)"
    elif suite == "inequalities":
        if abs(mp.mpf(rows["bessel-nu1-n2-value"]["computed"]) - 4) > mp.mpf("1e-18"):
            return "wrong: I_1(2) is not 4"
        gap = mp.mpf(rows["ball-equality-n2"]["computed"].split()[-1])
        if gap > mp.mpf("1e-12"):
            return "wrong: 2 I(2) is not sqrt(2) pi"
    return "ok"


def _table_rows(op: dict, stdout: str) -> list[tuple[str, str]]:
    if "json" in op["argv"]:
        return [(c["rational"], c["decimal"]) for c in json.loads(stdout)["coefficients"]]
    lines = stdout.strip().splitlines()
    if lines[0] != "j,rational,decimal":
        raise ValueError("csv header")
    return [tuple(line.split(",")[1:3]) for line in lines[1:]]


def _check_coeff_table(op: dict, stdout: str) -> str:
    argv = op["argv"]
    order = int(argv[argv.index("--order") + 1])
    rows = _table_rows(op, stdout)
    if argv[0] == "sinc-coeffs":
        expected = reference.sinc_coefficients(order)
        unit = mp.sqrt(3 * mp.pi / 2)
    else:
        nu = Fraction(argv[argv.index("--nu") + 1])
        expected = reference.bessel_gammas(nu, order)
        v = _mpq(nu)
        unit = mp.power(4, v) / 2 * mp.power(v + 1, v) * mp.gamma(v)
    verdict = _same_rationals([r for r, _ in rows], expected, f"{argv[0]} coefficient")
    if verdict != "ok":
        return verdict
    for j, (_, decimal) in enumerate(rows):
        exact = _mpq(expected[j]) * unit
        if abs(mp.mpf(decimal) - exact) > mp.mpf("1e-28") * max(abs(exact), 1):
            return f"wrong: decimal column of {argv[0]} row {j} is off"
    return "ok"


def _check_cache_pass(ops, outs, verdicts, trace) -> list[str]:
    """Warm output byte-identical to cold, and the warm pass read the cache:
    the entries written by the cold pass are neither missing nor rewritten
    (a miss stores a fresh file through os.replace, which changes the inode)."""
    verdicts = list(verdicts)
    cold = {tuple(op["argv"]): i for i, op in enumerate(ops) if op.get("phase") == "cold"}
    last_cold = max(cold.values())
    for i, op in enumerate(ops):
        if op.get("phase") != "warm" or verdicts[i] != "ok":
            continue
        j = cold[tuple(op["argv"])]
        if verdicts[j] == "ok" and outs[i]["stdout"] != outs[j]["stdout"]:
            verdicts[i] = "wrong: warm output differs from cold output"
        elif not outs[last_cold].get("cache") or outs[i]["cache"] != outs[last_cold]["cache"]:
            verdicts[i] = "wrong: warm pass did not read the entries of the cold pass"
    if trace is not None and trace.get("cache.load_hits", 0) <= 0:
        verdicts = [v if ops[i].get("phase") != "warm" else "wrong: cache.load_hits is 0 on the warm pass"
                    for i, v in enumerate(verdicts)]
    return verdicts
