"""Run one round of a workload in a fresh process, one operation at a time.

    python3 perfbench/worker.py ROUND_DIR [--probe]

Reads ROUND_DIR/plan.json, imports ballint from src/ of the current
directory, runs each operation, and writes ROUND_DIR/result.json with the
moment ballint.cli finished importing, each operation's latency and outputs,
the kernel time that shows the host's speed around each operation
(calibrate.py), and the process's peak resident memory.  With "trace" set in
the plan it first wraps the package's public functions (tracing.py) and
writes the spans to ROUND_DIR/spans.json.  --probe stops after the import
and the kernel samples that follow it.
"""

import os
import sys
import time

# set-up time ends at IMPORTED_AT, so only the package is imported before it
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import ballint.cli  # noqa: E402

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import mpmath as mp  # noqa: E402

import calibrate  # noqa: E402
from ballint.bessel import Nu  # noqa: E402


def _run_cli(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = ballint.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def _call(op, round_dir):
    """Run one operation; return a thunk that renders its outputs, so the
    rendering happens outside the timed region."""
    kind = op["kind"]
    if kind == "cli":
        argv = [a.replace("{out}", str(round_dir)) for a in op["argv"]]
        out = _run_cli(argv)
        return lambda: _cli_outputs(op, argv, out)
    if kind == "bessel_integral":
        from ballint.quadrature import bessel_integral
        kwargs = {} if op["cutoff_mult"] is None else {"cutoff_mult": op["cutoff_mult"]}
        est = bessel_integral(Nu(Fraction(op["nu"])), op["n"], **kwargs)
        return lambda: _estimate_outputs(est)
    if kind == "sinc_expansion":
        from ballint.sinc import sinc_expansion
        coeffs = sinc_expansion(op["m"], op["k"]).coeffs
        return lambda: {"coeffs": [str(c) for c in coeffs]}
    if kind == "bessel_expansion":
        from ballint.bessel import bessel_expansion
        coeffs = bessel_expansion(Nu(Fraction(op["nu"])), op["m"]).gamma_coeffs
        return lambda: {"coeffs": [str(c) for c in coeffs]}
    if kind == "appendix_table":
        from ballint.sinc import appendix_table
        table = appendix_table()
        return lambda: {"rows": [{str(e): str(v) for e, v in row.items()} for row in table.rows]}
    raise ValueError(f"unknown operation kind {kind!r}")


def _estimate_outputs(est):
    with mp.workdps(60):
        return {"value": mp.nstr(est.value, 50), "bound": mp.nstr(est.abs_err_bound, 10),
                "cutoff": mp.nstr(est.cutoff_used, 40), "pieces": est.pieces}


def _cli_outputs(op, argv, out):
    if "--report" in argv:
        path = Path(argv[argv.index("--report") + 1])
        out["report"] = path.read_text(encoding="utf-8") if path.exists() else None
    if op.get("snapshot_cache"):
        cache = Path(os.environ["BALLINT_CACHE_DIR"])
        out["cache"] = sorted([p.name, p.stat().st_ino, p.stat().st_mtime_ns]
                              for p in cache.glob("*.json")) if cache.is_dir() else []
    return out


def main() -> int:
    round_dir = Path(sys.argv[1])
    # kernel samples right after the import give the host speed for the set-up time
    sampler = calibrate.Sampler()
    sampler.record(calibrate.MIN_SAMPLES)
    setup_kernel_s = list(sampler.durations)
    if "--probe" in sys.argv[2:]:
        doc = {"imported_at": IMPORTED_AT, "setup_kernel_s": setup_kernel_s}
        (round_dir / "result.json").write_text(json.dumps(doc), encoding="utf-8")
        return 0
    src = Path.cwd() / "src"
    if not Path(ballint.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"ballint was imported from {ballint.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    plan = json.loads((round_dir / "plan.json").read_text(encoding="utf-8"))
    tracer = None
    if plan["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    clock = time.perf_counter
    results, spans = [], []
    sampler.start()
    for op in plan["ops"]:
        start = clock()
        try:
            render = _call(op, round_dir)
        except Exception as exc:  # a failed operation is recorded, and the round goes on
            spans.append((start, clock()))
            results.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        spans.append((start, clock()))
        results.append(render())
    sampler.stop()
    sampler.record(calibrate.MIN_SAMPLES)  # so the last operation has samples after it too
    for out, (start, end) in zip(results, spans):
        out["seconds"] = (end - start) - sampler.inside(start, end)
        out["kernel_s"] = sampler.kernel_s(start, end)
        out["interval"] = [start, end]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    doc = {"imported_at": IMPORTED_AT, "setup_kernel_s": setup_kernel_s, "ops": results,
           "round_kernel_s": calibrate.typical(sampler.durations), "peak_rss_mb": peak_kb / 1024,
           "kernel_samples": [sampler.starts, sampler.durations]}
    if tracer is not None:
        doc["trace"] = tracer.summary()
        tracer.dump(round_dir / "spans.json")
    (round_dir / "result.json").write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
