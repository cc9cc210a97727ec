"""Benchmark for ballint: end-to-end and per-layer timings of three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ballint checkout.  Each round of the workload runs in
a fresh worker process (worker.py), so memos, rule caches and the coefficient
cache directory start empty as they do for a user.  After the workload's
MIN_ROUNDS, rounds repeat while the next one, at the median length so far,
would end within --seconds.  Before and after the rounds, SETUP_PROBES extra workers
only import the package, so that set-up time is a median of several starts
spread over the run.  Outputs are checked against independent references
(workloads.py).

Every time reported is scaled to a reference host speed by a kernel timed
alongside it (calibrate.py); the unscaled medians are on the line before the
result.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the rounds alternate untraced and traced and
the metrics are the per-layer ones from the traced rounds, plus the tracing
overhead (traced wall_s minus untraced wall_s).  The line before it records
the environment.  Per-round details, verify reports and spans go under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import mpmath  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT = HERE / "out"
SETUP_PROBES = 4      # import-only workers before the rounds and again after them; the very first,
                      # which may compile bytecode, is dropped
ROUND_TIMEOUT = 150   # seconds one worker may take
RUN_LIMIT = 140       # no further round starts if the longest one so far would end past this


class WorkerError(RuntimeError):
    pass


def _spawn(root: Path, round_dir: Path, probe: bool = False) -> tuple[dict, float]:
    """Run one worker to completion; return its result and its scaled set-up time.

    The host speed for the set-up time comes from kernel samples taken here
    just before the start and in the worker just after its import."""
    round_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, BALLINT_CACHE_DIR=str(round_dir / "cache"))
    argv = [sys.executable, str(HERE / "worker.py"), str(round_dir)] + (["--probe"] if probe else [])
    before = calibrate.time_kernel(calibrate.MIN_SAMPLES)
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {ROUND_TIMEOUT} s in {round_dir}") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads((round_dir / "result.json").read_text(encoding="utf-8"))
    setup = result["imported_at"] - started
    result["setup_raw_s"] = setup
    return result, calibrate.scale(setup, calibrate.typical(before + result["setup_kernel_s"]))


def _environment(workload: str, seed: int, trace: bool) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "working_precision": workloads.PRECISION[workload],
    }


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    root = Path.cwd()
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)

    setups, setups_raw = [], []

    def probes(first: int) -> None:
        for i in range(first, first + SETUP_PROBES):
            result, setup = _spawn(root, run_dir / f"probe-{i}", probe=True)
            if i > 0:
                setups.append(setup)
                setups_raw.append(result["setup_raw_s"])

    probes(0)
    rounds = []
    begin = time.monotonic()
    while True:
        traced = trace and len(rounds) % 2 == 1
        ops = workloads.plan(workload, seed, len(rounds))
        round_dir = run_dir / f"round-{len(rounds)}"
        round_dir.mkdir(parents=True)
        (round_dir / "plan.json").write_text(json.dumps({"trace": traced, "ops": ops}), encoding="utf-8")
        t0 = time.monotonic()
        result, setup = _spawn(root, round_dir)
        took = time.monotonic() - t0
        shutil.rmtree(round_dir / "cache", ignore_errors=True)
        outs = result["ops"]
        op_s = [calibrate.scale(o["seconds"], o["kernel_s"]) for o in outs]
        trace_summary = result.get("trace")
        if trace_summary is not None:  # per-layer times at the reference speed too
            trace_summary = {k: calibrate.scale(v, result["round_kernel_s"]) if k.endswith("_s") else v
                             for k, v in trace_summary.items()}
        rounds.append({
            "traced": traced,
            "ops": ops,
            "setup_s": setup,
            "setup_raw_s": result["setup_raw_s"],
            "elapsed_s": took,
            "wall_s": sum(op_s),
            "wall_raw_s": sum(o["seconds"] for o in outs),
            "op_s": op_s,
            "op_raw_s": [o["seconds"] for o in outs],
            "round_kernel_s": result["round_kernel_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "verdicts": workloads.check_round(workload, ops, outs, trace_summary),
            "trace": trace_summary,
        })
        plain = [r for r in rounds if not r["traced"]]
        elapsed = time.monotonic() - begin
        if trace:
            enough = len(plain) >= 1 and len(rounds) > len(plain)
        else:
            enough = len(plain) >= workloads.MIN_ROUNDS[workload]
        typical = statistics.median(r["elapsed_s"] for r in rounds)
        longest = max(r["elapsed_s"] for r in rounds)
        if enough and (elapsed + typical > seconds or elapsed + longest > RUN_LIMIT):
            break

    probes(SETUP_PROBES)
    setups += [r["setup_s"] for r in rounds]
    setups_raw += [r["setup_raw_s"] for r in rounds]
    verdicts = [(op["label"], v) for r in rounds for op, v in zip(r["ops"], r["verdicts"])]
    wrong = sorted({f"{label}: {v}" for label, v in verdicts if v.startswith("wrong")})
    if trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        metrics = {}
        for name, unit, _ in tracing.metric_names():
            if name == "trace.overhead_s":
                value = (statistics.median(r["wall_s"] for r in traced_rounds)
                         - statistics.median(r["wall_s"] for r in plain))
            else:
                value = statistics.median(r["trace"].get(name, 0) for r in traced_rounds)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"},
            "op_p50_s": {"value": statistics.median(s for r in plain for s in r["op_s"]), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain), "unit": "MB"},
        }
    summary = {
        "correct": not wrong,
        "attempted": len(verdicts),
        "failed": sum(1 for _, v in verdicts if v == "failed"),
        "metrics": metrics,
    }
    detail = {
        "environment": _environment(workload, seed, trace),
        "rounds": len(rounds),
        "ops_per_round": len(rounds[0]["ops"]),
        "op_samples": sum(len(r["op_s"]) for r in plain),
        "setup_samples": len(setups),
        "unscaled": {
            "wall_s": statistics.median(r["wall_raw_s"] for r in plain),
            "op_p50_s": statistics.median(s for r in plain for s in r["op_raw_s"]),
            "setup_s": statistics.median(setups_raw),
            "kernel_s": statistics.median(r["round_kernel_s"] for r in rounds),
        },
        "failed_ops": sorted({label for label, v in verdicts if v == "failed"}),
        "wrong": wrong,
    }
    (run_dir / "run.json").write_text(json.dumps({**detail, "summary": summary, "round_details": rounds},
                                                  indent=1), encoding="utf-8")
    return detail, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "ballint" / "__init__.py").is_file():
        print("error: run from the root of a ballint checkout (src/ballint not found)", file=sys.stderr)
        return 2
    try:
        detail, summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in detail["wrong"]:
        print(f"wrong: {line}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
