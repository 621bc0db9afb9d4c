"""rmep's benchmark: one workload per process, untraced or traced.

    python3 perfbench/run.py --workload sl-n24 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; rmep is imported from its `src`.  With
--trace 0 the run prints the end-to-end metrics, with --trace 1 the
per-layer table, the tracing overhead and (for sl-n24) how much of the
operation the stage spans cover.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Results
and spans are also written under .perfbench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NAMES = ("sl-n24", "planted-sweep", "alternating-mix")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5  # set-ups timed per untraced run; setup_s is their median
PROBE_TIMEOUT_S = 120


def _parse(argv):
    p = argparse.ArgumentParser(description="rmep benchmark")
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the timed rounds run (at least the workload's minimum of rounds)")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--blas-threads", type=int, default=len(os.sched_getaffinity(0)),
                   help="BLAS thread count (default: the CPUs this process may use)")
    p.add_argument("--toy", action="store_true", help="toy-sized inputs, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _child_argv(args, workload, *extra):
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace), "--blas-threads", str(args.blas_threads)]
    return argv + (["--toy"] if args.toy else []) + list(extra)


def _rounds(workload, seconds: float, first: int, min_rounds: int = 1) -> list[dict]:
    """Whole rounds until `seconds` of wall time have passed and at least
    `min_rounds` have run."""
    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        rounds.append(workload.run_round(first + len(rounds)))
    return rounds


def _setup_seconds(args) -> list[float]:
    """Process start to first operation ready, in fresh processes: the
    child reports the monotonic clock, which all processes share, once its
    set-up is done."""
    out = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        child = subprocess.run(_child_argv(args, args.workload, "--setup-probe"), capture_output=True,
                               text=True, timeout=PROBE_TIMEOUT_S, check=True)
        out.append(float(child.stdout.strip().splitlines()[-1]) - start)
    return out


def _machine(threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _metric_dict(metrics: dict) -> dict:
    return {name: {"value": float(v[0]), "unit": v[1]} for name, v in metrics.items()}


def _run(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = str(args.blas_threads)
    sys.path.insert(0, str(SRC))
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"
    if not args.setup_probe:
        shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True, exist_ok=True)

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, run_dir, toy=args.toy)
    if args.setup_probe:
        print(repr(time.perf_counter()))
        return 0

    machine = _machine(args.blas_threads)
    print(f"{args.workload} seed={args.seed} trace={args.trace} " + " ".join(f"{k}={v}" for k, v in machine.items()))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "machine": machine}
    if args.trace:
        rounds, metrics = _traced(args, workload, run_dir, record)
    else:
        rounds = _rounds(workload, args.seconds, 0, workload.min_rounds)
        metrics = {"round_s": (workload.round_seconds(rounds), "s")}
        metrics["setup_s"] = (statistics.median(_setup_seconds(args)), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        for name, (value, unit) in metrics.items():
            print(f"  {name:22s} {value:12.6g} {unit}")
    problems = [p for r in rounds for p in r["problems"]] + workload.final_checks()
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": _metric_dict(metrics),
    }
    print(f"  rounds={len(rounds)} attempted={result['attempted']} failed={result['failed']} "
          f"check problems={len(problems)}")
    record.update(result, rounds=[{k: v for k, v in r.items() if k != "problems"} for r in rounds], problems=problems)
    (run_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


def _traced(args, workload, run_dir, record):
    """Untraced rounds for half the time, then traced rounds for the other
    half; the per-layer figures come from the traced rounds alone."""
    import tracing

    base = _rounds(workload, args.seconds / 2, 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _rounds(workload, args.seconds / 2, len(base))
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer.spans, len(traced))
    print(tracing.format_table(layers))
    untraced_s = workload.round_seconds(base)
    traced_s = workload.round_seconds(traced)
    overhead = traced_s / untraced_s - 1.0
    print(f"tracing overhead: {100 * overhead:+.2f}% (median round {traced_s:.4g} s traced, "
          f"{untraced_s:.4g} s untraced, {len(traced)} and {len(base)} rounds)")
    record["overhead"] = overhead
    if tracer.absent:
        print(f"absent spans (their metrics read 0): {', '.join(tracer.absent)}")
    if args.workload == "sl-n24":
        covered = sum(layers[name][0] for name in tracing.SL_STAGES)
        record["stage_coverage"] = covered / untraced_s
        print(f"stage spans cover {100 * covered / traced_s:.2f}% of the traced operation, "
              f"{100 * covered / untraced_s:.2f}% of the untraced round_s")
    if args.workload == "planted-sweep":
        serial = workload.serial_reference(0)
        pooled = sum(r["seconds"] for r in traced) / sum(r["attempted"] for r in traced)
        record["serial_trial_ms"] = 1e3 * serial
        print(f"trial wall time: {1e3 * pooled:.2f} ms in the CLI's thread pool, {1e3 * serial:.2f} ms "
              f"one after another (round 0's {workload.trials * len(workload.sigmas)} trials, untraced)")
    tracer.write(run_dir / "spans.json")
    return base + traced, {name: (value, unit) for name, (value, unit, _) in layers.items()}


def _run_all(args) -> int:
    """Each workload in its own process, then one summary table."""
    results = {}
    for name in NAMES:
        child = subprocess.run(_child_argv(args, name), stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if child.returncode == 0 and lines else None
    print(f"{'workload':16s} {'correct':8s} {'attempted':>9s} {'failed':>6s}  metrics")
    for name, res in results.items():
        if res is None:
            print(f"{name:16s} no result")
            continue
        shown = ", ".join(f"{m} = {v['value']:.6g} {v['unit']}" for m, v in res["metrics"].items())
        print(f"{name:16s} {str(res['correct']):8s} {res['attempted']:9d} {res['failed']:6d}  {shown}")
    print(json.dumps({"workloads": results}))
    return 0 if all(r is not None and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "rmep" / "__init__.py").is_file():
        print(f"error: no rmep sources at {SRC}; run from the root of an rmep source tree", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
