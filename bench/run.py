#!/usr/bin/env python3
"""Benchmark of pairmoments: cold and warm passes over a fixed list of calls.

    python3 bench/run.py --workload exact-tables --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the library is imported from ``src``.  A
run launches fresh interpreters one at a time, each with one BLAS thread:
a few that only import the package, for set-up time, then workload
processes until the time is spent.  Each workload process makes one cold
pass over the workload's calls and then warm passes in the same process.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports medians of the end-to-end metrics.  ``--trace 1``
runs the workload process once untraced and once traced, and reports the
per-layer metrics of the traced one plus ``trace.overhead_s``, the traced
minus the untraced wall time of the passes.  Whole records of each run go
to ``bench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Warm passes per process: enough warm work per process to time a pass
#: that takes tens of milliseconds, few enough to leave room for fresh
#: processes, which are the only source of cold samples.
WARM_PASSES = {"exact-tables": 5, "pairing-streams": 1, "spectral-checks": 1}
SETUP_PROBES = 10
#: Three cold samples even where three processes overrun --seconds (spectral-checks).
MIN_PROCESSES = 3
#: Whole run, set-up probes and traced runs included, stays below this.
BUDGET_S = 170.0

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def launch(args: list[str], deadline: float) -> dict:
    """Run one fresh worker; its record gains ``setup_s``, launch to import."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget spent before a worker could start")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT, env=worker_env(),
            capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready"] - started
    return record


def workload_args(ns, trace_path: str | None = None) -> list[str]:
    args = ["--workload", ns.workload, "--seed", str(ns.seed),
            "--warm", str(WARM_PASSES[ns.workload])]
    if trace_path:
        args += ["--trace", trace_path]
    if ns.tiny:
        args.append("--tiny")
    return args


def measure(ns, deadline: float) -> tuple[list[dict], dict]:
    """End-to-end metrics: medians over fresh processes and warm passes."""
    start = time.monotonic()
    probes = [launch(["--probe"], deadline) for _ in range(SETUP_PROBES)]
    procs: list[dict] = []
    longest = 0.0
    while len(procs) < MIN_PROCESSES or (
            time.monotonic() + longest <= start + ns.seconds and not ns.tiny):
        began = time.monotonic()
        procs.append(launch(workload_args(ns), deadline))
        longest = max(longest, time.monotonic() - began)
    warm = [p for proc in procs for p in proc["passes"][1:]]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in probes + procs), "s"),
        "cold_s": (statistics.median(proc["passes"][0] for proc in procs), "s"),
        "warm_s": (statistics.median(warm), "s"),
        "peak_rss_mb": (statistics.median(proc["peak_rss_mb"] for proc in procs), "MB"),
    }
    return probes + procs, metrics


def trace(ns, deadline: float) -> tuple[list[dict], dict]:
    """Per-layer metrics from one traced process, with the tracing overhead."""
    plain = launch(workload_args(ns), deadline)
    path = OUT / f"trace-{ns.workload}-seed{ns.seed}.json"
    traced = launch(workload_args(ns, str(path)), deadline)
    metrics = {name: tuple(value) for name, value in traced["layers"].items()}
    metrics["trace.overhead_s"] = (sum(traced["passes"]) - sum(plain["passes"]), "s")
    return [plain, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WARM_PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale: tiny calls, the fewest processes")
    ns = parser.parse_args(argv)
    if ns.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "pairmoments" / "__init__.py").is_file():
        print(f"error: no pairmoments package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    try:
        records, metrics = (trace if ns.trace else measure)(ns, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    work = [r for r in records if "attempted" in r]
    for reason in [why for r in work for why in r["reasons"]][:20]:
        print(f"failed: {reason}", file=sys.stderr)
    result = {
        "correct": all(r["wrong"] == 0 for r in work),
        "attempted": sum(r["attempted"] for r in work),
        "failed": sum(r["failed"] for r in work),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record_path = OUT / f"run-{ns.workload}-seed{ns.seed}-trace{ns.trace}.json"
    record_path.write_text(json.dumps({"result": result, "processes": records}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
