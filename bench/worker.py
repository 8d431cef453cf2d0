"""One benchmark process: import pairmoments, then run the workload's passes.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path.  The
first pass is cold: the process is new, so every cache of the library is
empty.  The warm passes that follow run the same calls in the same
process.  Only the calls are timed; the checks run after each pass.  The
last line of standard output is one JSON object.

    python3 bench/worker.py --workload NAME --seed N --warm W [--trace PATH] [--tiny]
    python3 bench/worker.py --probe     # import only, for set-up timing
"""

import time

import pairmoments  # noqa: F401  (set-up ends when the package is imported)

READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def run_pass(ops, tracer) -> tuple[float, dict]:
    results: dict = {}
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        try:
            results[op.name] = op.call(results)
        except Exception as exc:  # a call that raises is a failed operation
            results[op.name] = exc
    return time.perf_counter() - start, results


def check_pass(ops, results) -> tuple[int, int, list[str]]:
    """Failed operations, of them the ones with a wrong answer, and reasons."""
    failed = wrong = 0
    reasons = []
    for op in ops:
        got = results[op.name]
        if isinstance(got, Exception):
            failed += 1
            reasons.append(f"{op.name}: raised {type(got).__name__}: {got}")
            continue
        try:
            why = op.check(got, results)
        except Exception as exc:  # an answer the check cannot read is wrong
            why = f"check raised {type(exc).__name__}: {exc}"
        if why:
            failed += 1
            wrong += 1
            reasons.append(f"{op.name}: {why}")
    return failed, wrong, reasons


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--warm", type=int, default=1)
    parser.add_argument("--trace", default=None, metavar="PATH")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    if args.probe:
        print(json.dumps({"ready": READY}))
        return 0

    import workloads

    ops = workloads.build(args.workload, args.seed, args.tiny)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    passes, attempted, failed, wrong, reasons = [], 0, 0, 0, []
    for _ in range(1 + args.warm):
        elapsed, results = run_pass(ops, tracer)
        passes.append(elapsed)
        f, w, why = check_pass(ops, results)
        attempted += len(ops)
        failed += f
        wrong += w
        reasons += why
    out = {
        "ready": READY,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "reasons": reasons[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        with open(args.trace, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "passes": passes,
                       "layers": out["layers"], "spans": tracer.dump()}, fh, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
