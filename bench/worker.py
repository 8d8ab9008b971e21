"""One cold pass of a benchmark workload, in a fresh process.

bench/run.py starts one worker per pass, so every pass pays the program's
cold caches as a CLI call does.  The worker sets up the workload, runs its
ops one at a time, checks each output against the goldens and prints one JSON
line with the result.  Its times are calibrated to the machine's speed
(clock.py); the raw wall-clock times are reported next to them.

    python3 bench/worker.py --workload ladder --spawned-at <time.monotonic()>
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from clock import CalibratedClock
from spans import NULL_TRACER, Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
GOLDENS = BENCH / "goldens.json"

# Statuses that mean the program answered wrongly; any other status but "ok"
# is an exception, which fails the op without making the output wrong.
WRONG_OUTPUT = ("identity-false", "digest-mismatch", "C-mismatch", "CheckFailure")


def digest(obj) -> str:
    """SHA-256 of canonical JSON."""
    import hashlib  # imported after set-up, which it must not slow down
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check(wl, op, output, goldens: dict) -> str:
    if not output.get("ok", True):
        return "identity-false"
    want = goldens.get("ops", {}).get(wl.op_id(op))
    if want is not None and want != digest(output):
        return "digest-mismatch"
    if "C" in goldens and goldens["C"].get(wl.class_key(op)) != output["C"]:
        return "C-mismatch"
    return "ok"


def run_ops(wl, workload: str, ops: list, tracer) -> tuple[list, str | None]:
    """(op id, start, end, status, output) per op, and the selftest log.  An
    op that raises is timed up to its exception and has no output."""
    if workload == "selftest":
        return wl.run_selftest(ops, tracer, time.monotonic)
    results = []
    for op in ops:
        tracer.op = wl.op_id(op)
        start = time.monotonic()
        try:
            if op == "anchor":
                with tracer.span("cli.verify"):
                    output = wl.run_anchor()
            else:
                with tracer.span("verify"):
                    output = wl.run_verify(op)
            status = "ok"
        except Exception as exc:  # a failing op must not abort the pass
            output, status = None, type(exc).__name__
        results.append((tracer.op, start, time.monotonic(), status, output))
    return results, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--ops", default=None,
                        help="comma-separated op indices to run (default: all)")
    args = parser.parse_args(argv)
    clock = CalibratedClock()
    clock.start()

    sys.path.insert(0, str(SRC))
    tracer = Tracer() if args.trace else NULL_TRACER
    with tracer.span("setup"):
        import workloads as wl
        ops = wl.setup(args.workload, args.seed, tracer)
    setup_end = time.monotonic()
    clock.close()
    if args.setup_only:
        clock.stop()  # SIGALRM would kill the process while it exits
    setup = {"setup_s": clock.seconds(args.spawned_at, setup_end),
             "raw_setup_s": setup_end - args.spawned_at}
    every_op = args.ops is None
    if not every_op:
        ops = [ops[int(k)] for k in args.ops.split(",")]
    if args.setup_only:
        print(json.dumps({**setup, "ops": len(ops)}))
        return 0

    import resource  # after set-up, which it must not slow down

    with open(GOLDENS) as handle:
        goldens = json.load(handle).get(args.workload, {})
    # The selftest criteria are timed whole; a verify workload's calls are
    # split into layers.
    counts = wl.Counts() if args.trace else None
    layers = (wl.instrumented(tracer, counts)
              if args.trace and args.workload != "selftest" else nullcontext())
    start = time.monotonic()
    with layers:
        results, log = run_ops(wl, args.workload, ops, tracer)
    end = time.monotonic()
    clock.close()
    clock.stop()

    records = []
    for op, (name, op_start, op_end, status, output) in zip(ops, results):
        if status == "ok":
            status = check(wl, op, output, goldens)
        kind = ("criterion" if args.workload == "selftest"
                else "cli" if op == "anchor" else "verify")
        records.append({"id": name, "kind": kind, "s": clock.seconds(op_start, op_end),
                        "status": status,
                        "wrong": status in WRONG_OUTPUT,
                        "digest": None if output is None else digest(output)})

    # Whole-run goldens: the selftest log byte for byte, and the sweep's
    # digest over all op digests for the seed the golden was made with.
    run_check = None
    if "run" in goldens and every_op and goldens.get("run_seed", args.seed) == args.seed:
        if log is not None:
            run_check = digest({"log": log}) == goldens["run"]
        elif all(r["digest"] for r in records):
            run_check = digest([r["digest"] for r in records]) == goldens["run"]

    kernel_s = sorted(s for _, _, s in clock.samples)
    result = {**setup, "wall_s": clock.seconds(start, end), "raw_wall_s": end - start,
              "kernel_s": kernel_s[len(kernel_s) // 2],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "ops": records, "run_check": run_check}
    if args.trace:
        result["layers"] = {f"{name}_s": s for name, s in tracer.self_times().items()}
        result["layers"].update(counts.as_metrics())
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
