"""darkc benchmark: cold passes of one workload, timed, checked and summarised.

    python3 bench/run.py --workload sweep [--seed 1] [--seconds 30] [--trace 0]
                         [--out bench/out/runs.jsonl]

Each pass runs in a fresh single-threaded worker process (bench/worker.py),
because a CLI user pays the program's cold caches on every call.  Passes run
one after another: the first always, each further one only if, at the mean
pass time so far, it would end within --seconds.  Set-up is also measured in
SETUP_SAMPLES processes that only set up.  Workers still running at
RUN_LIMIT_S are killed and their ops count as failed.

Times are calibrated to the machine's speed while they are measured
(bench/clock.py); the raw wall-clock times are printed next to them as
raw_setup_s and raw_wall_s, and kernel_ms shows the machine's speed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced passes and reports the per-layer metrics (self
time per span and work counts) plus the tracing overhead.  Every metric is
printed as "name value unit (n=samples)"; the last stdout line is the JSON
result {"correct", "attempted", "failed", "metrics"}.  --out appends the full
record (environment, per-pass samples, ops, spans) to a JSON-lines file that
bench/compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("selftest", "ladder", "long-rows", "sweep")
SETUP_SAMPLES = 10
# A run must end within 180 s; a worker still running at this point is killed.
RUN_LIMIT_S = 170


def declared_metrics() -> tuple[dict, dict]:
    """{name: unit} of the end-to-end and the per-layer metrics that
    BENCHMARK.json declares; a run reports exactly these in its result line."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def spawn(args, trace: int, deadline: float, setup_only: bool = False) -> dict:
    """Run one worker process to completion, or kill it at `deadline`
    (time.monotonic()), and return its JSON result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace)]
    if args.ops is not None:
        cmd += ["--ops", args.ops]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(started)], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(deadline - started, 1))
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return {"crashed": f"killed at the {RUN_LIMIT_S} s run limit"}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(args) -> tuple[list, list]:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [spawn(args, 0, deadline, setup_only=True) for _ in range(SETUP_SAMPLES)]
    passes = []
    start = time.monotonic()
    while True:
        trace = int(args.trace and len(passes) % 2 == 1)
        passes.append((trace, spawn(args, trace, deadline)))
        if time.monotonic() >= deadline:
            return setups, passes
        elapsed = time.monotonic() - start
        need_traced = args.trace and not any(t for t, _ in passes)
        if not need_traced and elapsed + elapsed / len(passes) > args.seconds:
            return setups, passes


def summarise(setups, passes, layer_units: dict) -> tuple[dict, dict]:
    """(metrics as {name: (value, unit, samples)}, counters)."""
    expected = next((s["ops"] for s in setups if "ops" in s), 1)
    plain = [p for t, p in passes if not t and "crashed" not in p]
    traced = [p for t, p in passes if t and "crashed" not in p]
    attempted = failed = 0
    wrong = False
    for _, p in passes:
        if "crashed" in p:  # every op of a lost pass counts as failed
            attempted += expected
            failed += expected
            continue
        attempted += len(p["ops"])
        failed += sum(op["status"] != "ok" for op in p["ops"])
        wrong |= any(op["wrong"] for op in p["ops"]) or p["run_check"] is False
    # The traced pass must reproduce the untraced digests.
    digests = {tuple(op["digest"] for op in p["ops"]) for p in plain + traced}
    wrong |= len(digests) > 1
    crashed = [p["crashed"] for _, p in passes if "crashed" in p]
    crashed += [s["crashed"] for s in setups if "crashed" in s]

    metrics = {}
    measured = [s for s in setups if "setup_s" in s] + plain + traced
    for name in ("setup_s", "raw_setup_s"):
        if measured:
            metrics[name] = (statistics.median(s[name] for s in measured), "s", len(measured))
    plain_ops = [op for p in plain for op in p["ops"]]
    if plain:
        for name in ("wall_s", "raw_wall_s"):
            metrics[name] = (statistics.median(p[name] for p in plain), "s", len(plain))
        # The machine's speed: one reference kernel run (clock.py).
        metrics["kernel_ms"] = (1000 * statistics.median(p["kernel_s"] for p in plain),
                                "ms", len(plain))
        metrics["peak_rss_mb"] = (statistics.median(p["peak_rss_mb"] for p in plain),
                                  "MB", len(plain))
        ok = sum(op["status"] == "ok" for op in plain_ops)
        metrics["ok_frac"] = (ok / len(plain_ops), "ratio", len(plain_ops))
        # Printed and recorded, not gated: one op's time spread more between
        # runs than the largest bound allows (see README.md).
        latency = [op["s"] for op in plain_ops if op["kind"] == "verify"]
        if latency:
            metrics["verify_p50_s"] = (quantile(latency, 50), "s", len(latency))
            metrics["verify_p95_s"] = (quantile(latency, 95), "s", len(latency))
    if traced:
        # A layer the workload never enters reads 0.
        for name, unit in layer_units.items():
            if name == "trace.overhead_s":
                continue
            samples = [p["layers"].get(name, 0) for p in traced]
            metrics[name] = (statistics.median(samples), unit, len(samples))
        if plain:
            overhead = (statistics.median(p["wall_s"] for p in traced)
                        - metrics["wall_s"][0])
            metrics["trace.overhead_s"] = (overhead, "s", len(traced) + len(plain))
    counters = {"correct": not wrong and not crashed and bool(plain),
                "attempted": attempted, "failed": failed, "crashed": crashed}
    return metrics, counters


def environment(args) -> dict:
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, encoding="utf-8") as handle:
            src_lines += sum(1 for _ in handle)
    return {"git_sha": git_sha(), "src_lines": src_lines, "nproc": os.cpu_count(),
            "python": platform.python_version(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def git_sha() -> str:
    """HEAD's commit id, read from .git without running git; 'unknown' outside
    a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append the full record to this JSON-lines file")
    parser.add_argument("--ops", default=None,
                        help="comma-separated op indices (smoke runs)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "darkc" / "__init__.py").is_file():
        print(f"darkc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    e2e_units, layer_units = declared_metrics()
    env = environment(args)
    setups, passes = measure(args)
    metrics, counters = summarise(setups, passes, layer_units)
    for reason in counters["crashed"]:
        print(f"worker failed: {reason}", file=sys.stderr)
    wanted = layer_units if args.trace else e2e_units
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, n) in metrics.items():
        print(f"{name} {value:.6g} {unit} (n={n})")
    if args.out:
        record = {"env": env, "counters": counters,
                  "metrics": {k: {"value": v, "unit": u, "n": n}
                              for k, (v, u, n) in metrics.items()},
                  "passes": [{"trace": t, **p} for t, p in passes],
                  "setups": setups}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    result = {"correct": counters["correct"], "attempted": counters["attempted"],
              "failed": counters["failed"],
              "metrics": {name: {"value": metrics[name][0], "unit": unit}
                          for name, unit in wanted.items() if name in metrics}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
