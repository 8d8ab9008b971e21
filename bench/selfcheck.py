"""Tests of the benchmark itself; they take about a minute.

    python3 bench/selfcheck.py

The file name keeps these out of the repository's pytest run: they start
benchmark runs in subprocesses and test the benchmark, not the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

from clock import REF_S, CalibratedClock
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Cheap ops per workload, as op indices.
SMOKE_OPS = {"selftest": "2,3", "ladder": "0,1", "long-rows": "0", "sweep": "0,1,2"}


def bench_run(*args, cwd=ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"),
                           "--seconds", "0", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, None


class SmokeRuns(unittest.TestCase):
    def test_each_workload_passes(self):
        e2e = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        for workload, ops in SMOKE_OPS.items():
            with self.subTest(workload=workload):
                code, result = bench_run("--workload", workload, "--ops", ops)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["attempted"], len(ops.split(",")))
                self.assertEqual(set(result["metrics"]), {m["name"] for m in e2e})

    def test_traced_pass_reproduces_digests(self):
        layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        code, result = bench_run("--workload", "sweep", "--ops", "0,1", "--trace", "1")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in layers})
        self.assertGreater(result["metrics"]["energy.tables"]["value"], 0)


def copy_bench(tmp: str, with_program: bool) -> Path:
    """BENCHMARK.json and bench/ copied into `tmp`, with a link to src/ when
    `with_program`; returns the copy's bench/."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp)
    shutil.copytree(BENCH, Path(tmp) / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    if with_program:
        (Path(tmp) / "src").symlink_to(ROOT / "src")
    return Path(tmp) / "bench"


class Goldens(unittest.TestCase):
    def test_corrupted_golden_fails_the_op(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = copy_bench(tmp, with_program=True) / "goldens.json"
            goldens = json.loads(path.read_text())
            op = next(iter(goldens["ladder"]["ops"]))
            goldens["ladder"]["ops"][op] = "0" * 64
            path.write_text(json.dumps(goldens))
            code, result = bench_run("--workload", "ladder", "--ops", "0", cwd=tmp)
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["metrics"]["ok_frac"]["value"], 0.0)


class Contract(unittest.TestCase):
    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            copy_bench(tmp, with_program=False)
            code, result = bench_run("--workload", "sweep", cwd=tmp)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


class Spans(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            time.sleep(0.02)
            with tracer.span("inner"):
                time.sleep(0.03)
        times = tracer.self_times()
        outer = tracer.spans[0]
        self.assertAlmostEqual(times["outer"] + times["inner"],
                               outer["end"] - outer["start"], places=9)
        self.assertGreaterEqual(times["inner"], 0.03)
        self.assertEqual(tracer.spans[1]["parent"], 0)

    def test_repeated_calls_merge(self):
        tracer = Tracer()
        seen = []
        inner = tracer.timed("inner", lambda x: x + 1, lambda result, x: seen.append(result))
        with tracer.span("outer"):
            self.assertEqual([inner(1), inner(2)], [2, 3])
        self.assertEqual(seen, [2, 3])
        self.assertEqual([(s["name"], s["calls"]) for s in tracer.spans],
                         [("outer", 1), ("inner", 2)])
        times = tracer.self_times()
        self.assertAlmostEqual(times["outer"] + times["inner"],
                               tracer.spans[0]["seconds"], places=9)


class Clock(unittest.TestCase):
    def test_stretches_scale_by_the_next_kernel_run(self):
        clock = CalibratedClock()
        clock.samples = [(0.2, 0.201, 0.001), (1.0, 1.001, 0.001), (2.0, 2.002, 0.002)]
        # [0.5, 1.0] before a 1 ms kernel run, [1.001, 1.5] before a 2 ms one
        want = 0.5 * REF_S / 0.001 + 0.499 * REF_S / 0.002
        self.assertAlmostEqual(clock.seconds(0.5, 1.5), want, places=12)
        with self.assertRaises(ValueError):
            clock.seconds(0.5, 2.5)


if __name__ == "__main__":
    unittest.main()
