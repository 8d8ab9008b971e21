"""The names the traced benchmark pass reads from darkc, and its outputs.

bench/workloads.py wraps public calls by identity and reads cache_info() of
eps, phi and TensorElt.e/f.  A refactor that drops one of them must fail
here, not only in the benchmark's own checks (bench/selfcheck.py).  Likewise
a change in the term order or the delta strings of a verify output."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ("kr.elements", "dark.set_size", "energy.tables", "energy.table_entries",
          "energy.entries_per_element", "charring.rhs_terms",
          "crystal.eps_cache_entries", "crystal.tensor_cache_entries")
# A fresh process, as in a benchmark pass: the program's per-process tables
# would otherwise hide the crystals and energy tables that the op builds.
TRACED_OP = """
import json, spans, workloads
spec = workloads.sweep_specs(1)[0]
counts = workloads.Counts()
with workloads.instrumented(spans.Tracer(), counts):
    output = workloads.run_verify(spec)
print(json.dumps({"class": workloads.class_key(spec), "ok": output["ok"],
                  "C": output["C"], "metrics": counts.as_metrics()}))
"""


# The seed-1 sweep op and the smallest ladder op, digested as a pass does.
DIGESTS = """
import json, workloads, worker
ops = {"sweep": workloads.sweep_specs(1)[0],
       "ladder": workloads.maximal_spec(*workloads.LADDER[0])}
print(json.dumps({name: [workloads.op_id(op), worker.digest(workloads.run_verify(op))]
                  for name, op in ops.items()}))
"""


def run_bench_snippet(code: str) -> dict:
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_traced_sweep_op_reports_every_count():
    got = run_bench_snippet(TRACED_OP)
    golden = json.loads((ROOT / "bench" / "goldens.json").read_text())["sweep"]
    assert got["ok"] and got["C"] == golden["C"][got["class"]]
    declared = {m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(got["metrics"]) == set(COUNTS) <= declared
    # each count reads a call that verify makes through a module global
    for name in ("kr.elements", "dark.set_size", "charring.rhs_terms"):
        assert got["metrics"][name] > 0, name


def test_verify_outputs_match_the_goldens():
    goldens = json.loads((ROOT / "bench" / "goldens.json").read_text())
    for workload, (op_id, digest) in run_bench_snippet(DIGESTS).items():
        assert goldens[workload]["ops"][op_id] == digest, op_id
