"""Write bench/goldens.json from the program as it is now.

The goldens pin the program's outputs: a later change must reproduce them.
Regenerate them only when the benchmark's inputs change, never to make a
failing run pass.  The recursion limit is raised here so that ops which fail
at the default limit (long-rows, n=1, s=500) still get a golden.

    python3 bench/make_goldens.py
"""

from __future__ import annotations

import json
import sys
import threading
import time
from itertools import combinations_with_replacement, product
from math import prod

from spans import NULL_TRACER
from worker import GOLDENS, SRC, digest

sys.path.insert(0, str(SRC))

import workloads as wl  # noqa: E402
from darkc.cartan import CartanA  # noqa: E402
from darkc.dark import DarkSpec, FactorWord, verify  # noqa: E402

SWEEP_GOLDEN_SEED = 1


def sweep_classes():
    """Every (n, lambda, r) class the sweep can draw."""
    for n in wl.SWEEP_RANKS:
        for p in range(1, wl.SWEEP_MAX_FACTORS + 1):
            for parts in combinations_with_replacement(range(wl.SWEEP_MAX_PART, 0, -1), p):
                for r in product(range(1, n + 1), repeat=p):
                    if prod(wl.kr_size(n, rj, sj)
                            for rj, sj in zip(r, parts)) <= wl.SWEEP_AMBIENT_CAP:
                        yield n, parts, r


def class_constants() -> dict:
    """C per class, from the one-element set of identity words."""
    out = {}
    for n, lam, r in sweep_classes():
        spec = DarkSpec(CartanA(n), lam, r, (FactorWord(),) * len(lam))
        ok, shift = verify(spec)
        if not ok:
            raise RuntimeError(f"identity fails on {wl.spec_id(spec)}")
        out[wl.class_key(spec)] = str(shift)
    return out


def verify_goldens(ops) -> list[tuple[str, str]]:
    out = []
    for op in ops:
        output = wl.run_anchor() if op == "anchor" else wl.run_verify(op)
        out.append((wl.op_id(op), digest(output)))
    return out


def make() -> dict:
    goldens = {}
    names = wl.setup("selftest", 0, NULL_TRACER)
    results, log = wl.run_selftest(names, NULL_TRACER, time.perf_counter)
    if not log.endswith("selftest: PASS\n"):
        raise RuntimeError("selftest fails:\n" + log)
    goldens["selftest"] = {"ops": {name: digest(output)
                                   for name, _, _, _, output in results},
                           "run": digest({"log": log})}
    for workload in ("ladder", "long-rows"):
        goldens[workload] = {"ops": dict(verify_goldens(wl.setup(workload, 0, NULL_TRACER)))}
    digests = verify_goldens(wl.setup("sweep", SWEEP_GOLDEN_SEED, NULL_TRACER))
    goldens["sweep"] = {"ops": dict(digests), "run": digest([d for _, d in digests]),
                        "run_seed": SWEEP_GOLDEN_SEED, "C": class_constants()}
    return goldens


def main() -> int:
    sys.setrecursionlimit(10**6)
    threading.stack_size(1 << 29)
    box = {}
    worker = threading.Thread(target=lambda: box.update(goldens=make()))
    worker.start()
    worker.join()
    if "goldens" not in box:
        return 1
    with open(GOLDENS, "w") as handle:
        json.dump(box["goldens"], handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
