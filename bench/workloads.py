"""Benchmark workloads: how each builds its inputs and runs its ops.

Every op goes through darkc's public functions.  An op returns a canonical
JSON-able output, which the worker digests and checks against the goldens.
A traced pass runs the same ops with the public calls that `verify` is made
of wrapped in spans where the program looks them up (`instrumented`), so it
times the program's own code path and must produce the same outputs.

Why these workloads:
- selftest: the 9-criterion acceptance grid, the user's test loop.  Mostly
  crystal work (axioms and twists), little energy work.
- ladder: the CLI anchor, then `verify` on maximal words up to |B| = 30625.
  Mostly R/H table construction, every table entry used.
- long-rows: single-factor maximal words with long rows.  Mostly KR
  enumeration and promotion; no energy table.  Keeps the n=1, s=500 rung that
  raises RecursionError at the parent.
- sweep: seeded random specs with n in {3,4}, p <= 3 and parts <= 3, many
  small sets sharing mid-size tables; the energy layer is used very
  differently from ladder.
"""

from __future__ import annotations

import io
import random
import sys
from contextlib import contextmanager, redirect_stdout
from itertools import permutations
from math import prod

from darkc import cartan, charring, cli, dark, energy, kr, selftest
from darkc.cartan import CartanA
from darkc.charring import CharPoly
from darkc.crystal import TensorElt, eps, phi
from darkc.dark import DarkSpec, FactorWord, verify_detail
from darkc.weyl import (ExtAffPerm, bruhat_lower_interval, kr_translation_data,
                        length, reduced_word)

ANCHOR_ARGV = ["verify", "--n", "1", "--lambda", "1", "--r", "1", "--w", "1"]
LADDER = ((2, (4, 3, 2, 1), (1, 1, 1, 1)), (3, (3, 3, 2), (2, 1, 1)),
          (5, (2, 2), (3, 2)), (4, (3, 3), (2, 2)))
LONG_ROWS = ((1, 300), (1, 450), (1, 500), (2, 90), (3, 30))
SWEEP_SPECS = 300
SWEEP_RANKS = (3, 4)
SWEEP_MAX_FACTORS = 3
SWEEP_MAX_PART = 3
# Caps the ambient tensor product so that no single spec dominates a pass.
SWEEP_AMBIENT_CAP = 3000
SWEEP_CLASS_SEED = 1


def spec_id(spec: DarkSpec) -> str:
    words = ";".join(" ".join(map(str, fw.prefix)) + "|" + " ".join(map(str, fw.word))
                     for fw in spec.words)
    return f"{class_key(spec)}/{words}"


def class_key(spec: DarkSpec) -> str:
    """The (n, lambda, r) class; C is constant on it."""
    return (f"n{spec.cartan.n}/{','.join(map(str, spec.lam))}"
            f"/{','.join(map(str, spec.r))}")


def kr_size(n: int, r: int, s: int) -> int:
    """|B^{r,s}| in type A_n^(1), by the hook-content formula for an r x s box."""
    num = prod(n + 1 + j - i for i in range(r) for j in range(s))
    den = prod(r + s - i - j - 1 for i in range(r) for j in range(s))
    return num // den


def maximal_spec(n: int, lam, r) -> DarkSpec:
    c = CartanA(n)
    words = tuple(FactorWord((), reduced_word(kr_translation_data(c, rj)[0]))
                  for rj in r)
    return DarkSpec(c, tuple(lam), tuple(r), words)


def sweep_specs(seed: int) -> list[DarkSpec]:
    """Random specs: a random reduced classical prefix and a random Bruhat-lower
    word per factor.  The same seed gives the same specs.

    The (n, lambda, r) classes and the lengths of each prefix and word come
    from the fixed SWEEP_CLASS_SEED; `seed` draws which elements of those
    lengths.  Lengths are at most half the longest, so sets stay small and
    most of a pass goes into energy tables that specs share.  The classes
    decide which tables a pass builds, so the seed barely changes its work."""
    shapes = random.Random(SWEEP_CLASS_SEED)
    rng = random.Random(seed)
    by_length: dict = {}

    def draw(key, elements):
        if key not in by_length:
            groups: dict = {}
            for w in sorted(elements, key=lambda w: w.win):
                groups.setdefault(length(w), []).append(w)
            by_length[key] = [groups[k] for k in sorted(groups) if 2 * k <= max(groups)]
        return reduced_word(rng.choice(shapes.choice(by_length[key])))

    specs = []
    while len(specs) < SWEEP_SPECS:
        n = shapes.choice(SWEEP_RANKS)
        p = shapes.randint(1, SWEEP_MAX_FACTORS)
        lam = tuple(sorted((shapes.randint(1, SWEEP_MAX_PART) for _ in range(p)),
                           reverse=True))
        r = tuple(shapes.randint(1, n) for _ in range(p))
        if prod(kr_size(n, rj, sj) for rj, sj in zip(r, lam)) > SWEEP_AMBIENT_CAP:
            continue
        c = CartanA(n)
        words = tuple(
            FactorWord(draw((n, 0), (ExtAffPerm(w) for w in permutations(range(1, c.m + 1)))),
                       draw((n, rj), bruhat_lower_interval(kr_translation_data(c, rj)[0])))
            for rj in r)
        specs.append(DarkSpec(c, lam, r, words))
    return specs


def setup(workload: str, seed: int, tracer) -> list:
    """The workload's ops, in run order: criterion names for selftest, DARK
    specs (and the CLI anchor on ladder) otherwise.  Building them is part of
    the set-up time; the Weyl data is the `weyl.input` span."""
    if workload == "selftest":
        return [name for name, _ in selftest.CRITERIA]
    with tracer.span("weyl.input"):
        if workload == "ladder":
            return ["anchor"] + [maximal_spec(*case) for case in LADDER]
        if workload == "long-rows":
            return [maximal_spec(n, (s,), (1,)) for n, s in LONG_ROWS]
        if workload == "sweep":
            return sweep_specs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def op_id(op) -> str:
    return op if isinstance(op, str) else spec_id(op)


def verify_output(ok, shift, lhs: CharPoly) -> dict:
    return {"ok": ok, "C": None if shift is None else str(shift),
            "size": sum(lhs.terms.values()),
            "lhs": [[list(mu.lam), str(mu.dlt), coef] for mu, coef in lhs.sorted_terms()]}


def run_anchor() -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(ANCHOR_ARGV)
    return {"exit": code, "stdout": out.getvalue()}


def run_verify(spec: DarkSpec) -> dict:
    ok, shift, lhs, _ = verify_detail(spec)
    return verify_output(ok, shift, lhs)


class Counts:
    """Work counts of a traced pass; crystals and tables are counted once per
    process, matching the program's per-process caches."""

    def __init__(self):
        self.crystals: dict = {}
        self.tables: dict = {}
        self.set_size = 0
        self.rhs_terms = 0

    def crystal(self, elements, c, r, s):
        self.crystals[(c.n, r, s)] = len(elements)

    def table(self, table, c, left, right):
        self.tables[(c.n, left, right)] = len(table.H)

    def dark_set(self, dark_set, spec):
        self.set_size += len(dark_set)

    def rhs(self, poly, spec):
        self.rhs_terms += len(poly)

    def as_metrics(self) -> dict:
        entries = sum(self.tables.values())
        return {
            "kr.elements": sum(self.crystals.values()),
            "dark.set_size": self.set_size,
            "energy.tables": len(self.tables),
            "energy.table_entries": entries,
            "energy.entries_per_element": entries / self.set_size if self.set_size else 0.0,
            "charring.rhs_terms": self.rhs_terms,
            "crystal.eps_cache_entries": eps.cache_info().currsize + phi.cache_info().currsize,
            "crystal.tensor_cache_entries": (TensorElt.e.cache_info().currsize
                                             + TensorElt.f.cache_info().currsize),
        }


@contextmanager
def instrumented(tracer, counts: Counts):
    """Wrap each public call that `verify` is made of in a span, in every
    darkc module that looks it up, and undo it on exit.  Table construction
    is timed where energy_table calls EnergyTable, so it is a child span of
    the total_D call that first needs the table."""
    layers = ((kr.generate, "kr.generate", counts.crystal),
              (kr.find_b_rs, "kr.find_b_rs", None),
              (dark.build, "dark.build", counts.dark_set),
              (energy.EnergyTable, "energy.tables", counts.table),
              (energy.total_D, "energy.total_D", None),
              (cartan.aff_level_zero, "cartan.aff_level_zero", None),
              (dark.rhs_character, "charring.rhs", counts.rhs),
              (charring.fit_delta_shift, "charring.fit", None))
    modules = [m for name, m in sys.modules.items()
               if name == "darkc" or name.startswith("darkc.")]
    saved = []
    for fn, name, count in layers:
        wrapper = tracer.timed(name, fn, count)
        for module in modules:
            for attr in [a for a, value in vars(module).items() if value is fn]:
                saved.append((module, attr, fn))
                setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def run_selftest(names: list[str], tracer, clock) -> tuple[list, str]:
    """selftest.run_all over the named criteria, each timed and guarded so that
    an exception fails its own criterion only.  Returns per-criterion
    (name, start, end, status, output) and the log."""
    criteria = dict(selftest.CRITERIA)
    chosen = [(name, criteria[name]) for name in names]
    results = []

    def guarded(name, fn):
        def call():
            tracer.op = name
            start = clock()
            status = "ok"
            try:
                with tracer.span("selftest." + name.replace("-", "_")):
                    return fn()
            except selftest.CheckFailure:
                status = "CheckFailure"
                raise
            except Exception as exc:  # any internal error fails this criterion only
                status = type(exc).__name__
                raise selftest.CheckFailure(f"{status}: {exc}") from exc
            finally:
                results.append([name, start, clock(), status])
        return call

    log = io.StringIO()
    saved = selftest.CRITERIA
    selftest.CRITERIA = tuple((name, guarded(name, fn)) for name, fn in chosen)
    try:
        selftest.run_all(log.write)
    finally:
        selftest.CRITERIA = saved
    lines = log.getvalue().splitlines()
    out = []
    for (name, start, end, status), line in zip(results, lines):
        # drop "criterion <k> ", whose k depends on which criteria ran
        out.append((name, start, end, status, {"line": line.split(" ", 2)[2]}))
    return out, log.getvalue()
