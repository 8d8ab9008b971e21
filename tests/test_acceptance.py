"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 through 9 delegate to the shared grid in darkc.selftest (the same
code behind `darkc selftest`) and enforce the stated runtime budgets; all
comparisons inside are exact, with no tolerances anywhere.  Criterion 10
checks byte-level determinism across processes with different hash seeds.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import darkc
from darkc import selftest

BUDGETS = {
    "crystal-axioms": 30.0,
    "twists": 10.0,
    "brs-uniqueness": 5.0,
    "full-crystal-closure": 10.0,
    "well-definedness": 60.0,
    "demazure-operator-algebra": 5.0,
    "character-identity": 120.0,
    "energy-machinery": 30.0,
    "maximal-words-full-tensor": 30.0,
}

_CRITERIA = {name: fn for name, fn in selftest.CRITERIA}


def _run(number, name):
    fn = _CRITERIA[name]
    start = time.perf_counter()
    try:
        detail = fn()
    except selftest.CheckFailure as exc:
        print(f"criterion {number} {name}: FAIL ({exc})")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} {name}: PASS ({detail})")
    assert elapsed < BUDGETS[name], f"{name} took {elapsed:.1f}s"


def test_criterion_01_crystal_axioms():
    _run(1, "crystal-axioms")


def test_criterion_02_twists():
    _run(2, "twists")


def test_criterion_03_brs_uniqueness():
    _run(3, "brs-uniqueness")


def test_criterion_04_full_crystal_closure():
    _run(4, "full-crystal-closure")


def test_criterion_05_well_definedness():
    _run(5, "well-definedness")


def test_criterion_06_demazure_operator_algebra():
    _run(6, "demazure-operator-algebra")


def test_criterion_07_character_identity():
    _run(7, "character-identity")


def test_criterion_08_energy_machinery():
    _run(8, "energy-machinery")


def test_criterion_09_maximal_words_full_tensor():
    _run(9, "maximal-words-full-tensor")


def _start_selftest(hash_seed):
    # run from the directory that holds the imported package, so that the
    # child imports the same source without an installed darkc
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.Popen([sys.executable, "-m", "darkc", "selftest"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            cwd=Path(darkc.__file__).resolve().parents[1])


def _selftest_bytes(proc):
    out, err = proc.communicate()
    assert proc.returncode == 0, out.decode() + err.decode()
    return out


# the whole log, so that a changed family, element or spec count fails here
SELFTEST_LOG = b"""\
criterion 1 crystal-axioms: PASS (370 crystals, 69563 elements)
criterion 2 twists: PASS (69563 elements)
criterion 3 brs-uniqueness: PASS (15 scans)
criterion 4 full-crystal-closure: PASS (15 closures)
criterion 5 well-definedness: PASS (658 specs)
criterion 6 demazure-operator-algebra: PASS (18 polynomials, 50 division checks)
criterion 7 character-identity: PASS (658 specs, 57 (lambda, r) classes, anchor C=-1/4)
criterion 8 energy-machinery: PASS (76 pairs, 66 Yang-Baxter triples)
criterion 9 maximal-words-full-tensor: PASS (57 cases)
selftest: PASS
"""


@pytest.mark.slow
def test_criterion_10_determinism():
    # both processes start before either is waited on, so they run side by side
    procs = [_start_selftest(seed) for seed in ("0", "1")]
    try:
        first, second = (_selftest_bytes(proc) for proc in procs)
    finally:
        for proc in procs:
            proc.kill()  # a no-op on a process that has exited
            proc.wait()
    assert first == second, "selftest output depends on the process"
    assert first == SELFTEST_LOG
    print("criterion 10 determinism: PASS (byte-identical selftest logs)")
