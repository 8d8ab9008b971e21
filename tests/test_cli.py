import json
import subprocess
import sys
from pathlib import Path

import pytest

import darkc
from darkc import dark, kr
from darkc.cli import main
from darkc.crystal import ModelConsistencyError


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(*argv):
    # run from the directory that holds the imported package, so that the
    # child imports the same source without an installed darkc
    return subprocess.run([sys.executable, "-m", "darkc", *argv],
                          capture_output=True, text=True,
                          cwd=Path(darkc.__file__).resolve().parents[1])


def test_verify_anchor(capsys):
    code, out, err = run_main(capsys, "verify", "--n", "1", "--lambda", "1",
                              "--r", "1", "--w", "1")
    assert code == 0
    assert out == "OK C=-1/4\n"


def test_verify_json(capsys):
    code, out, _ = run_main(capsys, "verify", "--n", "1", "--lambda", "1",
                            "--w", "1", "--json")
    assert code == 0
    assert json.loads(out) == {"ok": True, "C": "-1/4"}


def test_weyl_factor_output(capsys):
    code, out, _ = run_main(capsys, "weyl", "factor", "--n", "1", "--r", "1")
    assert code == 0
    assert out == "y=[1] tau=rot+1\n"
    code, out, _ = run_main(capsys, "weyl", "factor", "--n", "2", "--r", "2",
                            "--json")
    assert json.loads(out) == {"y": [1, 2], "tau": 2}


def test_build_output(capsys):
    code, out, _ = run_main(capsys, "build", "--n", "1", "--lambda", "1,1",
                            "--r", "1,1", "--w", "1 ; 1")
    assert code == 0
    assert out == "size=4\n1|1\n1|2\n2|1\n2|2\n"


def test_build_json_round_trip(capsys):
    code, out, _ = run_main(capsys, "build", "--n", "2", "--lambda", "2,1",
                            "--json")
    blob = json.loads(out)
    assert blob["size"] == 1 and blob["elements"] == [["11", "2"]]


def test_char_subcommand(capsys):
    code, out, _ = run_main(capsys, "char", "--n", "1", "--lambda", "1",
                            "--w", "1", "--side", "rhs")
    assert code == 0
    assert json.loads(out) == [
        {"lam": [0, 1], "delta": "0", "coef": 1},
        {"lam": [2, -1], "delta": "-1/2", "coef": 1},
    ]
    code, lhs_out, _ = run_main(capsys, "char", "--n", "1", "--lambda", "1",
                                "--w", "1", "--side", "lhs")
    assert json.loads(lhs_out) == [
        {"lam": [0, 1], "delta": "1/4", "coef": 1},
        {"lam": [2, -1], "delta": "-1/4", "coef": 1},
    ]


def test_energy_subcommand(capsys):
    code, out, _ = run_main(capsys, "energy", "--n", "1", "--factors",
                            "1x1,1x1", "--elt", "1|2")
    assert code == 0
    assert out == "H[1,2]=-1\nD=-1\n"
    code, out, _ = run_main(capsys, "energy", "--n", "1", "--factors",
                            "1x1,1x1,1x1", "--elt", "1|2|1", "--json")
    blob = json.loads(out)
    assert blob["D"] == -2
    assert len(blob["pairs"]) == 3


def test_export_dot(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    code, _, _ = run_main(capsys, "export", "--n", "1", "--lambda", "1",
                          "--w", "1", "--dot", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("digraph crystal {")
    assert '0 [label="1"];' in text
    jtarget = tmp_path / "graph.json"
    run_main(capsys, "export", "--n", "1", "--lambda", "1", "--w", "1",
             "--json-file", str(jtarget))
    blob = json.loads(jtarget.read_text())
    assert blob["nodes"] == ["1", "2"]



# Node order follows sort_key, the factors' table positions.
EXPORT_NODES = [f"{top}|{b}" for top in ("11/22", "11/23", "11/33", "12/23", "12/33", "22/33")
                for b in "123"]
EXPORT_EDGES = ("0 1 1, 0 3 2, 1 4 2, 2 0 0, 2 5 2, 3 6 2, 3 9 1, 4 7 2, 5 3 0, "
                "5 11 1, 6 12 1, 7 8 2, 7 13 1, 8 6 0, 8 14 1, 9 10 1, 9 12 2, "
                "10 1 0, 10 13 2, 11 2 0, 12 15 1, 13 4 0, 13 14 2, 14 5 0, "
                "14 17 1, 15 9 0, 15 16 1, 16 10 0, 16 17 2, 17 11 0")


def test_export_golden(capsys):
    code, out, err = run_main(capsys, "export", "--n", "2", "--lambda", "2,1",
                              "--r", "2,1", "--w", "1 2 ; 2 1", "--dot", "--json-file")
    edges = [tuple(map(int, e.split())) for e in EXPORT_EDGES.split(", ")]
    assert len(EXPORT_NODES) == 18 and len(edges) == 30
    dot = "".join(["digraph crystal {\n  rankdir=LR;\n"]
                  + [f'  {k} [label="{t}"];\n' for k, t in enumerate(EXPORT_NODES)]
                  + [f'  {s} -> {d} [label="{i}"];\n' for s, d, i in edges] + ["}\n"])
    graph = {"nodes": EXPORT_NODES,
             "edges": [{"src": s, "dst": d, "i": i} for s, d, i in edges]}
    assert (code, err) == (0, "")
    assert out == dot + json.dumps(graph) + "\n"

def test_prefixed_word_syntax(capsys):
    code, out, _ = run_main(capsys, "verify", "--n", "2", "--lambda", "2,1",
                            "--w", "1 2 1 | ; 2 1")
    assert code == 0
    assert out.startswith("OK C=")


def test_usage_errors_exit_2(capsys):
    code, _, err = run_main(capsys, "verify", "--n", "1", "--lambda", "1,2")
    assert code == 2 and "error" in err
    code, _, err = run_main(capsys, "verify", "--n", "2", "--lambda", "1",
                            "--w", "1 ; 2")
    assert code == 2
    code, _, err = run_main(capsys, "energy", "--n", "1", "--factors", "1x1",
                            "--elt", "1|2")
    assert code == 2


@pytest.mark.parametrize("w, message", [
    ("1 1 |", "factor 0: prefix (1, 1) is not reduced"),
    ("0", "factor 0: word (0,) is not below y_1 in Bruhat order"),
])
def test_invalid_words_exit_2_with_the_validation_message(capsys, w, message):
    code, out, err = run_main(capsys, "verify", "--n", "2", "--lambda", "1", "--w", w)
    assert (code, out, err) == (2, "", f"darkc: error: {message}\n")


@pytest.mark.parametrize("error", [ModelConsistencyError, RecursionError, MemoryError])
def test_internal_errors_exit_3(monkeypatch, capsys, error):
    def broken(c, r, s):
        raise error("table build failed")

    monkeypatch.setattr(kr, "_table", broken)
    code, out, err = run_main(capsys, "energy", "--n", "1", "--factors",
                              "1x1,1x1", "--elt", "1|2")
    assert code == 3 and out == ""
    assert err == f"darkc: internal error: energy: {error.__name__}: table build failed\n"


@pytest.mark.parametrize("argv, where", [
    (("verify", "--n", "2", "--lambda", "2 1", "--w", "2 1;"), "verify n=2 lambda=2,1 r=1,1"),
    (("build", "--n", "3", "--lambda", "2,1", "--r", "2,3"), "build n=3 lambda=2,1 r=2,3"),
])
@pytest.mark.parametrize("error", [ModelConsistencyError, RecursionError, MemoryError])
def test_internal_errors_name_the_spec(monkeypatch, capsys, error, argv, where):
    def broken(c, r, s):
        raise error("table build failed")

    monkeypatch.setattr(dark, "find_b_rs", broken)
    code, out, err = run_main(capsys, *argv)
    assert code == 3 and out == ""
    assert err == f"darkc: internal error: {where}: {error.__name__}: table build failed\n"


def test_missing_flag_exits_2():
    proc = run_proc("verify", "--n", "1")
    assert proc.returncode == 2


def test_unknown_command_exits_2():
    proc = run_proc("frobnicate")
    assert proc.returncode == 2


def test_verify_failure_diff_smoke(monkeypatch, capsys):
    # force a mismatch by lying about the fitted characters
    import darkc.cli as cli
    from darkc.charring import CharPoly
    from darkc.cartan import AffineWeight

    real = cli.verify_detail

    def fake(spec):
        lhs = CharPoly.monomial(AffineWeight((1, 0)))
        rhs = CharPoly.monomial(AffineWeight((0, 1)))
        return False, None, lhs, rhs

    monkeypatch.setattr(cli, "verify_detail", fake)
    code, out, err = run_main(capsys, "verify", "--n", "1", "--lambda", "1")
    assert code == 1
    assert out == "FAIL\n"
    assert "only-lhs" in err and "only-rhs" in err
    monkeypatch.setattr(cli, "verify_detail", real)


@pytest.mark.parametrize("flag, stdout", [((), "FAIL\n"),
                                          (("--json",), '{"ok": false, "C": null}\n')])
def test_verify_failure_diff_exact(monkeypatch, capsys, flag, stdout):
    # quarters of delta at n = 1; the lowest terms differ by -1/2 in delta, so
    # the lhs is shifted by -1/2 before the diff, and each side keeps one term
    # that the other lacks
    import darkc.cli as cli
    from fractions import Fraction
    from darkc.charring import CharPoly
    from darkc.cartan import AffineWeight

    def poly(*terms):
        return CharPoly({AffineWeight(lam, Fraction(d)): c for lam, d, c in terms})

    lhs = poly(((0, 1), "1/4", 1), ((1, 0), "3/4", 1), ((2, -1), "1/4", 1))
    rhs = poly(((0, 1), "-1/4", 1), ((1, 0), "1/4", 1), ((2, -1), "1/4", 2))
    monkeypatch.setattr(cli, "verify_detail", lambda spec: (False, None, lhs, rhs))
    code, out, err = run_main(capsys, "verify", "--n", "1", "--lambda", "1", *flag)
    assert code == 1
    assert out == stdout
    assert err == ("only-lhs: coef=1 lam=[2, -1] delta=-1/4\n"
                   "only-rhs: coef=2 lam=[2, -1] delta=1/4\n")
