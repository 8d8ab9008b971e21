"""Command-line front end.

Exit codes: 0 on success (including a verified identity), 1 when verify finds
a mismatch, 2 on usage errors, 3 on an internal failure (ModelConsistencyError,
RecursionError or MemoryError), which prints one line naming the subcommand
and, for build, verify, char and export, the spec's n, lambda and r.
All output is deterministic; rationals print as reduced fraction strings.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cartan import CartanA
from .charring import char_to_json
from .crystal import ModelConsistencyError, ProductTable, graph_dot, graph_json, labels
from .dark import (DarkSpec, FactorWord, _build, dark_to_json, lhs_character,
                   rhs_character, validate, verify_detail)
from .energy import pair_energies, total_D
from .kr import parse_tensor
from .selftest import CRITERIA, run_all
from .weyl import kr_translation_data, reduced_word


def _ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.replace(",", " ").split())


def _parse_factor_word(segment: str) -> FactorWord:
    if "|" in segment:
        left, right = segment.split("|", 1)
        return FactorWord(_ints(left), _ints(right))
    return FactorWord((), _ints(segment))


def _spec_from_args(args) -> DarkSpec:
    lam = _ints(args.lam)
    if not lam:
        raise ValueError("--lambda must list at least one part")
    p = len(lam)
    r = _ints(args.r) if args.r else (1,) * p
    if len(r) != p:
        raise ValueError(f"--r lists {len(r)} nodes for {p} factors")
    if args.w is None:
        words = (FactorWord(),) * p
    else:
        segments = args.w.split(";")
        if len(segments) != p:
            raise ValueError(f"--w lists {len(segments)} words for {p} factors")
        words = tuple(_parse_factor_word(seg) for seg in segments)
    return DarkSpec(CartanA(args.n), lam, r, words)


def _add_spec_flags(sub):
    sub.add_argument("--n", type=int, required=True, help="rank n of A_n^(1)")
    sub.add_argument("--lambda", dest="lam", required=True,
                     help="weakly decreasing parts, e.g. 3,2,1")
    sub.add_argument("--r", default=None,
                     help="factor nodes r_1,...,r_p (default: all 1)")
    sub.add_argument("--w", default=None,
                     help="semicolon-separated words, letters space-separated; "
                          "empty segment = identity; 'v | w' marks a classical "
                          "prefix, e.g. \"2 1 ; 1 ; \" or \"1 2 1 | ; 1\"")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def _elements(args):
    """The DARK set of the spec, built without D, which build and export never print."""
    spec = _spec_from_args(args)
    validate(spec)
    return _build(spec, None)


def _cmd_build(args) -> int:
    dark = _elements(args)
    if args.json:
        print(json.dumps(dark_to_json(dark), sort_keys=True))
    else:
        print(f"size={len(dark)}")
        for text in labels(dark.product, sorted(dark.energies)):
            print(text)
    return 0


def _cmd_char(args) -> int:
    spec = _spec_from_args(args)
    validate(spec)
    if args.side == "rhs":
        poly = rhs_character(spec)
    else:
        poly = lhs_character(spec, _build(spec, total_D))
    print(json.dumps(char_to_json(poly)))
    return 0


def _cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    ok, shift, lhs, rhs = verify_detail(spec)
    if args.json:
        print(json.dumps({"ok": ok, "C": None if shift is None else str(shift)}))
    elif ok:
        print(f"OK C={shift}")
    else:
        print("FAIL")
    if not ok:
        # best-effort alignment so the diff shows the real discrepancies
        if lhs and rhs and min(lhs.terms).lam == min(rhs.terms).lam:
            lhs = lhs.shifted(min(rhs.terms) - min(lhs.terms))  # a multiple of delta
        lset, rset = set(lhs.terms.items()), set(rhs.terms.items())
        for side, extra in (("lhs", lset - rset), ("rhs", rset - lset)):
            for mu, coef in sorted(extra):
                print(f"only-{side}: coef={coef} lam={list(mu.lam)} delta={mu.dlt}",
                      file=sys.stderr)
        return 1
    return 0


def _cmd_export(args) -> int:
    dark = _elements(args)
    json_path = args.json_path
    if args.json and json_path is None:
        json_path = "-"
    if not args.dot and not json_path:
        raise ValueError("export needs --dot and/or --json-file")

    def emit(path, text):
        if path == "-":
            sys.stdout.write(text)
        else:
            with open(path, "w") as handle:
                handle.write(text)

    if args.dot:
        emit(args.dot, graph_dot(dark.product, dark.energies))
    if json_path:
        emit(json_path, json.dumps(graph_json(dark.product, dark.energies)) + "\n")
    return 0


def _cmd_weyl_factor(args) -> int:
    c = CartanA(args.n)
    y, tau = kr_translation_data(c, args.r)
    word = reduced_word(y)
    if args.json:
        print(json.dumps({"y": list(word), "tau": tau}))
    else:
        print(f"y=[{' '.join(str(i) for i in word)}] tau=rot+{tau}")
    return 0


def _cmd_energy(args) -> int:
    c = CartanA(args.n)
    shapes = []
    for part in args.factors.split(","):
        r, _, s = part.strip().partition("x")
        shapes.append((int(r), int(s)))
    x = parse_tensor(c, args.elt)
    if len(x.factors) != len(shapes):
        raise ValueError(f"--elt has {len(x.factors)} factors for "
                         f"{len(shapes)} shapes")
    for b, (r, s) in zip(x.factors, shapes):
        if b.shape != (r, s):
            raise ValueError(f"factor {b.text()} does not have shape {r}x{s}")
    space = ProductTable.of(b.table for b in x.factors)
    code = space.code(x)
    pairs = [(i + 1, j + 1, h) for i, j, h in pair_energies(space, code)]
    d = total_D(space, code)
    if args.json:
        print(json.dumps({"D": d,
                          "pairs": [{"i": i, "j": j, "H": h} for i, j, h in pairs]}))
    else:
        for i, j, h in pairs:
            print(f"H[{i},{j}]={h}")
        print(f"D={d}")
    return 0


def _cmd_selftest(args) -> int:
    if args.json:
        results = []
        ok = True
        for name, fn in CRITERIA:
            try:
                fn()
                results.append({"name": name, "ok": True})
            except AssertionError as exc:
                ok = False
                results.append({"name": name, "ok": False, "detail": str(exc)})
        print(json.dumps({"ok": ok, "criteria": results}))
        return 0 if ok else 1
    return 0 if run_all(sys.stdout.write) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darkc",
        description="DARK crystals in affine type A: build Demazure-closed "
                    "subsets of KR tensor products and verify their "
                    "energy-graded character identity, exactly.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("build", help="build a DARK set and list its elements")
    _add_spec_flags(sub)
    sub.set_defaults(fn=_cmd_build)

    sub = subs.add_parser("char", help="emit a character as CharPoly JSON")
    _add_spec_flags(sub)
    sub.add_argument("--side", choices=("lhs", "rhs"), default="rhs",
                     help="energy-adjusted crystal side or operator formula side")
    sub.set_defaults(fn=_cmd_char)

    sub = subs.add_parser("verify", help="check the character identity")
    _add_spec_flags(sub)
    sub.set_defaults(fn=_cmd_verify)

    sub = subs.add_parser("export", help="write the crystal graph of the set")
    _add_spec_flags(sub)
    sub.add_argument("--dot", nargs="?", const="-", default=None,
                     help="DOT output path (default stdout)")
    sub.add_argument("--json-file", dest="json_path", nargs="?", const="-",
                     default=None, help="graph JSON output path (default stdout)")
    sub.set_defaults(fn=_cmd_export)

    weyl = subs.add_parser("weyl", help="Weyl group utilities")
    wsubs = weyl.add_subparsers(dest="weyl_command", required=True)
    sub = wsubs.add_parser("factor",
                           help="factor the KR translation as y times a rotation")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(fn=_cmd_weyl_factor)

    sub = subs.add_parser("energy", help="energy of a tensor element")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--factors", required=True,
                     help="factor shapes r1xs1,r2xs2,...")
    sub.add_argument("--elt", required=True,
                     help="tensor element, factor texts joined by '|'")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(fn=_cmd_energy)

    sub = subs.add_parser("selftest", help="run the acceptance grid")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, IndexError) as exc:
        print(f"darkc: error: {exc}", file=sys.stderr)
        return 2
    except (ModelConsistencyError, RecursionError, MemoryError, OverflowError) as exc:
        where = args.command
        if hasattr(args, "lam"):  # build, verify, char and export take a spec
            spec = _spec_from_args(args)
            lam, r = (",".join(map(str, parts)) for parts in (spec.lam, spec.r))
            where += f" n={args.n} lambda={lam} r={r}"
        print(f"darkc: internal error: {where}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
