"""The package holds no code that only the tests use: every module-level
function and class in src/darkc is referenced there outside its own
definition, or exported in darkc.__all__.  Oracles and diagnostics that only
the tests call live in tests/oracles.py."""

import ast
from collections import defaultdict
from pathlib import Path

import darkc


def _unused_names(src: Path, exported) -> list[str]:
    """module.name of each module-level def or class of the .py files in src
    that no Name or Attribute outside its own definition refers to, and that
    is not in exported.  Imports are not references."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    uses = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].append(node)
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append(node)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = set(map(id, ast.walk(node)))
            if node.name not in exported and all(id(use) in own for use in uses[node.name]):
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_module_level_name_is_used_in_src_or_exported():
    assert _unused_names(Path(darkc.__file__).resolve().parent, darkc.__all__) == []


def test_the_scan_sees_a_name_that_only_its_own_body_uses(tmp_path):
    (tmp_path / "a.py").write_text(
        "def loop(n):\n    return loop(n - 1) if n else 0\n\n\n"
        "def used():\n    return 1\n\n\n"
        "class Exported:\n    pass\n")
    (tmp_path / "b.py").write_text("from a import loop, used\n\nX = used()\n")
    assert _unused_names(tmp_path, ["Exported"]) == ["a.loop"]
