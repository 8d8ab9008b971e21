"""The package holds no code that only the tests use: every module-level
function and class in src/darkc is referenced there outside its own
definition, or exported in darkc.__all__, and so is every method other than
a dunder, as an attribute.  Oracles and diagnostics that only the tests call
live in tests/oracles.py.  Every attribute that src/darkc stores on self is
read there too.  Every name in darkc.__all__ is importable, and every name a
module imports is read in that module."""

import ast
from collections import defaultdict
from pathlib import Path

import darkc


def _unused_names(src: Path, exported) -> list[str]:
    """module.name of each module-level def or class of the .py files in src
    that is not in exported and that no Name or Attribute outside its own
    definition refers to, and module.Class.name of each method of those
    classes other than a dunder that no Attribute outside its own definition
    refers to: a bare Name is a local variable or a module-level function,
    never a method.  Imports are not references."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    names, attributes = defaultdict(list), defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names[node.id].append(node)
            elif isinstance(node, ast.Attribute):
                attributes[node.attr].append(node)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [] if node.name in exported else [
                (f"{module}.{node.name}", node, names[node.name] + attributes[node.name])]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{module}.{node.name}.{d.name}", d, attributes[d.name])
                         for d in node.body if isinstance(d, ast.FunctionDef)
                         and not (d.name.startswith("__") and d.name.endswith("__"))]
            for name, d, uses in defs:
                own = set(map(id, ast.walk(d)))
                if all(id(use) in own for use in uses):
                    unused.append(name)
    return unused


def _unread_attributes(src: Path) -> list[str]:
    """module.Class.name of each attribute that a class of the .py files in
    src assigns as self.<name> and that no Attribute in them loads: stored,
    never read."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = set()
    for module, tree in trees.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                unread.update(f"{module}.{cls.name}.{node.attr}" for node in ast.walk(cls)
                              if isinstance(node, ast.Attribute)
                              and isinstance(node.ctx, ast.Store)
                              and isinstance(node.value, ast.Name) and node.value.id == "self"
                              and node.attr not in loaded)
    return sorted(unread)


def _unused_imports(src: Path, exported) -> list[str]:
    """module.name of each name that a .py file of src imports and that no
    Name in the same file loads.  `from __future__ import annotations` is
    exempt, and so are the names in exported when __init__.py imports them."""
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exempt = {"annotations"} | (set(exported) if path.stem == "__init__" else set())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                # `import a.b` binds and is read as the name a
                bound = ((alias.asname or alias.name).split(".")[0] for alias in node.names)
                unused += [f"{path.stem}.{name}" for name in bound
                           if name not in loaded and name not in exempt]
    return unused


def test_every_module_level_name_is_used_in_src_or_exported():
    assert _unused_names(Path(darkc.__file__).resolve().parent, darkc.__all__) == []


def test_every_stored_attribute_is_read_in_src():
    assert _unread_attributes(Path(darkc.__file__).resolve().parent) == []


def test_every_imported_name_is_read_in_its_module():
    assert _unused_imports(Path(darkc.__file__).resolve().parent, darkc.__all__) == []


def test_every_exported_name_is_defined():
    # a name left in __all__ after its import went breaks `from darkc import *`
    assert [name for name in darkc.__all__ if not hasattr(darkc, name)] == []


def test_the_scan_sees_a_name_that_only_its_own_body_uses(tmp_path):
    (tmp_path / "a.py").write_text(
        "def loop(n):\n    return loop(n - 1) if n else 0\n\n\n"
        "def used():\n    return 1\n\n\n"
        "class Exported:\n    pass\n")
    (tmp_path / "b.py").write_text("from a import loop, used\n\nX = used()\n")
    assert _unused_names(tmp_path, ["Exported"]) == ["a.loop"]


def test_the_scan_sees_a_method_that_nothing_outside_it_calls(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Exported:\n"
        "    def __init__(self):\n        self.x = 1\n\n"
        "    def read(self):\n        return self.x\n\n"
        "    def spare(self, n):\n        return self.spare(n - 1) if n else self.x\n")
    (tmp_path / "b.py").write_text("from a import Exported\n\nX = Exported().read()\n")
    assert _unused_names(tmp_path, ["Exported"]) == ["a.Exported.spare"]


def test_a_local_variable_is_no_use_of_a_method(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Exported:\n"
        "    def one(self):\n        return 1\n\n"
        "    def level(self):\n        return 0\n\n\n"
        "def used():\n    one = 1\n    return one + Exported().level()\n")
    (tmp_path / "b.py").write_text("from a import used\n\nX = used()\n")
    assert _unused_names(tmp_path, ["Exported"]) == ["a.Exported.one"]


def test_the_scan_sees_an_attribute_that_nothing_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Exported:\n"
        "    def __init__(self, n):\n        self.n, self.spare = n, n\n        self.kept = n\n\n"
        "    def twice(self):\n        return 2 * self.n\n")
    (tmp_path / "b.py").write_text("from a import Exported\n\nX = Exported(1).kept\n")
    assert _unread_attributes(tmp_path) == ["a.Exported.spare"]


def test_the_scan_sees_an_import_that_its_module_never_reads(tmp_path):
    (tmp_path / "__init__.py").write_text("from a import Exported, helper\n")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\n"
        "from operator import itemgetter, mul\n\n\n"
        "def helper(xs) -> int:\n    return sum(map(mul, xs, xs)) + len(os.path.sep)\n\n\n"
        "class Exported:\n    pass\n")
    assert _unused_imports(tmp_path, ["Exported"]) == ["__init__.helper", "a.itemgetter"]
