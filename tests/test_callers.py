"""Every function, class, method and module-level assigned name in
``src/pbts`` has a caller in the program: the package itself, ``scripts`` or
``perfbench``.  A definition that only tests reach is code with no caller, and
goes.

A reference is a name or an attribute that is read (an assignment reads
nothing), or a string constant (or any dotted part of one), since the
benchmark's tracer names its targets as strings such as
``"Tracker.report_batch"``.  Dunder names are read by the language and are not
checked."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pbts"
CALLERS = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _definitions():
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    for path, tree in _trees(PACKAGE):
        where = path.relative_to(ROOT)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and not name.id.startswith("__"):
                            yield f"{where}:{name.id}", name.id
            if not isinstance(node, defs):
                continue
            yield f"{where}:{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, defs) and not (
                            member.name.startswith("__") and member.name.endswith("__")):
                        yield f"{where}:{node.name}.{member.name}", member.name


def _references() -> set:
    names = set()
    for _, tree in _trees(*CALLERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(node.value.split("."))
    return names


def test_every_definition_has_a_caller():
    refs = _references()
    uncalled = [where for where, name in _definitions() if name not in refs]
    assert uncalled == []
