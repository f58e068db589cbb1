"""Every name a package module imports is used in that module, and every
top-level name the package defines is read by the program itself."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "neodeflect"
# the program: the package, its scripts and the benchmark
PROGRAM = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def top_level_names(source: str) -> dict[str, int]:
    """Functions, classes and constants a module binds at its top level."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names[leaf.id] = node.lineno
    return names


def read_names(source: str) -> set[str]:
    """Names a module reads: loaded names, attributes, imported names and
    strings (the benchmark's tracer names its wrap points in strings)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def unread_names(definitions: str, program: list[str]) -> list[str]:
    """Top-level names of ``definitions`` that no module of ``program`` reads."""
    read = set().union(*(read_names(source) for source in program))
    return [f"{name} (line {line})" for name, line in
            sorted(top_level_names(definitions).items()) if name not in read]


def test_detector_flags_only_unread_names():
    source = "import os\nimport math as m\nfrom a import b, c\nprint(m.pi, c)\n"
    assert unused_imports(source) == ["b (line 3)", "os (line 1)"]
    definitions = ("A = 1\nB, C = 2, 3\nclass K: pass\n"
                   "def f(): return A\ndef g(): pass\n")
    program = [definitions, "from m import K\nprint(m.C)\n"]
    assert unread_names(definitions, program) == ["B (line 2)", "f (line 4)", "g (line 5)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_top_level_name_is_read_by_the_program(path):
    program = [p.read_text() for d in PROGRAM for p in sorted(d.rglob("*.py"))]
    assert unread_names(path.read_text(), program) == []
