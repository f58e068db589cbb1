#!/usr/bin/env python3
"""Size of the package's API: source lines, public names and defaults.

    python3 scripts/api_counts.py TREE

reads every ``*.py`` file under TREE/src/ and prints four counts, one
``name value`` line each:

- ``lines``: the lines of those files;
- ``public_names``: public module-level names (functions, classes and
  assigned names not starting with ``_``), public methods and dunder
  methods other than ``__init__`` and ``__post_init__``, and public
  annotated class fields;
- ``defaulted_parameters``: parameters of functions, methods and lambdas
  that have a default;
- ``defaulted_fields``: annotated fields of ``@dataclass`` classes that
  have a default or a ``field(...)`` value.

Imports are no names of the module that imports them. Compare two trees by
running the script on each.
"""
import ast
import sys
from pathlib import Path

_HIDDEN_DUNDERS = frozenset({"__init__", "__post_init__"})


def _public(name: str) -> bool:
    return not name.startswith("_")


def _targets(node: ast.stmt) -> list[str]:
    """The plain names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    elif isinstance(node, ast.Assign):
        targets = node.targets
    else:
        return []
    names = []
    for target in targets:
        names += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return names


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def count_module(source: str) -> dict:
    """The four counts of one module's source."""
    tree = ast.parse(source)
    public = sum(_public(name) for node in tree.body for name in _targets(node))
    defaulted_fields = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        dataclass = _is_dataclass(node)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dunder = item.name.startswith("__") and item.name.endswith("__")
                public += (_public(item.name)
                           or (dunder and item.name not in _HIDDEN_DUNDERS))
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                public += _public(item.target.id)
                defaulted_fields += dataclass and item.value is not None
    defaulted_parameters = sum(
        len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))
    return {"lines": len(source.splitlines()), "public_names": public,
            "defaulted_parameters": defaulted_parameters,
            "defaulted_fields": defaulted_fields}


def count_tree(tree: Path) -> dict:
    """The four counts summed over every module under ``tree/src``."""
    total = dict.fromkeys(("lines", "public_names", "defaulted_parameters",
                           "defaulted_fields"), 0)
    for path in sorted((tree / "src").rglob("*.py")):
        for name, value in count_module(path.read_text()).items():
            total[name] += value
    return total


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    for name, value in count_tree(Path(argv[0])).items():
        print(name, value)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
