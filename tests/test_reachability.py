"""Every top-level function, class and constant of the package is reached from somewhere."""

import ast
import re
from collections import Counter
from pathlib import Path

import maxsat_qubo

ROOT = Path(__file__).resolve().parents[1]


def _defined(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a def's or class's, or an assignment's."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name)]


def _uses(tree: ast.AST) -> Counter:
    """How often each name is read as a variable or an attribute in a tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_top_level_name_is_exported_referenced_or_benchmarked():
    """A top-level def, class or assigned name (but __all__) must be exported in __init__,
    read outside its own statement (in its own module if the name is private, anywhere in
    the package if not), or named in perfbench/ or demos/; anything else is dead code."""
    modules = [ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "src" / "maxsat_qubo").glob("*.py"))]
    outside = "\n".join(path.read_text(encoding="utf-8") for folder in ("perfbench", "demos")
                        for path in sorted((ROOT / folder).glob("*.py")))
    uses = sum(map(_uses, modules), Counter())
    unreached = []
    for tree in modules:
        local = _uses(tree)
        unreached += [name for node in tree.body for name in _defined(node)
                      if name != "__all__" and name not in maxsat_qubo.__all__
                      and (local if name.startswith("_") else uses)[name] == _uses(node)[name]
                      and not re.search(rf"\b{name}\b", outside)]
    assert unreached == []
