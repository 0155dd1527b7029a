"""Every top-level function and class of the package is reached from somewhere."""

import ast
import re
from collections import Counter
from pathlib import Path

import maxsat_qubo

ROOT = Path(__file__).resolve().parents[1]


def _uses(tree: ast.AST) -> Counter:
    """How often each name is read as a variable or an attribute in a tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_top_level_name_is_exported_referenced_or_benchmarked():
    """A top-level def or class must be exported in __init__, referenced outside its own
    body in the package, or named in perfbench/ or demos/; anything else is dead code."""
    modules = [ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "src" / "maxsat_qubo").glob("*.py"))]
    outside = "\n".join(path.read_text(encoding="utf-8") for folder in ("perfbench", "demos")
                        for path in sorted((ROOT / folder).glob("*.py")))
    uses = sum(map(_uses, modules), Counter())
    unreached = [node.name for tree in modules for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and node.name not in maxsat_qubo.__all__
                 and uses[node.name] == _uses(node)[node.name]
                 and not re.search(rf"\b{node.name}\b", outside)]
    assert unreached == []
