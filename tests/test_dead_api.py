"""Every definition in the package has a caller outside its own definition.

A function, class or method whose name appears nowhere in `src/`,
`scripts/` or `perfbench/` except where it is defined serves only its own
unit tests, so it is dead API.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ergolab"
CALLER_FILES = [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py"),
                *(ROOT / "perfbench").glob("*.py")]


def _words(text: str) -> Counter:
    """Whole-word counts: a match of rf"\\b{name}\\b" is a maximal run of word characters."""
    return Counter(re.findall(r"\w+", text))


def _definitions(tree: ast.Module):
    """Module-level functions and classes, and the methods of module-level classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds):
                    yield f"{node.name}.{item.name}", item


def test_every_definition_has_a_caller_outside_its_definition():
    everywhere = _words("\n".join(path.read_text() for path in CALLER_FILES))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        for qualname, node in _definitions(ast.parse("\n".join(lines))):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            # the definition spans its decorators, its def line and its body
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            own = _words("\n".join(lines[first - 1 : node.end_lineno]))
            if everywhere[name] == own[name]:
                dead.append(f"{path.name}:{node.lineno} {qualname}")
    assert not dead, "definitions with no caller outside their own definition:\n" + "\n".join(dead)
