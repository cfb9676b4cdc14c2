"""Every definition in the package has a caller, and every import a use.

A module-level function or class, or a method of a module-level class,
counts as used only when its name is referenced in code outside its own
body: in `src/ergolab/*.py` other than `__init__.py`, in `scripts/`, or in
`perfbench/`. A reference is a `Name` or an `Attribute` that is read, or a
name imported by `from ... import`; a method counts through attributes only.
perfbench's tracer binds functions by name, so there an identifier-shaped
string counts as well. Docstrings, comments and other strings never count.

The guard matches names, not objects, so a method escapes it when any other
attribute of that name is read: `GroupHom.kernel` had no caller, but escaped
through perfbench's `calibrate.kernel`.

A module-level import that nothing else in its module references is unused
too. `__init__.py`, which imports to re-export, and `from __future__` imports
are exempt.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "ergolab").glob("*.py") if p.name != "__init__.py")
CALLER_FILES = [*MODULES, *sorted((ROOT / "scripts").glob("*.py")),
                *sorted((ROOT / "perfbench").glob("*.py"))]
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree: ast.Module) -> set[int]:
    """The ids of the string constants that are docstrings."""
    owners = [tree, *(n for n in ast.walk(tree) if isinstance(n, DEFINITION))]
    return {
        id(owner.body[0].value)
        for owner in owners
        if owner.body and isinstance(owner.body[0], ast.Expr)
        and isinstance(owner.body[0].value, ast.Constant)
    }


def _references(path: Path):
    """(name, line, through_attribute) for each reference in one file."""
    tree = ast.parse(path.read_text())
    strings_count = path.parent.name == "perfbench"
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno, False) for alias in node.names)
        elif (strings_count and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings and IDENTIFIER.fullmatch(node.value)):
            yield node.value, node.lineno, True


def _definitions(tree: ast.Module):
    """(qualified name, node, is_method) for module-level definitions and their methods."""
    for node in tree.body:
        if isinstance(node, DEFINITION):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFINITION):
                    yield f"{node.name}.{item.name}", item, True


def test_every_definition_has_a_caller_outside_its_definition():
    references = defaultdict(list)
    for path in CALLER_FILES:
        for name, line, through_attribute in _references(path):
            references[name].append((path, line, through_attribute))
    dead = []
    for path in MODULES:
        for qualname, node, is_method in _definitions(ast.parse(path.read_text())):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            # the body spans the decorators, the def line and the block
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            if not any(
                (through_attribute or not is_method)
                and not (where == path and first <= line <= node.end_lineno)
                for where, line, through_attribute in references[name]
            ):
                dead.append(f"{path.name}:{node.lineno} {qualname}")
    assert not dead, "definitions with no caller outside their own body:\n" + "\n".join(dead)


def test_every_module_level_import_is_used_in_its_module():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{path.name}:{node.lineno} {alias.name}")
    assert not unused, "imports nothing in their module uses:\n" + "\n".join(unused)
