"""A guard against dead definitions in the package.

Every top-level function and class in src/padictrees, and every public
method of such a class, must be named by code somewhere in src/, tests/,
demos/ or perfbench/ outside its own body.  A name inside a string literal
(a docstring, an export table) or a comment does not count, and neither
does an import that only binds it.  Dunder names are called by the
interpreter, and a method that overrides one of a base class from outside
the package (argparse's error hook) is called through that base; neither
is checked.

The guard catches fully dead code only.  A definition that only tests,
demos or the benchmark reach passes it; which of those were kept (as an
oracle for another route, a local view from the paper, or a benchmark or
demo entry point) and which were deleted is decided by review and recorded
in CHANGES.md.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "padictrees"
SEARCHED = ("src", "tests", "demos", "perfbench")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """Each top-level function or class, and each public method of a
    top-level class, as (name, node, name of the class or None)."""
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        yield node.name, node, None
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, _DEFS) and not sub.name.startswith("_"):
                    yield sub.name, sub, node.name


def _overrides_a_foreign_method(path, owner, name):
    """Whether the method overrides one that a base class from outside the
    package defines."""
    module = "padictrees" if path.stem == "__init__" else f"padictrees.{path.stem}"
    cls = getattr(importlib.import_module(module), owner)
    return any(
        name in vars(base)
        for base in cls.__mro__[1:]
        if not base.__module__.startswith("padictrees")
    )


def _uses(tree):
    """(name, line) of every variable and attribute that the code names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_definition_is_named_outside_its_body():
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    uses = {}
    for path, tree in trees.items():
        for name, line in _uses(tree):
            uses.setdefault(name, []).append((path, line))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node, owner in _definitions(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue
            body = range(node.lineno, node.end_lineno + 1)
            if all(where == path and line in body for where, line in uses.get(name, ())):
                if owner is None or not _overrides_a_foreign_method(path, owner, name):
                    dead.append(f"{path.name}:{node.lineno} {name}")
    assert not dead, "nothing names " + ", ".join(dead)
