"""Every import and every definition in the package is used.

An ``ast`` scan of each non-``__init__`` module under ``src/repro``: a
name a module imports but never loads is dead code, and it hides which
modules really depend on each other.  Names inside string annotations
and names listed in ``__all__`` count as loads; ``__future__`` imports
are exempt.  ``__init__`` modules are skipped, because their imports
are the package's re-exports.

A second scan finds functions, methods and classes that nothing names:
a definition under ``src/repro`` whose name appears nowhere else in the
repository's Python code (strings and comments included, so names
looked up by ``getattr`` or wrapped by name still count) is a helper
no caller reaches.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: Where a use of a ``src/repro`` definition may live.
USE_DIRS = ("src", "tests", "benchmarks", "examples", "perfbench")


def _string_annotation_names(annotation: ast.AST):
    """Names inside the string parts of an annotation (``"Program"``,
    ``Optional["Program"]``); plain names are ``ast.Name`` nodes the
    module walk already sees."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from (name.id for name in ast.walk(parsed)
                        if isinstance(name, ast.Name))


def _loaded_names(tree: ast.Module):
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            loaded.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and \
                node.annotation is not None:
            loaded.update(_string_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            loaded.update(_string_annotation_names(node.returns))
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            loaded.update(element.value for element in ast.walk(node.value)
                          if isinstance(element, ast.Constant))
    return loaded


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or \
                    alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        loaded = _loaded_names(tree)
        unused.extend(f"{path.relative_to(SRC)}:{line}: {name}"
                      for line, name in _imported_names(tree)
                      if name not in loaded)
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _definitions(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and not (
                node.name.startswith("__") and node.name.endswith("__")):
            yield node.lineno, node.name


def test_every_definition_is_named_somewhere_else():
    root = Path(__file__).resolve().parent.parent
    words: Counter = Counter()
    for directory in USE_DIRS:
        for path in (root / directory).rglob("*.py"):
            words.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*",
                                    path.read_text()))
    sites = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, name in _definitions(tree):
            sites.setdefault(name, []).append(
                f"{path.relative_to(SRC)}:{line}: {name}")
    unused = [site for name, where in sorted(sites.items())
              if words[name] <= len(where) for site in where]
    assert not unused, "definitions nothing names:\n" + "\n".join(unused)
