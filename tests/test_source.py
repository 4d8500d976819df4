"""Source hygiene: every top-level function and class in the package is
used by the package or by the benchmark, not by tests alone, and every
name a package module imports is used by that module.

A definition counts as used when some other top-level statement names it,
as a bare name or as an attribute, in a package module other than
`__init__.py` (whose re-exports use nothing) or in a `bench/*.py` script.
The benchmark tracer names the callables it wraps in strings, so the
dotted parts of its `TARGETS` count as well.  An import counts as used
when its module names the bound name anywhere; `__init__.py` and
`from __future__` imports are exempt.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _tracer_targets(tree):
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in stmt.targets):
            return {part for c in ast.walk(stmt.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                    for part in c.value.split(".")}
    return set()


def _package(root):
    return sorted(p for p in (root / "src" / "spheremcg").glob("*.py")
                  if p.name != "__init__.py")


def unreferenced(root):
    """Names of the package's top-level definitions nothing else names."""
    package = _package(root)
    trees = {p: ast.parse(p.read_text(), str(p))
             for p in package + sorted((root / "bench").glob("*.py"))}
    targets = set().union(*(_tracer_targets(tree) for tree in trees.values()))
    found = []
    for path in package:
        used = targets.union(*(_names(tree) for p, tree in trees.items() if p != path))
        body = trees[path].body
        names = [_names(stmt) for stmt in body]
        for i, stmt in enumerate(body):
            if isinstance(stmt, DEFINITIONS) and stmt.name not in used.union(
                    *names[:i], *names[i + 1:]):
                found.append(f"{path.name}:{stmt.name}")
    return found


def unused_imports(root):
    """Names a package module imports and never names."""
    found = []
    for path in _package(root):
        tree = ast.parse(path.read_text(), str(path))
        used = _names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        found.append(f"{path.name}:{bound}")
    return found


def test_every_top_level_definition_is_referenced():
    assert unreferenced(ROOT) == []


def test_every_import_is_used():
    assert unused_imports(ROOT) == []
