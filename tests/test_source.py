"""Source hygiene: every top-level function and class in the package is
used by the package or by the benchmark, not by tests alone.

A definition counts as used when some other top-level statement names it,
as a bare name or as an attribute, in a package module other than
`__init__.py` (whose re-exports use nothing) or in a `bench/*.py` script.
The benchmark tracer names the callables it wraps in strings, so the
dotted parts of its `TARGETS` count as well.
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


def unreferenced(root):
    """Names of the package's top-level definitions nothing else names."""
    package = sorted(p for p in (root / "src" / "spheremcg").glob("*.py")
                     if p.name != "__init__.py")
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


def test_every_top_level_definition_is_referenced():
    assert unreferenced(ROOT) == []
