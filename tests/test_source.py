"""Source hygiene: every top-level function and class in the package is
used by the package or by the benchmark, not by tests alone, and every
name a package module imports is used by that module.

A definition counts as used when some other top-level statement names it,
as a bare name or as an attribute, in a package module other than
`__init__.py` or in a `bench/*.py` script.
The benchmark tracer names the callables it wraps in strings, so the
dotted parts of its `TARGETS` count as well, and each of those targets
must exist, since a traced benchmark run looks every one of them up.  An
import counts as used when its module names the bound name anywhere;
`__init__.py` and `from __future__` imports are exempt.

The package namespace re-exports nothing: `__init__.py` holds only its
docstring, so importing one module loads only what that module imports,
and `import spheremcg.action` loads neither the enumerator nor the
harness nor the CLI.

No package module imports `dataclasses`: the result types are
`typing.NamedTuple`s, so `import spheremcg.cli`, which loads every
module, adds neither `dataclasses` nor the `inspect` it pulls in to the
modules a bare interpreter loads.  Those two were the largest import
cost on the oracle path.

The puncture-range refusal (the `need n ...` messages) is written in one
package function, which every caller goes through.

A parse error is mapped to its exit code in `cli.main` alone.  Every
other refused input, a `ValueError`, is mapped to the usage exit in
`cli.main` alone too.  Within the harness, the suite range refusal is
written in `_Recorder` alone, which every suite builds, and the CLI
does not restate it.  `full_report` is the one builder of a report for
any `--suite` token, so the refusals of a missing or an unwanted `--n`
are written there alone.

No helper of `cli.py` writes a usage error itself: `cmd_verify` raises
its `--out` refusals as `ValueError`s for `main` to map, so `_Parser`,
for argparse's own refusals, and `main` are the only definitions there
that name `USAGE_EXIT`.

The harness builds no flattened power: it writes powers as factors of
the product path, so `words.power` is left to the expression parser.
`_gen_auts` is the one `lru_cache` in `action.py`, so the factor cache of
the product path lives only as long as the suite run that owns it.
`_layout` is the one in `coset.py`, so the cycle records the deduction
pass reads are built once per presentation, never once per enumeration.

No package function returns an exception instance for its caller to
raise.  A cached validation raises its refusal, which `lru_cache` does
not keep, so `_gen_auts` is a plain cache, with `lru_cache` its one
decorator, as `homs._pgl2_gens` is.

The coset table grows in `_Enumerator.define` alone, by one blank row
appended in place (`table += blank_row`): no `*=` doubles it, so it
holds exactly one row per defined coset and no stale copies.

`_peel` is called only by `_evaluate` and `compose`, so every automorphism
the package builds is normalized by one of the two.

`FreeAut` is built only by `_evaluate` and `compose` too, so no caller
rewraps the images of an automorphism with its carried conjugator
dropped: every power, an order's included, is an exact product of
`compose`.

`word_to_aut` alone moves a word's reflections to its right end
(`_reflections_last`), and neither `_gen_auts` nor its sparse check
`_sparse_identity` reaches it, directly or through other functions of
`action.py`: the relator validation is the check that rewrite rests on,
so it is never made through the rewrite.

The words known to generate a presented group (the `spanning` field of
a presentation) are written in `build_presentation` alone: no other
package code builds a `Presentation` or passes that field.  The
enumerator's index-1 close, `_IndexOne`, is raised in one place only,
in `_Enumerator.coincide`, guarded by the spanning check `spans_base`.
So an index-1 result rests on those words generating the group, which
the presentation tests derive from the relators.

The prefix-reflection loop is written once, in `_prefix_reflect`, the
one caller of its cancellation helper `_common_prefix`.  `_evaluate`
and `_gen_auts`, which records the run the validation resumes, are its
only callers, so the validation and `word_to_aut` read one statement of
the reflection.

Free reduction is written in `words.reduce`, `action._mul` and the
`_apply` kernel alone: no function of `action.py` cancels letters on a
list with `.pop`.  The carried conjugator is a word that `_peel` merges
with each peeled one through `_mul`, in `_evaluate` and `compose`
alike.

`_reflections_last` only flips the signs of the twist letters and drops
the reflections; it leaves the cancellation to `reduce`, so the rewrite
states no reduction rule of its own.

The half-twist formulas are written once, in `_half_twist`, which
`_evaluate` and `_sparse_identity` both call and neither restates: neither
multiplies words itself with `_mul`.  So the sparse check of the far
relators reads the same step as every other evaluation.

Every finite quotient is checked against the relators by one function,
`homs.validate_hom`, which takes the quotient's image map: the perm and
psi rows of `verify_presentation` and the PGL2 generators of
`homs._pgl2_gens` are its only callers, and no other definition of
`homs.py` reads a presentation's labels and relators, so the rule that
a quotient kills every relator is written once.

The fields of a check result are exactly the keys a JSON report writes
per row, so no field the report leaves out can steer a verdict or an
exit code.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

from spheremcg.harness import CheckResult, Report

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _targets(tree):
    """The value of a module's top-level TARGETS assignment, or None."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in stmt.targets):
            return stmt.value
    return None


def _tracer_targets(tree):
    value = _targets(tree)
    if value is None:
        return set()
    return {part for c in ast.walk(value)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)
            for part in c.value.split(".")}


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


def missing_tracer_targets(root):
    """The `module.attr` and `module.Class.method` entries of the tracer's
    TARGETS that the package does not define; the tracer reads each one as
    `vars(owner)[attr]`."""
    tracer = ast.parse((root / "bench" / "tracer.py").read_text())
    targets = ast.literal_eval(_targets(tracer))
    assert targets
    missing = []
    for module, attr in targets:
        owner = importlib.import_module(f"spheremcg.{module}")
        for part in attr.split("."):
            owner = vars(owner).get(part) if owner is not None else None
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    return missing


def range_refusals(root):
    """The top-level definition holding each `need n` message, per message."""
    found = []
    for path in _package(root):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, DEFINITIONS):
                found += [f"{path.name}:{stmt.name}" for node in ast.walk(stmt)
                          if isinstance(node, ast.Constant) and isinstance(node.value, str)
                          and node.value.startswith("need n ")]
    return found


def test_every_top_level_definition_is_referenced():
    assert unreferenced(ROOT) == []


def test_every_import_is_used():
    assert unused_imports(ROOT) == []


def test_every_tracer_target_exists():
    assert missing_tracer_targets(ROOT) == []


def test_puncture_range_is_refused_in_one_place():
    assert len(set(range_refusals(ROOT))) == 1


def called_names_in(tree):
    """The names a syntax tree calls, bare or as an attribute."""
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def called_names(path):
    """The names a module calls, bare or as an attribute."""
    return called_names_in(ast.parse(path.read_text(), str(path)))


def cached_definitions(path):
    """The top-level functions of a module decorated with a cache."""
    tree = ast.parse(path.read_text(), str(path))
    return [stmt.name for stmt in tree.body if isinstance(stmt, DEFINITIONS)
            and any(_names(d) & {"lru_cache", "cache"} for d in stmt.decorator_list)]


def test_harness_builds_no_flattened_power():
    assert "power" not in called_names(ROOT / "src" / "spheremcg" / "harness.py")


def test_generator_table_is_the_one_cache_in_action():
    assert cached_definitions(ROOT / "src" / "spheremcg" / "action.py") == ["_gen_auts"]


def test_layout_is_the_one_cache_in_coset():
    assert cached_definitions(ROOT / "src" / "spheremcg" / "coset.py") == ["_layout"]


def returned_exceptions(root):
    """The package functions, as module:function, with a `return` of a
    call to a name ending in `Error`."""
    found = []
    for path in sorted((root / "src" / "spheremcg").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(node, ast.Return) and isinstance(node.value, ast.Call)
                    and ast.unparse(node.value.func).endswith("Error")
                    for node in ast.walk(fn)):
                found.append(f"{path.name}:{fn.name}")
    return found


def test_cached_validations_raise_their_refusals():
    assert returned_exceptions(ROOT) == []
    tree = ast.parse((ROOT / "src" / "spheremcg" / "action.py").read_text())
    gen_auts, = [stmt for stmt in tree.body
                 if isinstance(stmt, ast.FunctionDef) and stmt.name == "_gen_auts"]
    assert [_names(d) for d in gen_auts.decorator_list] == [{"lru_cache"}]


GROWING_METHODS = {"append", "extend", "insert", "fromlist", "frombytes", "fromfile"}


def table_growths(path):
    """Each statement of a module that may enlarge a `table`, bare or as
    an attribute: the definition holding it, as Class.method, and the
    operator or method name."""
    found = []
    for stmt in ast.parse(path.read_text(), str(path)).body:
        if not isinstance(stmt, DEFINITIONS):
            continue
        members = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
        for fn in (m for m in members if isinstance(m, DEFINITIONS)):
            owner = stmt.name if fn is stmt else f"{stmt.name}.{fn.name}"
            for node in ast.walk(fn):
                if isinstance(node, ast.AugAssign) and "table" in _names(node.target):
                    found.append((owner, type(node.op).__name__))
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr in GROWING_METHODS
                      and "table" in _names(node.func.value)):
                    found.append((owner, node.func.attr))
    return found


def test_define_alone_grows_the_coset_table_by_rows():
    # one blank row per definition, appended in place: no doubling
    assert table_growths(ROOT / "src" / "spheremcg" / "coset.py") == [("_Enumerator.define", "Add")]


def callers(root, name):
    """The top-level definitions of the package that call the name."""
    found = []
    for path in _package(root):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, DEFINITIONS) and name in called_names_in(stmt):
                found.append(f"{path.name}:{stmt.name}")
    return found


def test_peel_is_called_by_evaluate_and_compose_alone():
    assert callers(ROOT, "_peel") == ["action.py:_evaluate", "action.py:compose"]


def test_free_aut_is_built_by_evaluate_and_compose_alone():
    assert callers(ROOT, "FreeAut") == ["action.py:_evaluate", "action.py:compose"]


def definition(path, name):
    """The top-level definition of the name in a module."""
    (stmt,) = [stmt for stmt in ast.parse(path.read_text(), str(path)).body
               if isinstance(stmt, DEFINITIONS) and stmt.name == name]
    return stmt


def reached(path, name):
    """The top-level definitions of a module that the named one calls,
    directly or through other definitions of that module."""
    defs = {stmt.name: stmt for stmt in ast.parse(path.read_text(), str(path)).body
            if isinstance(stmt, DEFINITIONS)}
    found, todo = set(), [name]
    while todo:
        fresh = (called_names_in(defs[todo.pop()]) & defs.keys()) - found
        found |= fresh
        todo += fresh
    return found


def test_reflections_are_moved_by_word_to_aut_alone():
    action = ROOT / "src" / "spheremcg" / "action.py"
    assert callers(ROOT, "_reflections_last") == ["action.py:word_to_aut"]
    assert "_sparse_identity" in reached(action, "_gen_auts")
    for name in ("_gen_auts", "_sparse_identity"):
        assert not {"word_to_aut", "_reflections_last"} & reached(action, name)


def test_no_function_of_the_action_pops_a_list():
    tree = ast.parse((ROOT / "src" / "spheremcg" / "action.py").read_text())
    assert "pop" not in called_names_in(tree)


def test_reflections_last_reduces_through_reduce():
    action = ROOT / "src" / "spheremcg" / "action.py"
    assert "reduce" in called_names_in(definition(action, "_reflections_last"))


def test_half_twist_step_is_written_once():
    action = ROOT / "src" / "spheremcg" / "action.py"
    definition(action, "_half_twist")
    assert callers(ROOT, "_half_twist") == ["action.py:_evaluate",
                                            "action.py:_sparse_identity"]
    for name in ("_evaluate", "_sparse_identity"):
        assert "_mul" not in called_names_in(definition(action, name))


def test_prefix_reflection_loop_is_written_once():
    assert callers(ROOT, "_common_prefix") == ["action.py:_prefix_reflect"]
    assert callers(ROOT, "_prefix_reflect") == ["action.py:_evaluate", "action.py:_gen_auts"]


def handlers(path, name):
    """The top-level definitions of a module with an `except` clause
    naming the exception."""
    return [stmt.name for stmt in ast.parse(path.read_text(), str(path)).body
            if isinstance(stmt, DEFINITIONS) and any(
                isinstance(node, ast.ExceptHandler) and node.type is not None
                and name in _names(node.type) for node in ast.walk(stmt))]


def holding(path, text):
    """The top-level definitions of a module holding a string constant
    that contains the text."""
    return [stmt.name for stmt in ast.parse(path.read_text(), str(path)).body
            if isinstance(stmt, DEFINITIONS) and any(
                isinstance(node, ast.Constant) and isinstance(node.value, str)
                and text in node.value for node in ast.walk(stmt))]


def test_parse_error_exit_is_mapped_in_main_alone():
    cli = ROOT / "src" / "spheremcg" / "cli.py"
    assert handlers(cli, "ParseError") == ["main"]
    assert [stmt.name for stmt in ast.parse(cli.read_text()).body
            if isinstance(stmt, DEFINITIONS) and "PARSE_EXIT" in _names(stmt)] == ["main"]


def test_refused_input_exit_is_mapped_in_main_alone():
    assert handlers(ROOT / "src" / "spheremcg" / "cli.py", "ValueError") == ["main"]


def test_usage_exit_is_named_by_the_parser_and_main_alone():
    body = ast.parse((ROOT / "src" / "spheremcg" / "cli.py").read_text()).body
    definitions = [stmt for stmt in body if isinstance(stmt, DEFINITIONS)]
    assert "_usage" not in [stmt.name for stmt in definitions]
    assert [stmt.name for stmt in definitions
            if "USAGE_EXIT" in _names(stmt)] == ["_Parser", "main"]


def test_every_quotient_is_checked_by_validate_hom_alone():
    homs = ROOT / "src" / "spheremcg" / "homs.py"
    assert callers(ROOT, "validate_hom") == ["harness.py:verify_presentation",
                                             "homs.py:_pgl2_gens"]
    assert [stmt.name for stmt in ast.parse(homs.read_text()).body
            if isinstance(stmt, DEFINITIONS)
            and {"labels", "relators"} <= _names(stmt)] == ["validate_hom"]


def test_suite_range_is_checked_in_the_recorder_alone():
    harness = ROOT / "src" / "spheremcg" / "harness.py"
    assert holding(harness, "does not apply") == ["_Recorder"]
    assert holding(ROOT / "src" / "spheremcg" / "cli.py", "does not apply") == []
    suites = [stmt for stmt in ast.parse(harness.read_text()).body
              if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("verify_")]
    assert suites and all("_Recorder" in called_names_in(stmt) for stmt in suites)


def test_suite_token_refusals_are_written_in_full_report_alone():
    for text in ("--n is required", "takes no --n"):
        assert holding(ROOT / "src" / "spheremcg" / "cli.py", text) == []
        assert holding(ROOT / "src" / "spheremcg" / "harness.py", text) == ["full_report"]


def keyword_callers(root, keyword):
    """The top-level definitions of the package that pass the keyword
    argument in some call."""
    found = []
    for path in _package(root):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, DEFINITIONS) and any(
                    isinstance(node, ast.Call) and keyword in {k.arg for k in node.keywords}
                    for node in ast.walk(stmt)):
                found.append(f"{path.name}:{stmt.name}")
    return found


def raise_sites(root, name):
    """Each `raise` of the exception in the package: the function holding
    it, as module:Class.method, and the names the test of its innermost
    enclosing `if` calls (empty when no `if` guards it)."""
    found = []
    for path in _package(root):
        tree = ast.parse(path.read_text(), str(path))
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Raise) and node.exc is not None
                    and name in _names(node.exc)):
                continue
            owners, guard, up = [], None, parents.get(node)
            while up is not None:
                if isinstance(up, ast.If) and guard is None:
                    guard = up
                if isinstance(up, DEFINITIONS):
                    owners.insert(0, up.name)
                up = parents.get(up)
            calls = called_names_in(guard.test) if guard else set()
            found.append((f"{path.name}:{'.'.join(owners)}", calls))
    return found


def test_spanning_words_are_written_in_build_presentation_alone():
    assert callers(ROOT, "Presentation") == ["presentation.py:build_presentation"]
    assert keyword_callers(ROOT, "spanning") == ["presentation.py:build_presentation"]


def test_index_one_is_raised_by_the_spanning_check_alone():
    ((owner, guard_calls),) = raise_sites(ROOT, "_IndexOne")
    assert owner == "coset.py:_Enumerator.coincide"
    assert "spans_base" in guard_calls


def test_report_rows_write_every_check_result_field():
    (row,) = json.loads(Report((CheckResult("x", "s", "pass", None, 0),)).to_json())["checks"]
    assert list(row) == list(CheckResult._fields)


def loaded_modules(statement):
    """The modules a fresh interpreter holds after running the statement."""
    code = f"import sys; {statement}; print(*sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return set(done.stdout.split())


def test_importing_the_action_loads_no_enumerator_harness_or_cli():
    loaded = loaded_modules("import spheremcg.action")
    assert "spheremcg.action" in loaded
    assert not loaded & {"spheremcg.coset", "spheremcg.harness", "spheremcg.cli"}


def imported_modules(path):
    """The top-level names of the absolute imports of a module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_no_package_module_imports_dataclasses():
    modules = sorted((ROOT / "src" / "spheremcg").glob("*.py"))
    assert modules
    assert [p.name for p in modules if "dataclasses" in imported_modules(p)] == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # compared with a bare interpreter, since site may preload modules
    added = loaded_modules("import spheremcg.cli") - loaded_modules("pass")
    assert "spheremcg.cli" in added
    assert not added & {"dataclasses", "inspect"}
