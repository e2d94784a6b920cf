"""Every module imports only what it uses.

A name imported into a module and never read there is dead weight, and
after a refactor it is often the last trace of a deleted code path.  The
check reads the syntax tree of each module of the package, its
``__init__.py`` included, and of the tests.
"""

import ast
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "adekit"

# (module, name) pairs that stay imported although the module never reads them
EXEMPT = {
    # the benchmark tracer rebinds every module's imported copy of a traced
    # function, and bench/test_bench.py checks that on this one
    ("discovery", "poly_gcd"),
}


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                yield alias.asname or alias.name.split(".")[0]


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations such as -> "PowerSeries" name their types in a string
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        for name in _imported_names(tree):
            if name not in used and (path.stem, name) not in EXEMPT:
                unused.append(f"{path.stem}: {name}")
    assert not unused, "imported but never used: " + ", ".join(unused)


def test_runtime_imports_only_the_standard_library():
    # the runtime stays stdlib-only: every import is relative or names a
    # module of the standard library
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    foreign.append(f"{path.stem}: {name}")
    assert not foreign, "imports outside the standard library: " + ", ".join(foreign)


def test_no_private_imports_across_modules():
    # a name with a leading underscore belongs to its module; a routine two
    # modules need is public
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "adekit":
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    private.append(f"{path.stem}: {node.module}.{alias.name}")
    assert not private, "private names imported from another module: " + ", ".join(private)


def _calls_by_function(tree):
    """(enclosing function name or None, call node) for every call."""

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
            else:
                if isinstance(child, ast.Call):
                    yield owner, child
                yield from walk(child, owner)

    return walk(tree, None)


def test_only_inline_reads_definitions():
    # names are resolved in one place; every other walker sees closed trees
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner, call in _calls_by_function(tree):
            if isinstance(call.func, ast.Attribute) and call.func.attr == "lookup":
                if (path.stem, owner) != ("expr", "inline"):
                    readers.append(f"{path.stem}.{owner}:{call.lineno}")
    assert not readers, "definitions read outside expr.inline: " + ", ".join(readers)


def test_searches_take_no_tolerance():
    # the numeric tolerance belongs to the numeric domain
    knobs = {"rtol", "tol", "rel_tol", "floor"}
    found = []
    for stem in ("discovery", "pipeline", "diffpoly", "chain_rewrite"):
        tree = ast.parse((PACKAGE / f"{stem}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                for arg in a.posonlyargs + a.args + a.kwonlyargs:
                    if arg.arg in knobs:
                        found.append(f"{stem}.{node.name}({arg.arg})")
    assert not found, "tolerance parameters: " + ", ".join(found)


def test_only_scalars_maps_into_f_p():
    # the prime of the image in F_p lives in scalars; a wide integer
    # literal anywhere else is, as a rule, a private copy of it
    wide = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "scalars":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and type(node.value) is int and node.value.bit_length() >= 61:
                wide.append(f"{path.stem}:{node.lineno}")
    assert not wide, "integer literals of 61 bits or more outside scalars: " + ", ".join(wide)


def test_only_expr_reads_tokens():
    # one parser reads all text; the lexer's tokens stay inside expr
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "expr":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            named = (isinstance(node, ast.Name) and node.id == "_lex") or (
                isinstance(node, ast.Attribute) and node.attr == "_lex"
            )
            imported = isinstance(node, ast.ImportFrom) and any(a.name == "_lex" for a in node.names)
            if named or imported:
                readers.append(f"{path.stem}:{node.lineno}")
    assert not readers, "tokens read outside expr: " + ", ".join(readers)


def test_only_diffpoly_differentiates_series():
    # one jet builds every derivative stack; the series module defines the
    # derivative and nothing else takes it
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("series", "diffpoly"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner, call in _calls_by_function(tree):
            if isinstance(call.func, ast.Attribute) and call.func.attr == "derivative":
                callers.append(f"{path.stem}.{owner}:{call.lineno}")
    assert not callers, "series differentiated outside diffpoly: " + ", ".join(callers)


def test_only_series_composes():
    # a composition expands its outer on the inner series; Horner's rule
    # in PowerSeries.compose stays only as the tests' reference
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "series":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner, call in _calls_by_function(tree):
            if isinstance(call.func, ast.Attribute) and call.func.attr == "compose":
                callers.append(f"{path.stem}.{owner}:{call.lineno}")
    assert not callers, "series composed outside series: " + ", ".join(callers)


def test_the_series_module_knows_no_variable():
    # a series is coefficients around an unnamed center; expanding
    # anything written in z belongs to expr.expand_series
    tree = ast.parse((PACKAGE / "series.py").read_text())
    named = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant) and node.value == "z"]
    assert not named, f"series.py names the variable z at lines {named}"


# Definitions that only code outside the package calls, with that caller.
OUTSIDE_CALLERS = {
    "series.PowerSeries.compose": "bench/tracer.py traces it as the series.compose layer",
    "chain_rewrite.transfer_residual": "bench/workloads.py checks the rewrite corpus with it",
    "diffpoly.DiffPoly.monomial": "bench/workloads.py builds the rewrite corpus with it",
}


def _definitions(tree, stem):
    """(qualified name, node) for every class, function and method."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{prefix}.{child.name}", child
                yield from walk(child, f"{prefix}.{child.name}")
            else:
                yield from walk(child, prefix)

    return walk(tree, stem)


def _named(tree):
    """Every name a tree reads or looks up as an attribute, with counts."""
    counts = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] = counts.get(node.id, 0) + 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] = counts.get(node.attr, 0) + 1
    return counts


def test_every_definition_has_a_caller_in_the_package():
    # code that only the tests call is surface without a purpose: a test's
    # reference belongs in the tests
    import adekit

    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE.glob("*.py")}
    named = {}
    for tree in trees.values():
        for name, n in _named(tree).items():
            named[name] = named.get(name, 0) + n
    orphans = []
    for stem, tree in trees.items():
        if stem == "__init__":
            continue
        for qualname, node in _definitions(tree, stem):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if qualname.count(".") == 1 and name in adekit.__all__:
                continue
            if named.get(name, 0) == _named(node).get(name, 0):
                orphans.append(qualname)
    unexplained = sorted(set(orphans) - set(OUTSIDE_CALLERS))
    assert not unexplained, "defined but called nowhere in the package: " + ", ".join(unexplained)
    # an exemption whose definition went, or found a caller in the package, goes too
    stale = sorted(set(OUTSIDE_CALLERS) - set(orphans))
    assert not stale, "stale exemptions: " + ", ".join(stale)
