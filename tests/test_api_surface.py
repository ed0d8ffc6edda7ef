"""Every function, method and class of ``tautrel`` has a caller in the
program: the package itself or the benchmark under ``perfbench/``.  The
storage of a series is known to ``series.py`` alone, and no module
imports another module's underscore name.

Both trees are parsed, not imported.  A definition counts as called when
its name occurs outside its own body as a name or an attribute, or, in
``perfbench/``, as a part of a dotted string, which is how the tracer
names what it wraps.  A name that only tests reach is API kept for the
tests alone: delete it, or move it into the test that needs it as a
``ref_*`` oracle.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tautrel"
BENCHMARK = ROOT / "perfbench"

# Names with no caller yet, each kept for the ROADMAP item that needs it.
RESERVED = {
    "bernoulli": "items 1 and 10: |B_2g| of Faber's socle evaluation",
    "fz_restriction_report": "item 2: FZ restriction in verify pixton",
}


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def definitions():
    """(name, file, first line, last line) of every def and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield node.name, path, node.lineno, node.end_lineno


def uses():
    """(name, file, line) of every name the two trees mention."""
    for tree, dotted in ((PACKAGE, False), (BENCHMARK, True)):
        for path in sorted(tree.glob("*.py")):
            for node in ast.walk(parse(path)):
                if isinstance(node, ast.Name):
                    yield node.id, path, node.lineno
                elif isinstance(node, ast.Attribute):
                    yield node.attr, path, node.lineno
                elif (dotted and isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    for part in node.value.split("."):
                        yield part, path, node.lineno


def test_every_definition_has_a_caller():
    used = {}
    for name, path, line in uses():
        used.setdefault(name, []).append((path, line))
    uncalled = sorted(
        "%s:%d %s" % (path.name, first, name)
        for name, path, first, last in definitions()
        if not (name.startswith("__") and name.endswith("__"))
        and name not in RESERVED
        and not any(p != path or not first <= line <= last
                    for p, line in used.get(name, ()))
    )
    assert not uncalled, uncalled


def test_reserved_names_exist():
    defined = {name for name, *_ in definitions()}
    assert set(RESERVED) <= defined


# The integer-bucket storage of a series and the kernels on it.
SERIES_PRIVATE = {
    "_buckets", "buckets", "from_buckets", "_mul_sum", "_lcm_bucket",
    "_bucket_derivative", "_lowest", "graded_exp", "graded_log",
}


def test_only_series_knows_the_buckets():
    named = sorted(
        "%s:%d %s" % (path.name, node.lineno, name)
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "series.py"
        for node in ast.walk(parse(path))
        for name in (getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None), getattr(node, "arg", None))
        if name in SERIES_PRIVATE
    )
    assert not named, named


def test_no_module_imports_another_modules_private_name():
    imported = sorted(
        "%s:%d %s" % (path.name, node.lineno, alias.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(parse(path)) if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("tautrel"))
        for alias in node.names if alias.name.startswith("_")
    )
    assert not imported, imported
