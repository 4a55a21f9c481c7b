"""Every top-level function and class in boxkit is used.

A stdlib-only stand-in for a linter's dead-code rule.  A definition is
used when another top-level statement of the package reads its name, as
a name or as an attribute, or when `__init__.py` re-exports it.  Names
are matched across modules without resolving imports, so a definition
is never flagged while another module reads the same name.  A
re-export that neither the package, the scripts nor the benchmark reads
must be one of the exports kept for library users.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "boxkit"

# Kept for library users although no module of the package, scripts/ or
# perfbench/ reads them.
LIBRARY_EXPORTS = {
    "bipartite_universal_bound",
    "co_expansion_table",
    "complete_graph",
    "empty_graph",
    "petersen",
    "strong_vertex_boundary",
    "strongly_regular_secondary",
    "vertex_boundary",
}


def _names_read(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _exports(init_source: str) -> set[str]:
    return {alias.asname or alias.name for node in ast.parse(init_source).body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def unread_exports(sources: list[str], init_source: str) -> set[str]:
    """The names `init_source` re-exports that none of `sources` reads."""
    reads = set().union(*(_names_read(ast.parse(source)) for source in sources))
    return _exports(init_source) - reads


def dead_definitions(modules: dict[str, str], init_source: str) -> list[tuple[str, str]]:
    """(module, name) for each top-level def or class in `modules` that no
    other top-level statement reads and `init_source` does not import."""
    exported = _exports(init_source)
    statements = [(module, stmt) for module, source in sorted(modules.items())
                  for stmt in ast.parse(source).body]
    reads = [_names_read(stmt) for _, stmt in statements]
    dead = []
    for i, (module, stmt) in enumerate(statements):
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if stmt.name in exported:
            continue
        if not any(stmt.name in names for j, names in enumerate(reads) if j != i):
            dead.append((module, stmt.name))
    return dead


def test_package_defines_nothing_unused():
    modules = {p.name: p.read_text() for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    assert {"families.py", "harness.py", "intervals.py"} <= set(modules)
    assert dead_definitions(modules, (PACKAGE / "__init__.py").read_text()) == []


def test_detector_flags_dead_and_keeps_used():
    modules = {
        "a.py": (
            "def exported(): pass\n"
            "def helper(): return 1\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class Table:\n"
            "    def build(self): return Table()\n"
            "def caller(): return helper() + b.attr_only()\n"
        ),
        "b.py": (
            "def attr_only(): pass\n"
            "def orphan(): pass\n"
        ),
    }
    init = "from .a import exported, caller\n"
    assert dead_definitions(modules, init) == [
        ("a.py", "recursive"), ("a.py", "Table"), ("b.py", "orphan")]


def test_unread_exports_are_the_library_exports():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    assert {"cli.py", "run.py", "output_digests.py"} <= {p.name for p in paths}
    sources = [p.read_text() for p in paths]
    assert unread_exports(sources, (PACKAGE / "__init__.py").read_text()) == LIBRARY_EXPORTS


def test_unread_export_detector():
    init = "from .a import called, attribute, imported_only\nfrom .b import kept\n"
    sources = ["from boxkit import imported_only\ncalled()\n", "import boxkit\nboxkit.attribute\n"]
    assert unread_exports(sources, init) == {"imported_only", "kept"}
