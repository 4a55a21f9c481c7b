"""Every top-level function and class in boxkit is used.

A stdlib-only stand-in for a linter's dead-code rule.  A definition is
used when another top-level statement of the package reads its name, as
a name or as an attribute, or when `__init__.py` re-exports it.  Names
are matched across modules without resolving imports, so a definition
is never flagged while another module reads the same name.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "boxkit"


def _names_read(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def dead_definitions(modules: dict[str, str], init_source: str) -> list[tuple[str, str]]:
    """(module, name) for each top-level def or class in `modules` that no
    other top-level statement reads and `init_source` does not import."""
    exported = {alias.asname or alias.name
                for node in ast.parse(init_source).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
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
