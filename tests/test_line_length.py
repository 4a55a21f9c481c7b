"""No line of src/, tests/ or scripts/ runs past 100 columns.

A stdlib-only stand-in for a linter's line-length rule.  A column is one
character of the decoded line, its newline left out.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIMIT = 100
SOURCES = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))


def long_lines(text: str, limit: int = LIMIT) -> list[tuple[int, int]]:
    """(line number, width) of each line wider than limit columns."""
    return [(i, len(line)) for i, line in enumerate(text.splitlines(), 1) if len(line) > limit]


def test_sources_are_found():
    assert {"intervals.py", "test_line_length.py", "dp_scale.py"} <= {p.name for p in SOURCES}


def test_no_line_passes_the_limit():
    offenders = {str(p.relative_to(ROOT)): long_lines(p.read_text(encoding="utf-8"))
                 for p in SOURCES}
    assert {path: lines for path, lines in offenders.items() if lines} == {}


def test_detector_flags_only_lines_past_the_limit():
    text = "x" * 100 + "\n" + "y" * 101 + "\r\n\n" + "é" * 101 + "\n" + " " * 99
    assert long_lines(text) == [(2, 101), (4, 101)]
