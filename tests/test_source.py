"""Source-level rules for the package: certificates raise exceptions, and
`python -O` strips assert statements, so the package contains none."""

import ast
from pathlib import Path

import quatperiods

SOURCES = sorted(Path(quatperiods.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    assert len(SOURCES) >= 10
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
