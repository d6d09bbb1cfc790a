"""Source-level rules for the package: certificates raise exceptions, and
`python -O` strips assert statements, so the package contains none. Every
name the benchmark's tracer (`perfbench/tracer.py`) wraps must exist, so a
deleted or renamed traced name fails here rather than at bench time."""

import ast
import importlib
import runpy
from pathlib import Path

import quatperiods

SOURCES = sorted(Path(quatperiods.__file__).parent.glob("*.py"))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_package_has_no_assert_statements():
    assert len(SOURCES) >= 10
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_tracer_names_resolve_in_the_package():
    # run_path compiles the source and writes no bytecode next to it
    tracer = runpy.run_path(str(TRACER))
    package = tracer["PACKAGE"]
    assert package == quatperiods.__name__
    assert tracer["TRACED"] and tracer["TRACED_METHODS"]
    missing = []
    for mod, name in tracer["TRACED"]:
        module = importlib.import_module(f"{package}.{mod}")
        if not callable(getattr(module, name, None)):
            missing.append(f"{mod}.{name}")
    for mod, cls, meth in tracer["TRACED_METHODS"]:
        klass = getattr(importlib.import_module(f"{package}.{mod}"), cls, None)
        # the tracer replaces the method in the class's own __dict__
        if not callable(vars(klass).get(meth) if klass else None):
            missing.append(f"{mod}.{cls}.{meth}")
    assert missing == []
