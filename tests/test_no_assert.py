"""No engine behaviour may depend on `assert`: `python -O` strips it.

So no engine source file may hold an assert statement, a `raise` of
`AssertionError` (which would end in a traceback and exit 1, "refuted"),
or a handler that would catch an `AssertionError` (a bare `except`, or one
naming `AssertionError`, `Exception` or `BaseException`).
"""

import ast
from pathlib import Path

import operahedra

SOURCES = sorted(Path(operahedra.__file__).parent.glob("*.py"))
BROAD = {"AssertionError", "Exception", "BaseException"}


def _offences(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(raised, ast.Name) and raised.id == "AssertionError":
                yield node.lineno, "raises AssertionError"
        elif isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = {n.id for n in caught if isinstance(n, ast.Name)}
            if node.type is None or names & BROAD:
                yield node.lineno, "handler catches AssertionError"


def test_engine_sources_hold_no_assert():
    assert SOURCES
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in _offences(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_guard_sees_each_kind_of_offence():
    code = (
        "assert x\n"
        "try:\n    f()\nexcept (ValueError, AssertionError):\n    pass\n"
        "try:\n    f()\nexcept:\n    pass\n"
        "try:\n    f()\nexcept KeyError:\n    pass\n"
        "raise AssertionError('unreachable')\n"
        "raise AssertionError\n"
        "raise ValueError('bad')\n"
    )
    assert sorted(line for line, _ in _offences(ast.parse(code))) == [1, 4, 8, 14, 15]
