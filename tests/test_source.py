import ast
from pathlib import Path

import sprank


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so a result guard must raise, and
    # raise a sprank error: a bare AssertionError reads as a test failure.
    found = []
    for path in sorted(Path(sprank.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
            or (isinstance(node, ast.Raise) and _raises_assertion_error(node))
        ]
    assert not found, f"asserts or AssertionError raises in sprank: {found}"
