import ast
from pathlib import Path

import sprank


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so a result guard must raise.
    found = []
    for path in sorted(Path(sprank.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in sprank: {found}"
