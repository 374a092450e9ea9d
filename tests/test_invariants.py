"""The library's invariants stay on in every run, including under ``python -O``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "toricstab"


def test_no_assert_statements_in_library():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"
