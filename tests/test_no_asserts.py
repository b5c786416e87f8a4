"""The library checks its invariants with explicit raises, never `assert`,
so every check also runs under `python -O`."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bridgemix"


def test_no_assert_statements_in_the_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
