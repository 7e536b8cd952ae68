"""Answer guards must survive `python -O`, which strips `assert`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "incidence4"


def test_no_assert_statements_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")), "package sources not found"
    assert found == []
