"""Invariants in the package raise InvariantBreach: ``python -O`` strips
``assert`` statements, so an invariant written as one would go unchecked."""

import ast
from pathlib import Path

import toricmmp


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(Path(toricmmp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
