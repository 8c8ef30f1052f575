"""`fan.qfactorialize` and `corpus.random_complete_fan` build the same
object, the regular subdivision that integer lifting heights induce, with
one routine: `fan.regular_cells`, which reads each cell off the signed
minors of the lifted rows.  Neither it nor its callers solves a `Fraction`
system per subset, so a second subdivision routine cannot come back
unnoticed.  (The `Fraction` solve is the oracle `fan_oracle.regular_cells`.)"""

import ast
from pathlib import Path

import toricmmp

ELIMINATION = {"solve_linear", "nullspace", "_rref"}


def _names(module, function):
    """The names and attributes a top-level function of a package module
    mentions, or None when the module defines no such function."""
    path = Path(toricmmp.__file__).parent / f"{module}.py"
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            return ({sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
                    | {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)})
    return None


def test_one_regular_subdivision_routine():
    assert _names("fan", "_regular_cells") is None
    assert "regular_cells" in _names("fan", "qfactorialize")
    assert "regular_cells" in _names("corpus", "random_complete_fan")
    for module, function in (("fan", "regular_cells"), ("fan", "qfactorialize"),
                             ("corpus", "random_complete_fan")):
        assert not _names(module, function) & ELIMINATION, function
    assert "primitive_kernel" in _names("fan", "regular_cells")
