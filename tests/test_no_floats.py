"""The package docstring promises exact arithmetic with not a single float:
no module holds a float literal, calls `float` or `round`, or names
`math.sqrt`, `math.log`, `math.exp`, `math.isclose`, `math.inf` or
`math.nan`, by attribute or by `from math import`."""

import ast

from ast_refs import package_trees

BUILTINS = {"float", "round"}
MATH = {"sqrt", "log", "exp", "isclose", "inf", "nan"}


def _floats(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Name) and node.id in BUILTINS:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in MATH \
                and isinstance(node.value, ast.Name) and node.value.id == "math":
            yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            yield from ((node.lineno, f"math.{a.name}") for a in node.names
                        if a.name in MATH)


def test_package_has_no_floats():
    found = [f"{module}:{line}: {what}"
             for module, tree in package_trees().items()
             for line, what in _floats(tree)]
    assert found == []


def test_the_guard_sees_each_form():
    source = ("x = 0.5\ny = float(1)\nz = round(x)\nimport math\n"
              "w = math.sqrt(2)\nfrom math import inf, gcd\n")
    assert sorted(what for _, what in _floats(ast.parse(source))) == \
        ["0.5", "float", "math.inf", "math.sqrt", "round"]
