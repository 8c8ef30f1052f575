"""Every parameter of a package function is read in its body: a hand-over
that a change stops using does not linger as a dead parameter.  Protocol
dunders (`__setattr__` and the like) take the parameters their protocol
fixes and are left out, and so is a method's `self`, which a method that
reads no state (a `cached_property` building an empty dict) still takes."""

import ast
from pathlib import Path

import toricmmp


def _unread_parameters(tree):
    """(line, function, parameter) for each parameter of a function in
    `tree`, nested ones included, that its body does not read."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name.startswith("__") and name.endswith("__"):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        found += [(node.lineno, name, a.arg) for a in params
                  if a.arg not in read and a.arg != "self"]
    return found


def test_package_functions_read_every_parameter():
    found = []
    for path in sorted(Path(toricmmp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {name}({arg})"
                  for line, name, arg in _unread_parameters(tree)]
    assert found == []


def test_an_unread_parameter_is_found():
    tree = ast.parse("def f(a, b):\n    return a\n"
                     "def g(self, x):\n    x = 1\n"
                     "def __setattr__(self, name, value):\n    pass\n")
    assert _unread_parameters(tree) == [(1, "f", "b"), (3, "g", "x")]
