"""Every name a package module imports is used in it: a leftover import
hides which routines a module really depends on.  `__init__.py` imports
to re-export and is left out."""

import ast
from pathlib import Path

import toricmmp


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_package_modules_use_every_imported_name():
    found = []
    for path in sorted(Path(toricmmp.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {name}"
                  for line, name in _unused_imports(tree)]
    assert found == []
