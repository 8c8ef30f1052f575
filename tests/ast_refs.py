"""The names each top-level statement of the package mentions, read off the
source by `ast`: the one walker behind the guard tests that keep one
routine per concept (`test_one_*`, `test_fm_only_enumerates`)."""

import ast
from pathlib import Path

import toricmmp


def references():
    """{"module.name": the names and attributes that top-level statement
    mentions} over the package's modules; statements that define no name
    are kept under the module's own name."""
    out = {}
    for path in sorted(Path(toricmmp.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            out.setdefault(f"{path.stem}.{getattr(node, 'name', path.stem)}",
                           set()).update(names(node))
    return out


def names(node):
    """The names and attributes an `ast` node mentions."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def users(refs, name):
    """The keys of `refs` whose statement mentions `name`."""
    return {key for key, names in refs.items() if name in names}
