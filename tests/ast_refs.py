"""The names each top-level statement of the package mentions, read off the
source by `ast`: the one walker behind the guard tests that keep one
routine per concept (`test_one_*`, `test_fm_only_enumerates`) and every
routine reached (`test_every_routine_is_reached`), and the tables of the
benchmark's tracer that those guards and `test_caches` read."""

import ast
from pathlib import Path

import toricmmp

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCH_TRACE = PERFBENCH / "bench_trace.py"


def references():
    """{"module.name": the names and attributes that top-level statement
    mentions} over the package's modules; statements that define no name
    are kept under the module's own name."""
    out = {}
    for module, tree in package_trees().items():
        for node in tree.body:
            out.setdefault(f"{module}.{getattr(node, 'name', module)}",
                           set()).update(names(node))
    return out


def package_trees():
    """{module: its parsed source} over the package's modules."""
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(Path(toricmmp.__file__).parent.glob("*.py"))}


def bench_tables():
    """{"ENTRY_POINTS": ..., "CACHES": ...}: the two tables of
    `perfbench/bench_trace.py`, read off its source by `ast` (the file is
    not run)."""
    tree = ast.parse(BENCH_TRACE.read_text(), filename=str(BENCH_TRACE))
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("ENTRY_POINTS", "CACHES")}


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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _routines(trees):
    """({"module.name" or "module.Class.name": (name, mentions)}, the
    names the modules' other statements mention) over `trees`, a map
    module -> parsed source.  The routines are the top-level functions and
    classes and the non-dunder methods and properties; a class mentions
    what its decorators, bases and body outside those methods mention,
    since its dunders run whenever it is used."""
    routines, loose = {}, set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, _FUNCTIONS):
                routines[f"{module}.{node.name}"] = (node.name, names(node))
            elif isinstance(node, ast.ClassDef):
                own = set().union(*map(names, node.decorator_list + node.bases
                                       + node.keywords))
                for sub in node.body:
                    if isinstance(sub, _FUNCTIONS) and not (
                            sub.name.startswith("__")
                            and sub.name.endswith("__")):
                        routines[f"{module}.{node.name}.{sub.name}"] = (
                            sub.name, names(sub))
                    else:
                        own |= names(sub)
                routines[f"{module}.{node.name}"] = (node.name, own)
            else:
                loose |= names(node)
    return routines, loose


def unreached(trees, roots):
    """The sorted keys of the routines of `trees` (see `_routines`) that
    neither a name in `roots` nor a statement of a module outside its
    routines reaches.  A name or attribute reaches every routine of that
    name, and a reached routine reaches what it mentions."""
    routines, loose = _routines(trees)
    todo = list(loose | set(roots))
    mentions = {}
    for name, refs in routines.values():
        mentions.setdefault(name, []).append(refs)
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for refs in mentions.get(name, ()):
                todo.extend(refs)
    return sorted(key for key, (name, _) in routines.items()
                  if name not in reached)
