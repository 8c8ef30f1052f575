"""Every routine of the package is reached by the program: no top-level
function or class, and no non-dunder method or property, is left that only
tests call.  Reach is read off the source by names and attributes
(`ast_refs.unreached`), from these roots: the package's `__all__`, the
CLI's `main`, every module statement outside a routine, and every name the
benchmark harness in `perfbench/` reads (`bench_trace.ENTRY_POINTS` and
`CACHES`, and whatever its other files mention).  There is no allow-list:
a helper the program stops calling is deleted, or moves to `tests/` as an
oracle."""

import ast

import toricmmp
from ast_refs import PERFBENCH, bench_tables, names, package_trees, unreached


def _perfbench_names():
    """The names the benchmark harness reads: each dotted part of
    `bench_trace.ENTRY_POINTS`, each attribute of `bench_trace.CACHES`,
    and every name or attribute its other files mention."""
    out = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        if path.stem != "bench_trace":
            out |= names(ast.parse(path.read_text(), filename=str(path)))
    table = bench_tables()
    for entries in table["ENTRY_POINTS"].values():
        for entry in entries:
            out.update(entry.split("."))
    out.update(attr for _, _, attr in table["CACHES"])
    return out


def test_every_routine_is_reached():
    roots = set(toricmmp.__all__) | {"main"} | _perfbench_names()
    assert unreached(package_trees(), roots) == []


def test_an_unreached_routine_is_found():
    trees = {
        "a": ast.parse(
            "import b\n"
            "def used():\n    return b.helper()\n"
            "def dead():\n    return dead_child()\n"
            "def dead_child():\n    return 1\n"
            "class Box:\n"
            "    def __init__(self):\n        self.x = set_up()\n"
            "    def read(self):\n        return self.x\n"
            "    def unread(self):\n        return 0\n"
            "TABLE = used()\n"),
        "b": ast.parse(
            "def helper():\n    return Box().read()\n"
            "def set_up():\n    return 2\n"
            "def root():\n    return 3\n"),
    }
    assert unreached(trees, {"root"}) == [
        "a.Box.unread", "a.dead", "a.dead_child"]
