"""The package's process-global caches are exactly the ones the benchmark
clears: `perfbench/run.py` clears the `lru_cache`s listed in
`perfbench/bench_trace.CACHES` before each timed pass, so a cache missing
from that list would carry work from one pass into the next, and a listed
one that no longer exists would break the run.  Nor do the records the
benchmark reuses across passes cache a value on the instance."""

import ast
import functools
import importlib
from pathlib import Path

import toricmmp
from ast_refs import bench_tables
from toricmmp.curves import CurveClass
from toricmmp.divisor import InvariantDivisor
from toricmmp.fan import Fan, FanMap

PACKAGE = Path(toricmmp.__file__).parent


def _listed_caches():
    """(module, function) of each `CACHES` entry of the benchmark's tracer,
    read off its source by `ast`, where the entry resolves to."""
    out = set()
    for _name, mod, attr in bench_tables()["CACHES"]:
        fn = getattr(importlib.import_module(f"toricmmp.{mod}"), attr)
        out.add((fn.__module__, fn.__qualname__))
    return out


def _package_caches():
    """(module, function) of each function the package decorates with a
    `functools` cache; any other use of one is reported by its line."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        decorated = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                for dec in node.decorator_list:
                    decorated[id(getattr(dec, "func", dec))] = node.name
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in ("lru_cache", "cache"):
                where = decorated.get(id(node), f"line {node.lineno}")
                found.add((f"toricmmp.{path.stem}", where))
    return found


def test_every_package_cache_is_cleared_by_the_benchmark():
    # the seven module-level caches of `fan`, `curves` and `divisor`
    assert _package_caches() == _listed_caches()
    assert len(_listed_caches()) == len(bench_tables()["CACHES"]) == 7
    for module, fn in _listed_caches():
        cached = getattr(importlib.import_module(module), fn)
        assert callable(cached.cache_clear)


def test_reused_inputs_cache_nothing_on_the_instance():
    # the benchmark loads its input fans, maps and divisors once and reuses
    # them in every pass, so a value cached on one would carry work from
    # one pass into the next
    for cls in (Fan, FanMap, InvariantDivisor, CurveClass):
        assert not [name for name, value in vars(cls).items()
                    if isinstance(value, functools.cached_property)], cls
