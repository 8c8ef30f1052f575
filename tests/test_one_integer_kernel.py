"""Every corank-one integer kernel in the package is a vector of signed
maximal minors: `exactlin._minor_kernel` behind `primitive_kernel`
(simplicial facet normals) and inside the double description, and the
wall relations, which take the same minors by Cramer's rule on
`integer_det` (`fan.wall_coefficients`).
Every kernel basis (`exactlin.nullspace`) is made of such vectors, taken
on the fraction-free echelon rows that `exactlin.rank` counts.  The
Hermite kernel, the Smith invariants, the per-column integer solve and the
`Fraction` reduced echelon form (`_rref`) are gone, and the Smith form
serves only the quotient lattice and `smith_solve`, the one rational solve
of A x = b, which gives the divisibility index too and which
`solve_linear` and the section of a quotient projection call, the section
once for all its columns; the section no longer calls the Smith form
itself.  So a second kernel routine cannot
come back unnoticed.  Every lattice integer is read by `exactlin.integer`
(and its vector form `integers`), which refuses what is not an integer,
and no routine but the CLI's argument parser calls `int`.  The test oracles (`*_oracle.py`)
solve linear systems with `lp_oracle.solve`, on their own elimination,
never with `solve_linear`.  The phase-1 simplex is the one pivot loop,
behind `solve_nonneg` and `feasible_point`; it hands back integer
numerators over one denominator, and the LPs built on it check that
witness on integers, so a `Fraction` appears there only in the witness
they return."""

import ast
from pathlib import Path

from ast_refs import names, package_trees, references, users
from toricmmp import exactlin as xl

GONE = {"integer_kernel", "integer_solve", "smith_invariants", "_rref"}


def test_one_integer_kernel_routine():
    refs = references()
    assert not {key.split(".")[1] for key in refs} & GONE
    assert not set().union(*refs.values()) & GONE
    assert users(refs, "_minor_kernel") == {"exactlin.primitive_kernel",
                                            "exactlin.extreme_rays_of_halfspaces"}
    assert "nullspace" not in refs["fan.cone_facets"]
    assert "primitive_kernel" in refs["fan.cone_facets"]
    assert "integer_det" in refs["fan.wall_coefficients"]
    assert "primitive_kernel" not in refs["fan.wall_coefficients"]
    assert users(refs, "smith_normal_form") == {
        "exactlin.quotient_projection",
        "exactlin.smith_solve"}


def test_one_integer_reader():
    # a lattice integer is read by exactlin.integer, never truncated by
    # int(); only the CLI's argument parser calls int, on strings
    callers, readers = set(), set()
    for module, tree in package_trees().items():
        for node in tree.body:
            if getattr(node, "name", None) == "integer":
                readers.add(module)
            if any(isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                   and sub.func.id == "int" for sub in ast.walk(node)):
                callers.add(f"{module}.{getattr(node, 'name', module)}")
    assert callers == {"cli._ints"}
    assert readers == {"exactlin"}


def test_kernel_bases_are_integer():
    # every kernel basis is signed minors of fraction-free echelon rows
    refs = references()
    assert {"primitive_kernel", "_echelon"} <= refs["exactlin.nullspace"]
    assert "_echelon" in refs["exactlin.rank"]
    for key in ("exactlin._echelon", "exactlin.rank", "exactlin.nullspace",
                "exactlin.extreme_rays_of_halfspaces", "fan.cone_span_perp"):
        assert "Fraction" not in refs[key], key


def _function(module, name):
    tree = ast.parse(Path(module.__file__).read_text())
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _fraction_names(node):
    return [sub for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and sub.id == "Fraction"]


def test_lp_witnesses_are_checked_on_integers():
    # one pivot loop, behind both LPs
    assert users(references(), "_phase1") == {"exactlin.solve_nonneg",
                                              "exactlin.feasible_point"}
    assert not _fraction_names(_function(xl, "_phase1"))
    for name in ("solve_nonneg", "feasible_point"):
        node = _function(xl, name)
        returned = [sub for ret in ast.walk(node) if isinstance(ret, ast.Return)
                    for sub in _fraction_names(ret)]
        assert returned, name
        assert len(returned) == len(_fraction_names(node)), name
    # the carried ample class is checked on a positive integer multiple
    assert "_integer_row" in references()["curves.mori_classes"]


def test_oracles_share_no_elimination():
    oracles = sorted(Path(__file__).parent.glob("*_oracle.py"))
    assert len(oracles) >= 6
    for path in oracles:
        tree = ast.parse(path.read_text(), filename=str(path))
        assert "solve_linear" not in names(tree), path.name
