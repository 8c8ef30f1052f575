"""Every corank-one integer kernel in the package is a vector of signed
maximal minors: `exactlin._minor_kernel` behind `primitive_kernel` (wall
relations, simplicial facet normals) and inside the double description.
The Hermite kernel, the Smith invariants and the per-column integer solve
are gone, and the Smith form serves only the quotient lattice, the
divisibility index and the section of a quotient projection.  So a second
kernel routine cannot come back unnoticed."""

import ast
from pathlib import Path

import toricmmp

GONE = {"integer_kernel", "integer_solve", "smith_invariants"}


def _references():
    """{module.top-level name: the names and attributes it mentions} over
    the package; statements that define no name are kept under the module's
    own name."""
    out = {}
    for path in sorted(Path(toricmmp.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            names = out.setdefault(f"{path.stem}.{getattr(node, 'name', path.stem)}",
                                   set())
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
    return out


def _users(refs, name):
    return {key for key, names in refs.items() if name in names}


def test_one_integer_kernel_routine():
    refs = _references()
    assert not {key.split(".")[1] for key in refs} & GONE
    assert not set().union(*refs.values()) & GONE
    assert _users(refs, "_minor_kernel") == {"exactlin.primitive_kernel",
                                             "exactlin.extreme_rays_of_halfspaces"}
    assert "nullspace" not in refs["fan.cone_facets"]
    assert "primitive_kernel" in refs["fan.cone_facets"]
    assert "primitive_kernel" in refs["fan.wall_coefficients"]
    assert _users(refs, "smith_normal_form") == {
        "exactlin.quotient_projection",
        "exactlin.smith_solve",
        "mmp._section_of_projection"}
