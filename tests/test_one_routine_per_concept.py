"""The fan and divisor layers keep one routine per concept.  The
triangulation criterion (`fan._triangulates`) runs no double description of
its own: its boundary test is `Fan.support_convex` and its one-point test
`cone_contains`.  `divisor.support_function` takes each cone's covector and
Cartier index from one Smith form (`exactlin.smith_solve`), and
`mmp.contract_face` tests descent by integer ranks, so `solve_linear` has
one caller left, `fan.parallelepiped_points`.  `cone_span_perp` returns
primitive integer rows, which no caller rescales.  So none of the second
implementations can come back unnoticed.  (The replaced routines are the
oracles `fan_oracle.triangulates` and `lattice_oracle.support_function`.)"""

import ast
from pathlib import Path

import toricmmp

GONE = {"_simplicial_contains", "integer_multiple_for_solvability",
        "SectionCone", "quotient_matrix"}


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


def test_no_second_implementation():
    refs = _references()
    assert not {key.split(".")[1] for key in refs} & GONE
    assert not set().union(*refs.values()) & GONE
    triangulates = refs["fan._triangulates"]
    assert {"support_convex", "cone_contains"} <= triangulates
    assert "extreme_rays_of_halfspaces" not in triangulates
    assert _users(refs, "solve_linear") == {"fan.parallelepiped_points"}
    assert _users(refs, "smith_solve") == {"divisor.support_function"}
    assert "rank" in refs["mmp.contract_face"]
    assert _users(refs, "cone_span_perp") >= {
        "fan.cone_facets", "fan.qfactorialize",
        "singularities._low_discrepancy_points"}
    for key in _users(refs, "cone_span_perp"):
        assert "scale_to_integer" not in refs[key], key
    assert "scale_to_integer" in refs["fan.cone_span_perp"]
    assert "Fraction" not in refs["fan.positive_on"]
