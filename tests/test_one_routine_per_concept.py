"""The fan, divisor, MMP and Newton layers keep one routine per concept.
`fan` pairs facets in one loop, `_facet_owners`: the fan's facet map
(`_facet_map`), `cone_covered` and `Fan.support_convex` all read it.  One
boundary test, `_on_boundary` (every ray on one side of an unpaired
facet's span), serves `Fan.support_convex` and the triangulation
criterion (`fan._triangulates`); so `support_convex` hands no normals to
`cone_covered`, `_triangulates` does not go through `support_convex`, and
the criterion runs no double description of its own (its one-point test
is Cramer's rule on its own determinants, not `cone_contains`).  The
criterion is the one routine that tests changed facets against a base:
`validate_fan` with a base and `fan.swap_cells` hand it two lists of
cells, the new and the removed ones (`_triangulates(F, new, removed)`),
so `swap_cells` names it and neither `_on_boundary` nor `cone_contains`.
Each fan's facets are paired once: only `walls` (cached per fan) builds
the facet map, and lists its walls in facet-map order, the one wall list
that the criterion, `check_morphism` and `swap_cells` read.
The walls a map contracts are paired with their classes once per map, as
(Wall, CurveClass) pairs: only `fan.check_morphism` and `fan.swap_cells`
build a `CurveClass` or hand `MorphismFlags` its `contracted` pairs, and
`curves.contracted_walls` returns the flags' pairs as they are, naming
neither `walls` nor `CurveClass`; the flags' verdicts take the class
itself, so no caller hands `is_extreme`, `supporting` or `certify_ray` its
`coeffs`.
`mmp.contract` reads each circuit cone off one wall of its class, so
`mmp._merge_groups` serves only `contract_face`.
`common_refinement` certifies only the cells
it changes, so it names no `certify_fan`.  `divisor.support_function` and
`divisor.pullback` take each cone's covector and Cartier index from one
per-cone Smith form (`divisor._covector`, which calls
`exactlin.smith_solve`, the one rational solve, as `solve_linear` does;
each caller makes one call, one Smith form, and the section of a quotient
projection hands it every column's right-hand side at once),
and `mmp.contract_face` tests descent by integer ranks, so `solve_linear`
has one caller left, `fan.parallelepiped_points`.  `cone_span_perp` returns
the primitive integer rows of `exactlin.nullspace` as they are, and no
caller rescales them.  `mmp` reads each step off the chosen class's
relation: it computes no wall relation (a flip's new walls carry the
relation with the opposite sign) and no cone dimension (both birational
kinds go through one circuit check), and `_negative_contraction` keeps
no fano contraction in reserve, since the signs say which classes are
birational.  Each MMP-step fact is decided once: `run_mmp` reads nefness
off the classes it pairs with D, so neither it nor `_negative_contraction`
names `nefness`, and extremality is decided inside `mmp.contract` (one
`is_extreme` LP), so neither names `is_extreme`.  The map's flags
(`fan.MorphismFlags`) alone decide whether a class is extremal and its
supporting divisor: `curves.ne_cone` lists the classes their `is_extreme`
accepts and names no `extreme_rays`, and `curves.supporting_divisor` is
gone, `mmp.contract` reading `supporting` off the flags.  Whether a cone
of generators holds a line is `exactlin.extreme_rays`' verdict, its
PreconditionError, so it is the one caller of `cone_contains_line`.  `swap_cells` takes no
relations (`swap_cells(m, survivors, removed, added)`): it reads m's
contracted relations off `check_morphism` and derives the rest.  Both
birational steps, `mmp.contract` and `mmp._flip_contracted`, build their
circuits' cells in one helper, `mmp._swap_circuits`, the one caller of
`swap_cells`.
`newton.normal_fan` reads each vertex's cone off the facets of
`newton_polytope` and runs no double description of its own.
`sections.verify_ckm` certifies every degree at once by Farkas
multipliers: it enumerates no lattice points, rounds no divisor and takes
no degree bound.
`Fan.support_convex` runs no double description of the hull, and
`extreme_rays_of_halfspaces` builds no identity span when there are no
equations.  So none of the second implementations can come back
unnoticed.  (The replaced routines are the oracles
`fan_oracle.triangulates`, `fan_oracle.triangulates_by_membership`,
`fan_oracle.triangulates_by_facet_map`, `fan_oracle.swap_cells`,
`fan_oracle.normal_fan`,
`covering_oracle.hull_support_convex`,
`covering_oracle.paired_support_convex`,
`lattice_oracle.support_function` and `lattice_oracle.ckm_by_degrees`.)"""

import ast
import inspect
from pathlib import Path

from ast_refs import names, package_trees, references, users
from toricmmp import fan

GONE = {"_simplicial_contains", "integer_multiple_for_solvability",
        "SectionCone", "quotient_matrix", "_unpaired_facets", "_relations",
        "_lattice_free_of", "_paired_facets", "_contracted_facets",
        "star", "_face_holders", "classify_cone", "ConeClass", "is_proper",
        "projective", "wall_relation", "is_q_cartier", "principal_divisor",
        "is_cartier", "is_integral", "save_fan", "_jsonable",
        "supporting_divisor"}


def test_no_second_implementation():
    refs = references()
    assert not {key.split(".")[1] for key in refs} & GONE
    assert not set().union(*refs.values()) & GONE
    triangulates = refs["fan._triangulates"]
    assert "_on_boundary" in triangulates
    assert "cone_contains" not in triangulates
    assert users(refs, "_facet_map") == {"fan.walls"}
    assert "certify_fan" not in refs["fan.common_refinement"]
    assert not triangulates & {"support_convex", "extreme_rays_of_halfspaces"}
    assert users(refs, "_on_boundary") == {"fan.Fan", "fan._triangulates"}
    swap = refs["fan.swap_cells"]
    assert "_triangulates" in swap
    assert not swap & {"cone_contains", "_on_boundary", "cone_span_perp"}
    assert _signature(fan._triangulates) == [("F", inspect.Parameter.empty),
                                            ("new", None), ("removed", ())]
    assert [name for name, _ in _signature(fan.swap_cells)] == [
        "m", "survivors", "removed", "added"]
    assert users(refs, "swap_cells") == {"mmp._swap_circuits"}
    for key in ("fan.check_morphism", "fan.swap_cells"):
        assert "walls" in refs[key], key
    assert users(refs, "_merge_groups") == {"mmp.contract_face"}
    for key in ("mmp.contract", "mmp._flip_contracted"):
        assert "_swap_circuits" in refs[key], key
    assert users(refs, "_facet_owners") == {"fan.cone_covered", "fan.Fan",
                                            "fan._facet_map"}
    assert users(refs, "solve_linear") == {"fan.parallelepiped_points"}
    assert users(refs, "smith_solve") == {"divisor._covector",
                                          "exactlin.solve_linear",
                                          "mmp._section_of_projection"}
    solvers = users(refs, "smith_solve")
    for key, node in _statements():
        if key in solvers:
            calls, looped = _calls(node, "smith_solve")
            assert len(calls) == 1 and not looped, key
    assert users(refs, "_covector") == {"divisor.support_function",
                                        "divisor.pullback"}
    assert "rank" in refs["mmp.contract_face"]
    assert users(refs, "cone_span_perp") >= {
        "fan.cone_facets", "fan._regular_triangulation",
        "singularities._low_discrepancy_points"}
    for key in users(refs, "cone_span_perp"):
        assert "scale_to_integer" not in refs[key], key
    assert "scale_to_integer" not in refs["fan.cone_span_perp"]
    assert "Fraction" not in refs["fan.positive_on"]
    mmp = set().union(*(names for key, names in refs.items()
                        if key.startswith("mmp.")))
    assert not mmp & {"Wall", "wall_relation", "cone_dim"}
    assert "fano" not in refs["mmp._negative_contraction"]
    for key in ("mmp.run_mmp", "mmp._negative_contraction"):
        assert not refs[key] & {"nefness", "is_extreme"}, key
    assert "is_extreme" in refs["mmp.contract"]
    # the relative Mori cone is decided on the map's flags alone, and a
    # cone of generators is tested for a line by `extreme_rays` alone
    assert "is_extreme" in refs["curves.ne_cone"]
    assert "extreme_rays" not in refs["curves.ne_cone"]
    assert users(refs, "cone_contains_line") == {"exactlin.extreme_rays"}
    assert "newton_polytope" in refs["newton.normal_fan"]
    assert "extreme_rays_of_halfspaces" not in refs["newton.normal_fan"]
    assert not refs["sections.verify_ckm"] & {"lattice_points", "round_down",
                                              "lp_feasible"}
    for path in Path(fan.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "m_max" not in text and "m-max" not in text, path.name


def test_contracted_pairs_are_built_once_per_map():
    refs = references()
    assert not refs["curves.contracted_walls"] & {"walls", "CurveClass"}
    builders = {"fan.check_morphism", "fan.swap_cells"}
    statements = _statements()
    assert {key for key, node in statements
            if _calls(node, "CurveClass")[0]} == builders
    assert {key for key, node in statements
            if any(k.arg == "contracted"
                   for call in _calls(node, "MorphismFlags")[0]
                   for k in call.keywords)} == builders
    # the flags' verdicts take the class, not its coefficients; `xl`'s
    # `is_extreme` is the LP on vectors
    for key, node in statements:
        for name in ("is_extreme", "supporting", "certify_ray"):
            for call in _calls(node, name)[0]:
                if getattr(getattr(call.func, "value", None), "id", None) \
                        == "xl":
                    continue
                assert not any(isinstance(arg, ast.Attribute)
                               and arg.attr == "coeffs"
                               for arg in call.args), (key, name)


def test_support_convex_and_the_double_description_take_no_detour():
    (fan_class,) = [node for node in ast.parse(Path(fan.__file__).read_text()).body
                    if getattr(node, "name", None) == "Fan"]
    (method,) = [node for node in fan_class.body
                 if getattr(node, "name", None) == "support_convex"]
    assert not names(method) & {"extreme_rays_of_halfspaces", "cone_covered"}
    assert {"nullspace", "_on_boundary", "_facet_owners"} <= names(method)
    refs = references()
    assert "identity_matrix" not in refs["exactlin.extreme_rays_of_halfspaces"]


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _statements():
    """("module.name", node) for each top-level statement of the package,
    keyed as `references` keys it."""
    return [(f"{module}.{getattr(node, 'name', module)}", node)
            for module, tree in package_trees().items() for node in tree.body]


def _calls(node, name):
    """(the calls of `name`, as a bare name or an attribute, under node;
    those of them inside a loop or a comprehension)."""
    def calls(top):
        return [sub for sub in ast.walk(top) if isinstance(sub, ast.Call)
                and name in (getattr(sub.func, "id", None),
                             getattr(sub.func, "attr", None))]
    looped = {id(c) for loop in ast.walk(node) if isinstance(loop, _LOOPS)
              for c in calls(loop)}
    found = calls(node)
    return found, [c for c in found if id(c) in looped]


def _signature(function):
    """(name, default) of each parameter of `function`."""
    return [(p.name, p.default)
            for p in inspect.signature(function).parameters.values()]
