"""Test oracle for covering questions: recursive hyperplane splitting.

An independent covering test that accepts any strongly convex cones as the
cover (overlapping, or sticking out of the covered cone) and runs one double
description per piece; membership goes through the LP oracle.  Tests check
`fan.cone_covered` (facet pairing) against it, and the triangulation search
in test_mmp uses it.

`hull_support_convex` is `Fan.support_convex` as it ran before it took
only the normals of the unpaired facets: every facet normal of the cone of
all rays, by a double description of its dual, handed to
`fan.cone_covered`.  `paired_support_convex` is the step between: the
unpaired facets' own normals, one `nullspace` each, kept when every ray
lies on one side and handed to `fan.cone_covered`, which pairs the facets
again.
"""

from cone_oracle import cone_contains
from toricmmp import exactlin as xl
from toricmmp import fan as fn
from toricmmp.errors import InvariantBreach
from toricmmp.fan import (_h_to_gens, cone_dim, cone_facets, cone_span_perp,
                          is_toric_morphism)


def cone_covered(ineqs, eqs, dim, cover, _depth=0) -> bool:
    """Is the (possibly non-pointed) cone {x : ineqs >= 0, eqs = 0} contained
    in the union of the strongly convex cones in `cover`?

    Recursive hyperplane splitting: find a covering cone with full-dimensional
    overlap, split off the part inside it, recurse on the outside pieces.
    """
    if _depth > 200:
        raise InvariantBreach("cone covering recursion too deep")
    gens = _h_to_gens(ineqs, eqs, dim)
    d = cone_dim(gens) if gens else 0
    if d == 0:
        return True
    for cg in cover:
        if all(cone_contains(cg, g) for g in gens):
            return True
    # find a cover member overlapping in full piece dimension
    for cg in cover:
        inter_ineqs = list(ineqs) + list(cone_facets(cg))
        inter_eqs = list(eqs) + list(cone_span_perp(cg))
        ig = _h_to_gens(inter_ineqs, inter_eqs, dim)
        if ig and cone_dim(ig) == d:
            pieces = []
            cur_ineqs = list(ineqs)
            for n in cone_facets(cg):
                outside = cur_ineqs + [tuple(xl.vscale(-1, n))]
                og = _h_to_gens(outside, eqs, dim)
                if og and cone_dim(og) == d:
                    pieces.append(tuple(outside))
                cur_ineqs = cur_ineqs + [tuple(n)]
            for z in cone_span_perp(cg):
                for sgn in (1, -1):
                    outside = cur_ineqs + [tuple(xl.vscale(-sgn, z))]
                    og = _h_to_gens(outside, eqs, dim)
                    if og and cone_dim(og) == d:
                        pieces.append(tuple(outside))
            return all(cone_covered(p, eqs, dim, cover, _depth + 1)
                       for p in pieces)
    return False


def cone_covered_by_gens(gens, cover) -> bool:
    if not gens:
        return True
    return cone_covered(list(cone_facets(gens)), list(cone_span_perp(gens)),
                        len(gens[0]), cover)


def support_convex(F) -> bool:
    """`Fan.support_convex` with the covering decided by splitting."""
    if not F.rays:
        return True
    normals, lin = xl.extreme_rays_of_halfspaces(list(F.rays), (), F.rank)
    return cone_covered(tuple(normals), tuple(lin), F.rank,
                        [F.cone_gens(c) for c in F.max_cones])


def hull_support_convex(F) -> bool:
    """`Fan.support_convex` on the hull's facet normals, the extreme rays
    of the dual cone of all rays."""
    if not F.rays or F.max_cones == (tuple(range(len(F.rays))),):
        return True
    normals, _ = xl.extreme_rays_of_halfspaces(list(F.rays), (), F.rank)
    return fn.cone_covered(normals, xl.rank(F.rays),
                           [F.cone_gens(c) for c in F.max_cones])


def paired_support_convex(F) -> bool:
    """`Fan.support_convex` on the one-sided normals of the unpaired facets
    of the cones of dimension d = dim cone(all rays), cones keyed by their
    generator sets."""
    if not F.rays or F.max_cones == (tuple(range(len(F.rays))),):
        return True
    cells = [F.cone_gens(c) for c in F.max_cones]
    perp = xl.nullspace(F.rays)
    d = F.rank - len(perp)
    owners = {}  # facet generator set -> d-dimensional cells having it
    for c in {frozenset(c): c for c in cells if cone_dim(c) == d}.values():
        if len(c) == d:
            facets = [c[:k] + c[k + 1:] for k in range(d)]
        else:
            facets = [[g for g in c if xl.dot(n, g) == 0]
                      for n in cone_facets(c)]
        for facet in facets:
            owners.setdefault(frozenset(facet), []).append(c)
    normals = []
    for facet, holders in owners.items():
        if len(holders) == 2:
            continue
        (n,) = xl.nullspace(list(facet) + perp, F.rank)
        sides = {x > 0 for v in F.rays if (x := xl.dot(n, v))}
        if len(sides) == 1:
            normals.append(n if sides == {True} else xl.vscale(-1, n))
    return fn.cone_covered(normals, d, cells)


def is_proper(m) -> bool:
    """`fan.is_toric_morphism` and `fan._covers_preimages`: every target
    cone's preimage is covered by the uncut source cones."""
    if not is_toric_morphism(m):
        return False
    cover = [m.source.cone_gens(c) for c in m.source.max_cones]
    At = xl.transpose(m.matrix)
    for tc in m.target.max_cones:
        tg = m.target.cone_gens(tc)
        ineqs = [tuple(xl.mat_vec(At, f)) for f in cone_facets(tg)]
        eqs = [tuple(xl.mat_vec(At, z)) for z in cone_span_perp(tg)]
        if not cone_covered(ineqs, eqs, m.source.rank, cover):
            return False
    return True
