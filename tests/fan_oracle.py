"""Test oracles for fan certification: the whole-fan pairwise check.

`validate_fan` checks the rays and then every cone and every pair of cones
by double description, and `common_refinement` intersects every cone of one
fan with every cone of the other.  These are the routines `fan` ran before
it proved simplicial fans by the triangulation criterion and refined only
the cones two fans do not share.  (`covering_oracle.is_proper` is the
oracle for `fan.is_proper`.)
"""

import itertools

from toricmmp import fan as fn
from toricmmp.errors import PreconditionError
from toricmmp.fan import (Fan, certify_fan, cone_contains, cone_covered_by_gens,
                          cone_intersection, identity_map, qfactorialize)


def validate_fan(F: Fan) -> list:
    """Fan axioms as a verdict list, every pair of cones checked."""
    violations = fn._ray_violations(F)
    if violations:
        return violations
    n = len(F.max_cones)
    return fn._cone_violations(F, range(n), itertools.combinations(range(n), 2))


def common_refinement(F1: Fan, F2: Fan):
    """`fan.common_refinement` from the whole table of intersections."""
    if F1.rank != F2.rank:
        raise PreconditionError("fans live in different lattices")
    cov1 = [F1.cone_gens(c) for c in F1.max_cones]
    cov2 = [F2.cone_gens(c) for c in F2.max_cones]
    table = [[cone_intersection(g1, g2) for g2 in cov2] for g1 in cov1]
    for g1, row in zip(cov1, table):
        if g1 and not cone_covered_by_gens(g1, row):
            raise PreconditionError("fan supports differ")
    for j, g2 in enumerate(cov2):
        if g2 and not cone_covered_by_gens(g2, [row[j] for row in table]):
            raise PreconditionError("fan supports differ")
    pieces = []
    for inter in itertools.chain.from_iterable(table):
        if inter and inter not in pieces:
            pieces.append(inter)
    maximal = [p for p in pieces
               if not any(q != p and all(cone_contains(q, g) for g in p)
                          for q in pieces)]
    ray_list: list = []
    cones = []
    for p in maximal:
        idxs = []
        for r in p:
            if r not in ray_list:
                ray_list.append(r)
            idxs.append(ray_list.index(r))
        cones.append(tuple(sorted(idxs)))
    if not maximal:
        out = Fan(F1.rank, (), ())
        return out, identity_map(out, F1), identity_map(out, F2)
    coarse = certify_fan(
        Fan(F1.rank, tuple(ray_list), tuple(sorted(set(cones)))),
        "refinement fan")
    fine, _ = qfactorialize(coarse)
    return fine, identity_map(fine, F1), identity_map(fine, F2)
