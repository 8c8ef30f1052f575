"""Test oracles for fan certification: the whole-fan pairwise check.

`validate_fan` checks the rays and then every cone and every pair of cones
by double description, and `common_refinement` intersects every cone of one
fan with every cone of the other.  These are the routines `fan` ran before
it proved simplicial fans by the triangulation criterion and refined only
the cones two fans do not share.  (`covering_oracle.is_proper` is the
oracle for `fan.is_toric_morphism` and `fan._covers_preimages`.)

`triangulates` is the triangulation criterion as `fan._triangulates` ran
it before it called `Fan.support_convex` and `cone_contains`: its own
double description of the hull for the unpaired facets, and its own
membership test by Cramer's rule (`simplicial_contains`) for the one point.
`triangulates_by_membership` is the criterion as it ran next, until its
one-point test read the determinants the criterion computes: `cone_contains`
on every other cone, which builds each cone's facet normals.
`triangulates_by_facet_map` is the criterion as it ran before its callers
handed it the cells they changed: it builds F's facet map itself and,
given a base, re-derives the kept and removed cells from it.
`swap_cells` is `fan.swap_cells` as it ran before it handed those cells to
`fan._triangulates`: its own copy of the local criterion, with the owners
of the changed facets read off `walls` of both fans, the sides off the
wall relations, and the one-point test by `cone_contains` only when the
step keeps no cell.

`certify_local` is the pairwise check `mmp.contract` ran on a flipping
target before the supporting divisor L of the ray certified it: only the
pairs through the merged cones.  `supports` re-checks L with dot products
and the target as the fan of L's linearity domains, and
`check_supporting` compares both verdicts on a target, and L's existence
(`fan.MorphismFlags.supporting`) with `xl.extreme_rays` over the classes.

`projectivity_certificate` is the covector LP `fan` ran before the wall LP
on the facet map: one covector per maximal cone, equal on shared rays and
strictly convex across every contracted wall.  It needs no simplicial
source, so it checks the wall LP's verdict independently.

`wall_lp_certificate`, `contracted_walls` and `wall_relation` are the
paths `fan` and `curves` ran before `check_morphism` made one pass over
the facet map per map: each placed the images of every paired facet's
union again and computed its kernel relation again, and the Mori scope
converted the source's support to a double description.
`check_contracted` compares them with `check_morphism` and
`curves.contracted_walls`, which returns the (Wall, CurveClass) pairs that
`fan.check_morphism` or `fan.swap_cells` built for the map; the oracle
`contracted_walls` walks `walls` and pairs each wall with a class of its
own.  `wall_coefficients` is `fan.wall_coefficients`
as it ran before it took the relation by Cramer's rule: the
`primitive_kernel` of the transposed rays of the two cones' union.

`regular_cells` is the subdivision `fan.qfactorialize` ran before
`fan.regular_cells` read the cells off lifted signed minors: one
`Fraction` solve per subset for the covector through the lifted points,
by `lp_oracle.solve`, which shares no elimination with `exactlin`.

`normal_fan` is the normal fan of a Newton polyhedron as
`newton.normal_fan` built it before it read each vertex's cone off the
facets of `newton.newton_polytope`: one double description per exponent,
of the cone of w >= 0 on which that exponent attains ord.

The whole-map and whole-fan paths of the package are the oracles of the
MMP step's derivation: `fan.swap_cells` hands each map a step builds its
flags and wall relations and certifies its fan by the cells the step
changed, and `mmp_oracle.check_successor` compares that with
`fan.check_morphism` and `curves.contracted_walls` on an equal map that
carries no step flags, and with `fan.validate_fan` on the whole fan.

`cone_intersection` is the intersection `fan.cone_intersection` ran
before it dropped the first cone's facet normals that the second cone's
generators satisfy: one double description over every facet normal of
both cones.

`shared_pair_verdicts` lets the whole-fan check of `mmp_oracle.contract`
and `certify_local`, which check many of the same pairs of cones of a
flipping target, answer each pair once; each still builds its own verdict.
"""

import contextlib
import itertools
from fractions import Fraction
from typing import Optional

import lattice_oracle
import lp_oracle
from toricmmp import curves as cv
from toricmmp import exactlin as xl
from toricmmp import fan as fn
from toricmmp import mmp
from toricmmp import newton
from toricmmp.errors import InvariantBreach, PreconditionError
from toricmmp.fan import (Fan, FanMap, certify_fan, cone_contains,
                          cone_covered_by_gens, cone_intersection,
                          identity_map, index_rays, qfactorialize, walls)


def _maps_into(m: FanMap, gens):
    """A target maximal cone whose image contains A(cone), or None."""
    imgs = [m.apply(g) for g in gens]
    if m.target.rank == 0:
        return ()
    for tc in m.target.max_cones:
        tg = m.target.cone_gens(tc)
        if all(xl.is_zero(w) or cone_contains(tg, w) for w in imgs):
            return tc
    return None


def validate_fan(F: Fan) -> list:
    """Fan axioms as a verdict list, every pair of cones checked."""
    violations = fn._ray_violations(F)
    if violations:
        return violations
    n = len(F.max_cones)
    return fn._cone_violations(F, range(n), itertools.combinations(range(n), 2))


def simplicial_contains(gens: tuple, det: int, v) -> bool:
    """Is v in the full-dimensional simplicial cone with generator rows
    `gens` and determinant `det`?  By Cramer's rule v = sum t_i g_i with
    t_i = det(gens with row i replaced by v) / det, so v lies in the cone
    exactly when no such determinant has the opposite sign of `det`."""
    return all(xl.integer_det(gens[:i] + (v,) + gens[i + 1:]) * det >= 0
               for i in range(len(gens)))


def triangulates(F: Fan) -> bool:
    """`fan._triangulates` with the hull's facet normals from its own double
    description and the one-point test by `simplicial_contains`."""
    n = F.rank
    if n == 0 or not F.max_cones:
        return False
    dets = []
    for c in F.max_cones:
        if len(c) != n:
            return False
        det = xl.integer_det(F.cone_gens(c))
        if det == 0:
            return False
        dets.append(det)
    normals = None  # facet normals of C, computed on the first unpaired facet
    for facet, owners in fn._facet_map(F).items():
        fg = F.cone_gens(facet)
        if len(owners) == 2:
            a, b = (xl.integer_det(
                fg + F.cone_gens(set(F.max_cones[k]) - set(facet)))
                for k in owners)
            if a * b >= 0:
                return False
        elif len(owners) == 1:
            if normals is None:
                normals, _ = xl.extreme_rays_of_halfspaces(F.rays, (), n)
            if not any(all(xl.dot(u, g) == 0 for g in fg) for u in normals):
                return False
        else:
            return False
    gens0 = F.cone_gens(F.max_cones[0])
    p = tuple(sum(col) for col in zip(*gens0))
    return not any(simplicial_contains(F.cone_gens(c), det, p)
                   for c, det in zip(F.max_cones[1:], dets[1:]))


def triangulates_by_membership(F: Fan) -> bool:
    """`fan._triangulates` (no base) with the one-point test by
    `cone_contains`."""
    if F.rank == 0 or not F.max_cones or not fn._full_dim_simplicial(F):
        return False
    for facet, owners in fn._facet_map(F).items():
        fg = F.cone_gens(facet)
        if len(owners) > 2:
            return False
        if len(owners) == 1:
            if not fn._on_boundary(F.rays, fg):
                return False
            continue
        a, b = (xl.integer_det(
            fg + F.cone_gens(set(F.max_cones[k]) - set(facet)))
            for k in owners)
        if a * b >= 0:
            return False
    p = tuple(sum(col) for col in zip(*F.cone_gens(F.max_cones[0])))
    return not any(cone_contains(F.cone_gens(c), p) for c in F.max_cones[1:])


def triangulates_by_facet_map(F: Fan, base: Optional[Fan] = None) -> bool:
    """`fan._triangulates` with the owners read off F's own facet map and,
    given `base`, the kept and removed cells re-derived from it."""
    if F.rank == 0 or not F.max_cones or not fn._full_dim_simplicial(F):
        return False
    owners = fn._facet_map(F)
    cells = F.max_cones
    kept, facets, removed = set(), owners, {}  # removed: facet -> count
    if base is not None:
        index = {r: i for i, r in enumerate(F.rays)}
        if (base.rank != F.rank or not fn._full_dim_simplicial(base)
                or any(r not in index for r in base.rays)):
            return False
        ours = set(cells)
        for c in base.max_cones:
            c = tuple(sorted(index[base.rays[i]] for i in c))
            if c in ours:
                kept.add(c)
                continue
            for k in range(len(c)):
                f = c[:k] + c[k + 1:]
                removed[f] = removed.get(f, 0) + 1
        changed = {c[:k] + c[k + 1:] for c in cells if c not in kept
                   for k in range(len(c))}
        facets = {f: owners.get(f, ()) for f in changed.union(removed)}
    side = {}  # (facet, opposite ray) -> det(facet gens + opposite ray)
    for facet, own in facets.items():
        if len(own) > 2:
            return False
        fg = F.cone_gens(facet)
        if len(own) == 2:
            (i,), (j,) = (set(cells[k]).difference(facet) for k in own)
            a = side[facet, i] = xl.integer_det(fg + (F.rays[i],))
            b = side[facet, j] = xl.integer_det(fg + (F.rays[j],))
            if a * b >= 0:
                return False
        unpaired = len(own) == 1 or base is not None and (
            removed.get(facet, 0) + sum(cells[k] in kept for k in own) == 1)
        if unpaired and not fn._on_boundary(F.rays, fg):
            return False
    first = next((c for c in cells if c in kept), cells[0])
    p = tuple(map(sum, zip(*F.cone_gens(first))))

    def holds(c):
        for k, i in enumerate(c):
            fg = F.cone_gens(c[:k] + c[k + 1:])
            s = side.get((c[:k] + c[k + 1:], i))
            if s is None:
                s = xl.integer_det(fg + (F.rays[i],))
            if s * xl.integer_det(fg + (p,)) < 0:
                return False
        return True

    return not any(holds(c) for c in cells if c != first and c not in kept)


def swap_cells(m: FanMap, survivors, removed, added) -> FanMap:
    """`fan.swap_cells` with its own local criterion: owners of the changed
    facets read off `walls` of both fans, sides off the wall relations
    (positive on the two rays off each wall), the boundary test on a facet
    of one new cell or of a removed cell that a kept cell owns, the
    one-point test by `cone_contains` only when no cell is kept, and the
    (Wall, CurveClass) pairs of the contracted walls in the order of the
    facet map (`fn._facet_map`), a kept wall's class looked up by its
    rays."""
    F = m.source
    index = {old: new for new, old in enumerate(survivors)}
    removed = set(removed)
    try:
        kept = [tuple(index[i] for i in c) for c in F.max_cones
                if c not in removed]
        new = {tuple(index[i] for i in c) for c in added}
    except KeyError:
        raise InvariantBreach("a cell keeps a ray the step drops") from None
    Z = Fan(F.rank, tuple(F.rays[i] for i in survivors),
            tuple(sorted(set(kept) | new)))
    out = FanMap(m.matrix, Z, m.target)
    landing = fn._landing(out)
    new_facets = {c[:k] + c[k + 1:] for c in new for k in range(len(c))}
    changed = set(new_facets)
    changed.update(tuple(index[i] for i in c[:k] + c[k + 1:])
                   for c in removed for k in range(len(c))
                   if all(i in index for i in c[:k] + c[k + 1:]))
    kept_classes = {w.rays: c for w, c in fn.check_morphism(m).contracted}
    owners = {}  # changed facets of two or more cells -> those cells
    for w in walls(Z):
        if w.rays in changed:
            owners.setdefault(w.rays, set()).update((w.side_a, w.side_b))
    for facet, cells in owners.items():
        if len(cells) > 2:
            raise InvariantBreach(f"facet {facet} of the step has "
                                  f"{len(cells)} cells")
    # a removed cell's facet keeps a kept cell where it was a wall with one
    partner = {w.rays for w in walls(F)
               if (w.side_a in removed) != (w.side_b in removed)}
    for facet in changed:
        if facet in owners:
            continue
        if (facet in new_facets
                or tuple(survivors[i] for i in facet) in partner) \
                and not fn._on_boundary(Z.rays, Z.cone_gens(facet)):
            raise InvariantBreach(f"facet {facet} of the step has one "
                                  "cell inside the support")
    contracted = []
    for facet, owners in fn._facet_map(Z).items():
        if len(owners) != 2:
            continue
        sides = tuple(Z.max_cones[k] for k in owners)
        if facet not in changed:
            c = kept_classes.get(tuple(survivors[i] for i in facet))
            if c is not None:
                contracted.append((fn.Wall(facet, *sides), fn.CurveClass(
                    tuple(c.coeffs[i] for i in survivors))))
            continue
        rel = fn.wall_coefficients(Z, facet, *sides)
        if any(rel[i] <= 0 for i in set(sides[0]) ^ set(sides[1])):
            raise InvariantBreach(f"the cells at facet {facet} of the step "
                                  "lie on one side of it")
        if landing(sides[0] + sides[1]):
            contracted.append((fn.Wall(facet, *sides), fn.CurveClass(rel)))
    if not kept:
        first, *others = sorted(new)
        p = tuple(map(sum, zip(*Z.cone_gens(first))))
        if any(cone_contains(Z.cone_gens(c), p) for c in others):
            raise InvariantBreach("the new cells overlap")
    if not all(map(landing, new)):
        raise InvariantBreach("a new cell maps into no cone of the base")
    object.__setattr__(out, "step_flags", fn.MorphismFlags(
        toric=True, proper=True, contracted=tuple(contracted),
        nrays=len(Z.rays)))
    return out


def cone_intersection(gens_a: tuple, gens_b: tuple) -> tuple:
    """`fan.cone_intersection` over all the facet normals of both cones."""
    if not gens_a or not gens_b:
        return ()
    dim = len(gens_a[0])
    ineqs = list(fn.cone_facets(gens_a)) + list(fn.cone_facets(gens_b))
    eqs = list(fn.cone_span_perp(gens_a)) + list(fn.cone_span_perp(gens_b))
    rays, lin = xl.extreme_rays_of_halfspaces(ineqs, eqs, dim)
    if lin:
        raise InvariantBreach("intersection of strongly convex cones has a line")
    return tuple(rays)


def certify_local(F: Fan, cones, what: str) -> Fan:
    """`certify_fan` for a fan that is valid away from the maximal cones
    `cones` (ray tuples): their strong convexity and extreme generators,
    and each pair of one of them with a maximal cone sharing a ray with it.

    Precondition, which the caller proves: the rays pass the ray checks,
    two cones not in `cones` meet in a common face, and a cone in `cones`
    meets every cone sharing no ray with it only in 0.
    """
    idx = [F.max_cones.index(c) for c in cones]
    near = {tuple(sorted((a, b))) for a in idx
            for b in range(len(F.max_cones))
            if b != a and set(F.max_cones[a]) & set(F.max_cones[b])}
    bad = fn._cone_violations(F, idx, near)
    if bad:
        raise InvariantBreach(f"{what} invalid: {bad}")
    return F


@contextlib.contextmanager
def shared_pair_verdicts():
    """Within the block, `fan._pair_verdict` answers each pair of generator
    tuples once, from a memo that lives as long as the block."""
    memo = {}
    orig = fn._pair_verdict

    def memoized(ga, gb):
        if (ga, gb) not in memo:
            memo[ga, gb] = orig(ga, gb)
        return memo[ga, gb]

    fn._pair_verdict = memoized
    try:
        yield
    finally:
        fn._pair_verdict = orig


def certifies(Z: Fan, merged) -> bool:
    """Does `certify_local` pass Z, checked around the cones `merged`?"""
    try:
        certify_local(Z, merged, "flipping target")
    except InvariantBreach:
        return False
    return True


def supports(m: FanMap, cls, L, Z: Fan) -> bool:
    """Does L certify Z as the target of contracting the class `cls` of m?
    L must pair to 0 with `cls` and to at least 1 with every other class of
    m, and the maximal cones of Z must be L's linearity domains: the cells
    of m's source merged across the contracted walls where L is zero."""
    pairs = cv.contracted_walls(m)
    if cls.pair(L) != 0 or any(c.pair(L) < 1 for _, c in pairs if c != cls):
        return False
    groups = mmp._merge_groups(m.source,
                               [w for w, c in pairs if c.pair(L) == 0])
    domains = {tuple(sorted(set(itertools.chain.from_iterable(g))))
               for g in groups}
    return domains == set(Z.max_cones)


def check_supporting(m: FanMap, cls):
    """Fail unless the map's flags (`fan.MorphismFlags.supporting`) find a
    divisor for exactly the classes that `xl.extreme_rays`, an independent
    oracle, finds extremal among the distinct contracted classes, and
    unless, when `mmp.contract` flips the class `cls`, its divisor and
    `certify_local` both accept its target.  Returns the contraction."""
    classes = cv.mori_classes(m)[0]
    flags = fn.check_morphism(m)
    extremal = set(xl.extreme_rays([c.coeffs for c in classes]))
    for i, c in enumerate(classes):
        assert (flags.supporting(c) is not None) == (i in extremal), (m, c)
    res = mmp.contract(m, [w for w, c in cv.contracted_walls(m) if c == cls])
    if res.kind == "flipping":
        assert supports(m, cls, res.supporting, res.target), (m, cls)
        assert certifies(res.target, res.merged_cones), (m, cls)
    return res


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
    fine = qfactorialize(coarse)
    return fine, identity_map(fine, F1), identity_map(fine, F2)


def regular_cells(F: Fan, cone, heights):
    """Cells of the regular subdivision of one maximal cone induced by the
    lifting heights, or None when the heights are not generic enough."""
    gens = F.cone_gens(cone)
    d = fn.cone_dim(gens)
    cells = []
    for sub in itertools.combinations(cone, d):
        sg = F.cone_gens(sub)
        if fn.cone_dim(sg) != d:
            continue
        rows = list(sg) + list(fn.cone_span_perp(gens))
        rhs = [heights[i] for i in sub] + [Fraction(0)] * len(fn.cone_span_perp(gens))
        m = lp_oracle.solve(rows, rhs)
        if m is None:
            continue
        strict = True
        degenerate = False
        for j in cone:
            if j in sub:
                continue
            val = xl.dot(m, F.rays[j])
            if val == heights[j]:
                degenerate = True
                break
            if val > heights[j]:
                strict = False
                break
        if degenerate:
            return None
        if strict:
            cells.append(tuple(sorted(sub)))
    if not cells:
        return None
    if not cone_covered_by_gens(gens, [F.cone_gens(c) for c in cells]):
        return None
    return cells


def projectivity_certificate(m: FanMap):
    """Divisor coefficients strictly positive on every contracted wall, found
    by an exact LP over per-cone covectors, or None when infeasible."""
    F = m.source
    ncones = len(F.max_cones)
    nvar = ncones * F.rank
    if nvar == 0:
        return tuple()

    def var(ci, k):
        return ci * F.rank + k

    eqs, ineqs = [], []
    idx = {c: i for i, c in enumerate(F.max_cones)}
    for a, b in itertools.combinations(F.max_cones, 2):
        for i in set(a) & set(b):
            row = [Fraction(0)] * nvar
            for k in range(F.rank):
                row[var(idx[a], k)] += F.rays[i][k]
                row[var(idx[b], k)] -= F.rays[i][k]
            eqs.append((tuple(row), Fraction(0)))
    for w in walls(F):
        ca, cb = w.side_a, w.side_b
        both = tuple(sorted(set(ca) | set(cb)))
        if _maps_into(m, F.cone_gens(both)) is None:
            continue
        for (cone_in, cone_out) in ((ca, cb), (cb, ca)):
            for j in set(cone_out) - set(w.rays):
                row = [Fraction(0)] * nvar
                for k in range(F.rank):
                    row[var(idx[cone_in], k)] += F.rays[j][k]
                    row[var(idx[cone_out], k)] -= F.rays[j][k]
                ineqs.append((tuple(row), Fraction(1)))
    sol = xl.feasible_point(ineqs, eqs, dim=nvar)
    if sol is None:
        return None
    coeffs = [Fraction(0)] * len(F.rays)
    for ci, cone in enumerate(F.max_cones):
        for i in cone:
            coeffs[i] = -sum(sol[var(ci, k)] * F.rays[i][k] for k in range(F.rank))
    return tuple(coeffs)


def wall_lp_certificate(m: FanMap):
    """The wall LP of `check_morphism`, with one row per paired facet of the
    facet map whose union maps into a target cone, or None."""
    F = m.source
    if not fn._full_dim_simplicial(F):
        raise PreconditionError("projectivity needs a simplicial source with "
                                "full-dimensional cones")
    nr = len(F.rays)
    ineqs = []
    for s, owners in fn._facet_map(F).items():
        if len(owners) != 2:
            continue
        ca, cb = (F.max_cones[i] for i in owners)
        union = tuple(sorted(set(ca) | set(cb)))
        if _maps_into(m, F.cone_gens(union)) is None:
            continue
        (a,) = lattice_oracle.integer_kernel(xl.transpose([F.rays[i] for i in union]))
        off = next(i for i in ca if i not in s)
        sign = 1 if a[union.index(off)] > 0 else -1
        row = [Fraction(0)] * nr
        for pos, i in enumerate(union):
            row[i] = Fraction(sign * a[pos])
        ineqs.append((tuple(row), Fraction(1)))
    sol = xl.feasible_point(ineqs, (), nr)
    if sol is None:
        return None
    return tuple(sol)


def wall_relation(F: Fan, w) -> cv.CurveClass:
    """The relation of the wall w (`fan.wall_coefficients`), from an
    integer kernel of its own."""
    support = tuple(sorted(set(w.side_a) | set(w.side_b)))
    A = [[F.rays[i][k] for i in support] for k in range(F.rank)]
    ker = lattice_oracle.integer_kernel(A)
    if len(ker) != 1:
        raise InvariantBreach(f"wall relation space has dimension {len(ker)}")
    rel = list(ker[0])
    off = [support.index(i) for i in support if i not in w.rays]
    if len(off) != 2:
        raise InvariantBreach("wall must have exactly two off-wall rays")
    if rel[off[0]] < 0:
        rel = [-c for c in rel]
    if not (rel[off[0]] > 0 and rel[off[1]] > 0):
        raise InvariantBreach("off-wall coefficients are not positive")
    full = [0] * len(F.rays)
    for pos, i in enumerate(support):
        full[i] = rel[pos]
    return cv.CurveClass(tuple(full))


def wall_coefficients(F: Fan, facet: tuple, ca: tuple, cb: tuple) -> tuple:
    """`fan.wall_coefficients` as it ran before Cramer's rule: the
    `primitive_kernel` of the transposed rays of the sorted union of ca and
    cb, signed positive on the first ray off the facet."""
    union = tuple(sorted(set(ca) | set(cb)))
    ker = xl.primitive_kernel(xl.transpose(F.cone_gens(union)), len(union))
    off = [i for i in union if i not in facet]
    if len(off) != 2:
        raise InvariantBreach("wall must have exactly two off-wall rays")
    sign = 1 if ker[union.index(off[0])] > 0 else -1
    rel = [0] * len(F.rays)
    for i, a in zip(union, ker):
        rel[i] = sign * a
    if not (rel[off[0]] > 0 and rel[off[1]] > 0):
        raise InvariantBreach("off-wall coefficients are not positive")
    return tuple(rel)


def contracted_walls(m: FanMap) -> tuple:
    """`curves.contracted_walls` from the source's own support and a walk
    over `walls` that places each wall's union and takes its relation."""
    F = m.source
    if not F.is_simplicial():
        raise PreconditionError("source fan must be simplicial")
    if not F.support_full_dimensional():
        raise PreconditionError("source support must be full-dimensional")
    if not F.support_convex():
        raise PreconditionError("source support must be convex")
    if not (fn.is_toric_morphism(m) and fn._covers_preimages(m)):
        raise PreconditionError("map must be a proper toric morphism")
    out = []
    for w in walls(F):
        merged = tuple(sorted(set(w.side_a) | set(w.side_b)))
        if _maps_into(m, F.cone_gens(merged)) is not None:
            out.append((w, wall_relation(F, w)))
    return tuple(out)


def _outcome(fn_, m):
    try:
        return fn_(m)
    except PreconditionError as e:
        return f"PreconditionError: {e}"


def check_contracted(m: FanMap):
    """Fail unless `curves.contracted_walls` and the ample certificate of
    `check_morphism` equal the oracles', error messages included."""
    assert _outcome(cv.contracted_walls, m) == _outcome(contracted_walls, m), m
    flags = fn.check_morphism(m)
    proper = fn.is_toric_morphism(m) and fn._covers_preimages(m)
    want = wall_lp_certificate(m) if proper else None
    assert flags.ample_certificate == want, m


def normal_fan(E) -> Fan:
    """Normal fan of the Newton polyhedron of E, one double description per
    exponent m: the cone {w >= 0 : <m' - m, w> >= 0 for every m'} is a
    maximal cone exactly when it is full-dimensional."""
    E = newton.check_exponents(E)
    n = len(E[0])
    cones = []
    index: dict = {}
    for m in E:
        ineqs = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        for mp in E:
            if mp != m:
                ineqs.append(tuple(a - b for a, b in zip(mp, m)))
        rays, lin = xl.extreme_rays_of_halfspaces(ineqs, (), n)
        if lin or not rays or xl.rank(rays) < n:
            continue  # m is not a vertex with a full-dimensional domain
        cone = index_rays(index, rays)
        if cone not in cones:
            cones.append(cone)
    return certify_fan(Fan(n, tuple(index), tuple(sorted(cones))),
                       "normal fan")
