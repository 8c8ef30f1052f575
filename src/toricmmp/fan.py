"""Fans, cones, toric morphisms, and fan surgery.

A Fan stores the lattice rank, the ordered list of primitive ray generators,
and the maximal cones as tuples of ray indices.  Non-simplicial cones are
stored by generator list; faces are computed on demand from the dual
description.  All values are immutable and all operations pure.  Apart from
`validate_fan`, every operation expects valid fans: covering questions are
answered by facet pairing (`cone_covered`), which relies on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from . import exactlin as xl
from .errors import InputError, InvariantBreach, PreconditionError

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


# ---------------------------------------------------------------------------
# cone-level helpers (cones given by generator tuples)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cone_dim(gens: tuple) -> int:
    if not gens:
        return 0
    return xl.rank(gens)


@lru_cache(maxsize=None)
def cone_span_perp(gens: tuple) -> tuple:
    """Basis of the orthogonal complement of span(cone)."""
    if not gens:
        return ()
    return tuple(xl.nullspace(gens, len(gens[0])))


@lru_cache(maxsize=None)
def cone_facets(gens: tuple) -> tuple:
    """Facet normals of the cone within its own span: integer vectors n with
    <n, g> >= 0 for all generators and n vanishing on exactly one facet.
    For a one-dimensional cone the single normal is the ray itself."""
    if not gens:
        return ()
    dim = len(gens[0])
    d = cone_dim(gens)
    if len(gens) == d:
        # simplicial: one normal per omitted generator
        normals = []
        for i in range(len(gens)):
            others = [gens[j] for j in range(len(gens)) if j != i]
            rows = list(others) + list(cone_span_perp(gens))
            ker = xl.nullspace(rows, dim)
            if len(ker) != 1:
                raise InvariantBreach("facet normal not unique on simplicial cone")
            n = xl.scale_to_integer(ker[0])
            if xl.dot(n, gens[i]) < 0:
                n = xl.vscale(-1, n)
            normals.append(tuple(n))
        return tuple(sorted(normals))
    ineqs = [tuple(g) for g in gens]
    rays, lin = xl.extreme_rays_of_halfspaces(ineqs, cone_span_perp(gens), dim)
    if lin:
        raise PreconditionError("cone is not strongly convex")
    return tuple(sorted(rays))


def cone_contains(gens: tuple, v) -> bool:
    """Is v in the cone spanned by `gens`?

    Precondition: `gens` span a strongly convex cone (every cone of a valid
    fan, every `cone_intersection` and every image kept by
    `xl.extreme_rays` does).  Then v lies in the cone exactly when it lies
    in its span (`cone_span_perp` vanishes on v) and every facet normal
    (`cone_facets`) is nonnegative on v.
    """
    if xl.is_zero(v):
        return True
    if not gens:
        return False
    return (all(xl.dot(z, v) == 0 for z in cone_span_perp(gens))
            and all(xl.dot(n, v) >= 0 for n in cone_facets(gens)))


def cone_eq(gens_a: tuple, gens_b: tuple) -> bool:
    return (all(cone_contains(gens_b, g) for g in gens_a)
            and all(cone_contains(gens_a, g) for g in gens_b))


def cone_intersection(gens_a: tuple, gens_b: tuple) -> tuple:
    """Generators (extreme rays) of the intersection of two strongly convex
    cones."""
    if not gens_a or not gens_b:
        return ()
    dim = len(gens_a[0])
    ineqs = list(cone_facets(gens_a)) + list(cone_facets(gens_b))
    eqs = list(cone_span_perp(gens_a)) + list(cone_span_perp(gens_b))
    rays, lin = xl.extreme_rays_of_halfspaces(ineqs, eqs, dim)
    if lin:
        raise InvariantBreach("intersection of strongly convex cones has a line")
    return tuple(rays)


def minimal_face_containing(gens: tuple, vectors) -> Optional[tuple]:
    """Generators of the smallest face of the cone containing all `vectors`,
    or None if some vector is outside the cone."""
    for v in vectors:
        if not cone_contains(gens, v):
            return None
    active = [n for n in cone_facets(gens)
              if all(xl.dot(n, v) == 0 for v in vectors)]
    return tuple(g for g in gens if all(xl.dot(n, g) == 0 for n in active))


def cone_lattice_multiplicity(gens: tuple) -> int:
    """Index of the sublattice generated by the rays inside the lattice of
    the cone's span (simplicial cones)."""
    if not gens:
        return 1
    cols = [[int(g[i]) for g in gens] for i in range(len(gens[0]))]
    inv = xl.smith_invariants(cols)
    out = 1
    for s in inv:
        out *= s
    return out


def parallelepiped_points(gens: tuple) -> list:
    """Nonzero lattice points sum t_i g_i with 0 <= t_i < 1 for a simplicial
    cone, each returned as (point, coefficients t)."""
    dim = len(gens[0])
    lo = [sum(min(0, g[j]) for g in gens) for j in range(dim)]
    hi = [sum(max(0, g[j]) for g in gens) for j in range(dim)]
    A = [[g[j] for g in gens] for j in range(dim)]
    out = []
    for point in itertools.product(*[range(l, h + 1) for l, h in zip(lo, hi)]):
        if all(c == 0 for c in point):
            continue
        t = xl.solve_linear(A, point)
        if t is None:
            continue
        if all(0 <= ti < 1 for ti in t):
            out.append((tuple(point), tuple(t)))
    return out


# covering -------------------------------------------------------------------

def _h_to_gens(ineqs, eqs, dim):
    rays, lin = xl.extreme_rays_of_halfspaces(list(ineqs), list(eqs), dim)
    gens = list(rays)
    for l in lin:
        gens.append(xl.scale_to_integer(l))
        gens.append(xl.scale_to_integer(xl.vscale(-1, l)))
    return tuple(gens)


def cone_covered(ineqs, eqs, dim, cells: Sequence[tuple]) -> bool:
    """Is the (possibly non-pointed) cone C = {x : ineqs >= 0, eqs = 0} the
    union of `cells`?

    Precondition: the cells are cones of one valid fan, each lying in C; a
    cone listed twice counts once.  Facet pairing: with d = dim C, they
    cover C exactly when some cell is d-dimensional and every facet of a
    d-dimensional cell is shared by two of them or lies in a facet of C (a
    row of `ineqs` vanishes on the facet but not on its cell).  Why: then
    the union of the d-dimensional cells is closed, not empty, and open in
    relint C off the codimension-2 faces, which do not disconnect it; so it
    is C.  An unpaired facet inside relint C leaves the points beyond it
    uncovered, and lower-dimensional cells fill no open set.
    """
    gens = _h_to_gens(ineqs, eqs, dim)
    d = cone_dim(gens) if gens else 0
    if d == 0:
        return True
    full = {frozenset(c): c for c in cells if cone_dim(c) == d}
    if not full:
        return False
    owners = {}  # facet generator set -> d-dimensional cells having it
    for c in full.values():
        if len(c) == d:  # simplicial: one facet per omitted generator
            facets = [c[:i] + c[i + 1:] for i in range(d)]
        else:
            facets = [[g for g in c if xl.dot(n, g) == 0]
                      for n in cone_facets(c)]
        for facet in facets:
            owners.setdefault(frozenset(facet), []).append(c)
    for facet, holders in owners.items():
        if len(holders) == 2:
            continue
        # implicit equalities of C vanish on every cell and never count
        if not any(all(xl.dot(r, v) == 0 for v in facet)
                   and any(xl.dot(r, g) != 0 for g in holders[0])
                   for r in ineqs):
            return False
    return True


def cone_covered_by_gens(gens: tuple, cover: Sequence[tuple]) -> bool:
    if not gens:
        return True
    dim = len(gens[0])
    ineqs = list(cone_facets(gens))
    eqs = list(cone_span_perp(gens))
    return cone_covered(ineqs, eqs, dim, cover)


# ---------------------------------------------------------------------------
# Fan and FanMap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fan:
    rank: int
    rays: tuple
    max_cones: tuple  # tuple of tuples of sorted ray indices

    def __post_init__(self):
        rays = tuple(tuple(int(c) for c in r) for r in self.rays)
        cones = tuple(tuple(sorted(set(int(i) for i in c))) for c in self.max_cones)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", cones)
        for r in rays:
            if len(r) != self.rank:
                raise InputError("ray dimension does not match rank")
        for c in cones:
            for i in c:
                if not 0 <= i < len(rays):
                    raise InputError(f"cone refers to unknown ray index {i}")
        if self.rank == 0 and not cones:
            object.__setattr__(self, "max_cones", ((),))

    def cone_gens(self, cone) -> tuple:
        return tuple(self.rays[i] for i in cone)

    def is_simplicial(self) -> bool:
        return all(len(c) == cone_dim(self.cone_gens(c)) for c in self.max_cones)

    def support_full_dimensional(self) -> bool:
        if self.rank == 0:
            return True
        return bool(self.rays) and xl.rank(self.rays) == self.rank

    def support_convex(self) -> bool:
        """Support equals the convex hull cone of all rays (possibly the
        whole space).  The cones must form a valid fan."""
        if not self.rays:
            return True
        # H-representation of the hull: facet normals are the extreme rays of
        # the dual cone, equalities come from the dual's lineality
        normals, lin = xl.extreme_rays_of_halfspaces(list(self.rays), (), self.rank)
        eqs = tuple(xl.scale_to_integer(l) for l in lin)
        return cone_covered(tuple(normals), eqs, self.rank,
                            [self.cone_gens(c) for c in self.max_cones])

    def canonical(self) -> tuple:
        """Canonical hashable form, insensitive to ray ordering (used for
        repetition detection in the MMP driver)."""
        order = sorted(range(len(self.rays)), key=lambda i: self.rays[i])
        pos = {old: new for new, old in enumerate(order)}
        rays = tuple(self.rays[i] for i in order)
        cones = tuple(sorted(tuple(sorted(pos[i] for i in c)) for c in self.max_cones))
        return (self.rank, rays, cones)


def point_fan() -> Fan:
    return Fan(0, (), ((),))


@dataclass(frozen=True)
class FanMap:
    matrix: tuple  # target_rank x source_rank integer matrix
    source: Fan
    target: Fan

    def __post_init__(self):
        mat = tuple(tuple(int(c) for c in row) for row in self.matrix)
        object.__setattr__(self, "matrix", mat)
        if len(mat) != self.target.rank:
            raise InputError("matrix row count must equal target rank")
        for row in mat:
            if len(row) != self.source.rank:
                raise InputError("matrix column count must equal source rank")

    def apply(self, v) -> tuple:
        return tuple(xl.dot(row, v) for row in self.matrix)


def identity_map(source: Fan, target: Fan) -> FanMap:
    if source.rank != target.rank:
        raise InputError("identity map requires equal ranks")
    return FanMap(xl.identity_matrix(source.rank), source, target)


def map_to_point(source: Fan) -> FanMap:
    return FanMap((), source, point_fan())


# ---------------------------------------------------------------------------
# validation and classification
# ---------------------------------------------------------------------------

def validate_fan(F: Fan) -> list:
    """Fan axioms as a verdict list; empty iff F is a valid fan."""
    violations = []
    seen = {}
    for i, r in enumerate(F.rays):
        if xl.is_zero(r):
            violations.append(f"ray {i} is zero")
            continue
        if tuple(xl.primitive(r)) != r:
            violations.append(f"ray {i} = {r} is not primitive")
        if r in seen:
            violations.append(f"rays {seen[r]} and {i} coincide")
        seen[r] = i
    used = set(itertools.chain.from_iterable(F.max_cones))
    for i in range(len(F.rays)):
        if i not in used:
            violations.append(f"ray {i} occurs in no maximal cone")
    if violations:
        return violations

    cones = list(F.max_cones)
    for c in cones:
        gens = F.cone_gens(c)
        if gens and xl.cone_contains_line(list(gens)):
            violations.append(f"cone {c} is not strongly convex (contains a line)")
    if violations:
        return violations

    for c in cones:
        gens = F.cone_gens(c)
        if not gens:
            continue
        ext = set(xl.extreme_rays(gens))
        if len(ext) != len(gens):
            violations.append(f"cone {c} lists a non-extreme generator")
    for a, b in itertools.combinations(range(len(cones)), 2):
        ga, gb = F.cone_gens(cones[a]), F.cone_gens(cones[b])
        if not ga or not gb:
            continue
        inter = cone_intersection(ga, gb)
        fa = minimal_face_containing(ga, inter)
        fb = minimal_face_containing(gb, inter)
        ok = (fa is not None and fb is not None
              and (not inter or (cone_eq(inter, fa) and cone_eq(inter, fb)))
              and (inter or (not fa and not fb) or (fa == () and fb == ()))
              )
        if inter == ():
            ok = fa == () and fb == ()
        if not ok:
            violations.append(
                f"cones {cones[a]} and {cones[b]} do not intersect in a common face")
    for a, b in itertools.permutations(range(len(cones)), 2):
        ga, gb = F.cone_gens(cones[a]), F.cone_gens(cones[b])
        if ga and gb and set(cones[a]) != set(cones[b]):
            if all(cone_contains(gb, g) for g in ga):
                violations.append(f"cone {cones[a]} is contained in cone {cones[b]}")
    return violations


def certify_fan(F: Fan, what: str) -> Fan:
    """F itself once `validate_fan` passes it; a fan built by the program
    that breaks the axioms is a bug."""
    bad = validate_fan(F)
    if bad:
        raise InvariantBreach(f"{what} invalid: {bad}")
    return F


@dataclass(frozen=True)
class ConeClass:
    kind: str  # 'smooth' | 'simplicial' | 'non-simplicial'
    multiplicity: Optional[int]


def classify_cone(F: Fan, cone) -> ConeClass:
    cone = tuple(sorted(cone))
    if cone not in {tuple(sorted(c)) for c in F.max_cones}:
        # accept faces of listed cones as well
        if not any(set(cone) <= set(c) for c in F.max_cones):
            raise PreconditionError(f"cone {cone} does not belong to the fan")
    gens = F.cone_gens(cone)
    if not gens:
        return ConeClass("smooth", 1)
    d = cone_dim(gens)
    if len(gens) != d:
        return ConeClass("non-simplicial", None)
    mult = cone_lattice_multiplicity(gens)
    return ConeClass("smooth" if mult == 1 else "simplicial", mult)


# ---------------------------------------------------------------------------
# star and star subdivision
# ---------------------------------------------------------------------------

def star(F: Fan, tau) -> Fan:
    """Star fan of the face `tau` (ray-index tuple) in the quotient lattice."""
    tau = tuple(sorted(set(tau)))
    if not tau:
        return F
    tgens = F.cone_gens(tau)
    holders = [c for c in F.max_cones if set(tau) <= set(c)]
    if not holders:
        raise PreconditionError(f"{tau} is not a face of any maximal cone")
    for c in holders:
        mf = minimal_face_containing(F.cone_gens(c), tgens)
        if mf is None or not cone_eq(tgens, mf):
            raise PreconditionError(f"{tau} is not a face of cone {c}")
    return certify_fan(
        quotient_fan(F, xl.quotient_projection(tgens, F.rank), holders),
        "star fan")


def quotient_fan(F: Fan, P, cones) -> Fan:
    """Images of the given cones of F under the lattice projection P.

    Each image cone keeps the primitive extreme rays of its projected
    generators; rays are indexed by first appearance, and image cones lying
    inside another image cone are dropped.  The result is not validated.
    """
    ray_list: list = []
    images = []
    for c in cones:
        imgs = [tuple(int(a) for a in xl.mat_vec(P, F.rays[i])) for i in c]
        imgs = [w for w in imgs if not xl.is_zero(w)]
        if not imgs:
            images.append(())
            continue
        ext = sorted({xl.primitive(imgs[k]) for k in xl.extreme_rays(imgs)})
        idxs = []
        for r in ext:
            if r not in ray_list:
                ray_list.append(r)
            idxs.append(ray_list.index(r))
        images.append(tuple(sorted(idxs)))
    keep = []
    for c in set(images):
        gens_c = tuple(ray_list[i] for i in c)
        if not any(set(c) < set(d) or
                   (c != d and all(cone_contains(tuple(ray_list[i] for i in d), v)
                                   for v in gens_c))
                   for d in set(images)):
            keep.append(c)
    return Fan(len(P), tuple(ray_list), tuple(sorted(keep)))


def star_subdivision(F: Fan, v) -> Fan:
    """Elementary subdivision inserting the primitive vector v as a new ray."""
    v = tuple(int(c) for c in v)
    if xl.is_zero(v):
        raise InputError("cannot subdivide at the zero vector")
    if tuple(xl.primitive(v)) != v:
        raise InputError(f"{v} is not primitive")
    if v in F.rays:
        raise PreconditionError(f"{v} is already a ray of the fan")
    holders = [c for c in F.max_cones if cone_contains(F.cone_gens(c), v)]
    if not holders:
        raise PreconditionError(f"{v} lies outside the fan support")
    rays = F.rays + (v,)
    vi = len(F.rays)
    new_cones = []
    for c in F.max_cones:
        gens = F.cone_gens(c)
        if c not in holders:
            new_cones.append(c)
            continue
        for n in cone_facets(gens):
            if xl.dot(n, v) > 0:
                facet = tuple(i for i in c if xl.dot(n, F.rays[i]) == 0)
                new_cones.append(tuple(sorted(facet + (vi,))))
    return Fan(F.rank, rays, tuple(sorted(set(new_cones))))


# ---------------------------------------------------------------------------
# regular triangulation (Q-factorialization) and resolution
# ---------------------------------------------------------------------------

def _regular_cells(F: Fan, cone, heights):
    """Cells of the regular subdivision of one maximal cone induced by the
    lifting heights, or None when the heights are not generic enough."""
    gens = F.cone_gens(cone)
    d = cone_dim(gens)
    cells = []
    for sub in itertools.combinations(cone, d):
        sg = F.cone_gens(sub)
        if cone_dim(sg) != d:
            continue
        rows = list(sg) + list(cone_span_perp(gens))
        rhs = [heights[i] for i in sub] + [Fraction(0)] * len(cone_span_perp(gens))
        m = xl.solve_linear(rows, rhs)
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


def qfactorialize(F: Fan):
    """Small projective Q-factorialization: simplicial fan with the same rays
    and support, via a regular triangulation from deterministic generic
    lifting heights.  Returns (fan, refinement map); identity when already
    simplicial."""
    fan, fmap, _ = qfactorialize_with_heights(F)
    return fan, fmap


def qfactorialize_with_heights(F: Fan):
    if F.is_simplicial():
        return F, identity_map(F, F), None
    for c in _PRIMES:
        heights = {i: Fraction(c) ** (i + 1) for i in range(len(F.rays))}
        new_cones = []
        ok = True
        for cone in F.max_cones:
            gens = F.cone_gens(cone)
            if len(cone) == cone_dim(gens):
                new_cones.append(cone)
                continue
            cells = _regular_cells(F, cone, heights)
            if cells is None:
                ok = False
                break
            new_cones.extend(cells)
        if not ok:
            continue
        out = Fan(F.rank, F.rays, tuple(sorted(set(new_cones))))
        bad = validate_fan(out)
        if bad:
            continue
        return out, identity_map(out, F), heights
    raise InvariantBreach("no generic lifting heights found")


def wall_convexity_certificate(F: Fan, triangulated: Fan, heights) -> bool:
    """Check strict convexity of the lifting across every internal wall of
    every subdivided cone (the projectivity certificate)."""
    if heights is None:
        return True
    for cone in F.max_cones:
        cells = [c for c in triangulated.max_cones
                 if set(c) <= set(cone)]
        for c1, c2 in itertools.combinations(cells, 2):
            shared = set(c1) & set(c2)
            gens = triangulated.cone_gens(tuple(sorted(shared)))
            if len(shared) != len(c1) - 1 or cone_dim(triangulated.cone_gens(c1)) - 1 != cone_dim(gens):
                continue
            sg = triangulated.cone_gens(c1)
            rows = list(sg) + list(cone_span_perp(F.cone_gens(cone)))
            rhs = [heights[i] for i in c1] + [Fraction(0)] * (len(rows) - len(c1))
            m = xl.solve_linear(rows, rhs)
            for j in set(c2) - shared:
                if not xl.dot(m, triangulated.rays[j]) < heights[j]:
                    return False
    return True


def resolve(F: Fan):
    """Smooth refinement with the same support.

    First triangulate, then repeatedly star-subdivide the lexicographically
    first non-smooth cone at its minimal-depth primitive parallelepiped
    point; the total multiplicity strictly drops at each step.
    """
    cur, _ = qfactorialize(F)
    for _ in range(100000):
        bad = sorted(c for c in cur.max_cones
                     if cone_lattice_multiplicity(cur.cone_gens(c)) > 1)
        if not bad:
            break
        cone = min(bad, key=lambda c: tuple(sorted(cur.cone_gens(c))))
        pts = parallelepiped_points(cur.cone_gens(cone))
        cands = []
        for p, t in pts:
            if tuple(xl.primitive(p)) != p:
                continue
            cands.append((sum(t), p))
        if not cands:
            raise InvariantBreach("non-smooth cone without interior lattice point")
        _, v = min(cands)
        cur = star_subdivision(cur, v)
    else:
        raise InvariantBreach("resolution did not terminate")
    return cur, identity_map(cur, F)


def total_multiplicity(F: Fan) -> int:
    return sum(cone_lattice_multiplicity(F.cone_gens(c)) for c in F.max_cones)


# ---------------------------------------------------------------------------
# common refinement
# ---------------------------------------------------------------------------

def common_refinement(F1: Fan, F2: Fan):
    """Simplicial common refinement of two fans with equal support.

    Cones are the pairwise intersections, triangulated with no rays beyond
    the intersections' extreme rays.  Returns (fan, map to F1, map to F2).
    """
    if F1.rank != F2.rank:
        raise PreconditionError("fans live in different lattices")
    cov1 = [F1.cone_gens(c) for c in F1.max_cones]
    cov2 = [F2.cone_gens(c) for c in F2.max_cones]
    # table[i][j] = cov1[i] meet cov2[j]; row i cuts F2 down to cov1[i]
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
    maximal = []
    for p in pieces:
        if not any(q != p and all(cone_contains(q, g) for g in p) for q in pieces):
            maximal.append(p)
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
        out = Fan(F1.rank, (), ())  # rank 0 gets the zero cone
        return out, identity_map(out, F1), identity_map(out, F2)
    coarse = certify_fan(
        Fan(F1.rank, tuple(ray_list), tuple(sorted(set(cones)))),
        "refinement fan")
    fine, _ = qfactorialize(coarse)
    return fine, identity_map(fine, F1), identity_map(fine, F2)


# ---------------------------------------------------------------------------
# morphism checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MorphismFlags:
    toric: bool
    proper: bool
    projective: bool
    ample_certificate: Optional[tuple] = None


def _maps_into(m: FanMap, gens) -> Optional[tuple]:
    """A target maximal cone whose image contains A(cone), or None."""
    imgs = [m.apply(g) for g in gens]
    if m.target.rank == 0:
        return ()
    for tc in m.target.max_cones:
        tg = m.target.cone_gens(tc)
        if all(xl.is_zero(w) or cone_contains(tg, w) for w in imgs):
            return tc
    return None


def is_toric_morphism(m: FanMap) -> bool:
    return all(_maps_into(m, m.source.cone_gens(c)) is not None
               for c in m.source.max_cones)


def _full_dim_simplicial(F: Fan) -> bool:
    n = F.rank
    return all(len(c) == n and cone_dim(F.cone_gens(c)) == n
               for c in F.max_cones)


def _facet_owners(F: Fan) -> dict:
    """Map each codimension-one ray subset of a maximal cone to the indices of
    the maximal cones having it as a facet.  Only meaningful when every
    maximal cone is simplicial and full dimensional."""
    seen = {}
    for ci, c in enumerate(F.max_cones):
        for drop in c:
            s = tuple(sorted(set(c) - {drop}))
            seen.setdefault(s, []).append(ci)
    return seen


def _cut(gens: tuple, ineqs, eqs, dim) -> tuple:
    """Generators of cone(gens) intersected with {ineqs >= 0, eqs = 0}."""
    if (all(xl.dot(r, g) >= 0 for r in ineqs for g in gens)
            and all(xl.dot(z, g) == 0 for z in eqs for g in gens)):
        return gens
    return _h_to_gens(list(cone_facets(gens)) + list(ineqs),
                      list(cone_span_perp(gens)) + list(eqs), dim)


def is_proper(m: FanMap) -> bool:
    """Preimage of the target support equals the source support (the source
    must be a valid fan): for each target cone, the source cones cut by its
    preimage Q must cover Q (`cone_covered`)."""
    if not is_toric_morphism(m):
        return False
    n = m.source.rank
    At = xl.transpose(m.matrix)
    for tc in m.target.max_cones:
        tg = m.target.cone_gens(tc)
        # rows of (facet o A): facet-normal composed with the lattice map
        ineqs = [tuple(xl.mat_vec(At, f)) for f in cone_facets(tg)]
        eqs = [tuple(xl.mat_vec(At, z)) for z in cone_span_perp(tg)]
        cells = [_cut(m.source.cone_gens(c), ineqs, eqs, n)
                 for c in m.source.max_cones]
        if not cone_covered(ineqs, eqs, n, cells):
            return False
    return True


@dataclass(frozen=True)
class Wall:
    rays: tuple      # sorted ray indices of the codimension-1 face
    side_a: tuple    # maximal cone (ray indices)
    side_b: tuple


@lru_cache(maxsize=None)
def walls(F: Fan) -> tuple:
    """Codimension-1 faces shared by exactly two maximal cones.

    Precondition: F is a valid fan.  Then maximal cones of equal dimension d
    whose shared rays span dimension d - 1 meet in the cone of those rays,
    so no intersection is computed: the intersection is a face of both, not
    all of either (maximal cones are not nested), so of dimension d - 1, and
    each of its rays is a ray of both, that is, a shared ray.
    """
    out = []
    for a, b in itertools.combinations(range(len(F.max_cones)), 2):
        ca, cb = F.max_cones[a], F.max_cones[b]
        ga, gb = F.cone_gens(ca), F.cone_gens(cb)
        if not ga or not gb:
            continue
        da = cone_dim(ga)
        if cone_dim(gb) != da:
            continue
        shared = tuple(sorted(set(ca) & set(cb)))
        sg = F.cone_gens(shared)
        if shared and cone_dim(sg) == da - 1:
            out.append(Wall(shared, ca, cb))
    return tuple(out)


def _wall_lp_certificate(m: FanMap):
    """Divisor coefficients strictly positive on every contracted wall class.
    Requires a simplicial source with full-dimensional maximal cones, where
    any coefficient vector defines a piecewise linear support function and
    positivity on the wall class equals strict convexity across the wall.
    NotImplemented means the structure fell outside that case."""
    F = m.source
    nr = len(F.rays)
    ineqs = []
    for s, owners in _facet_owners(F).items():
        if len(owners) != 2:
            continue
        ca, cb = (F.max_cones[i] for i in owners)
        union = tuple(sorted(set(ca) | set(cb)))
        if _maps_into(m, F.cone_gens(union)) is None:
            continue
        ker = xl.integer_kernel(xl.transpose([F.rays[i] for i in union]))
        if len(ker) != 1:
            return NotImplemented
        a = list(ker[0])
        off = next(i for i in ca if i not in s)
        ap = a[union.index(off)]
        if ap == 0:
            return NotImplemented
        if ap < 0:
            a = [-x for x in a]
        row = [Fraction(0)] * nr
        for pos, i in enumerate(union):
            row[i] = Fraction(a[pos])
        ineqs.append((tuple(row), Fraction(1)))
    sol = xl.feasible_point(ineqs, (), nr)
    if sol is None:
        return None
    return tuple(sol)


def projectivity_certificate(m: FanMap) -> Optional[tuple]:
    """Divisor coefficients strictly positive on every contracted wall, found
    by an exact LP over per-cone covectors, or None when infeasible."""
    F = m.source
    if F.max_cones and _full_dim_simplicial(F):
        fast = _wall_lp_certificate(m)
        if fast is not NotImplemented:
            return fast
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


@lru_cache(maxsize=None)
def check_morphism(m: FanMap) -> MorphismFlags:
    toric = is_toric_morphism(m)
    proper = is_proper(m) if toric else False
    cert = projectivity_certificate(m) if toric else None
    return MorphismFlags(toric=toric, proper=proper,
                         projective=cert is not None,
                         ample_certificate=cert)
