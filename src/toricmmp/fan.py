"""Fans, cones, toric morphisms, and fan surgery.

A Fan stores the lattice rank, the ordered list of primitive ray generators,
and the maximal cones as tuples of ray indices.  Non-simplicial cones are
stored by generator list; faces are computed on demand from the dual
description.  All values are immutable and all operations pure.  Apart from
`validate_fan`, every operation expects valid fans.

Facets are paired in one loop (`_facet_owners`) and tested against the
boundary of the cone of all rays by one routine (`_on_boundary`).  The
pairing gives the fan's facet map (`_facet_map`), built once per fan by
`walls`, which is cached and lists the walls in facet-map order; the
triangulation criterion, `check_morphism` and `swap_cells` read that one
list.  It also gives the covering test (`cone_covered`), which decides
properness and support equality, and `Fan.support_convex` decides on the
pairing and the boundary test alone.  A full-dimensional simplicial fan is
valid by the triangulation criterion (De Loera-Rambau-Santos,
*Triangulations*, 2010, ch. 4), with no pairwise double description: a
shared facet has its two cones on opposite sides, an unshared one lies on
the boundary, and one point is covered once.  One routine runs it and
states its proof, `_triangulates`, on a whole fan or, given the cells it
adds and removes, on a fan built from a valid one (by `validate_fan` with a
base, for a common refinement, and by `swap_cells`, for an MMP step's fan).
Two valid fans share most rays and cones, and what they share is read by
index: `common_refinement` intersects only the cones they do not share,
`_covers_preimages` skips a target cone that is a source cell under the
identity and cuts no source cone under an onto map, and `check_morphism`
places an image on a target ray into the cones listing it; its flags
(`MorphismFlags`) keep the map's contracted walls with their classes and
the verdicts on them.  One routine, `regular_cells`, builds the regular
subdivision that integer lifting heights induce; `_regular_triangulation`
(for `qfactorialize` and `common_refinement`) and the corpus generator
call it.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Optional, Sequence

from . import exactlin as xl
from .errors import InputError, InvariantBreach, PreconditionError
from .record import record

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


# ---------------------------------------------------------------------------
# cone-level helpers (cones given by generator tuples)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cone_dim(gens: tuple) -> int:
    """The dimension of the span of the integer generators: n for n of them
    in rank n with a nonzero `xl.integer_det`, else `xl.rank`."""
    if not gens:
        return 0
    if len(gens) == len(gens[0]) and xl.integer_det(gens):
        return len(gens)
    return xl.rank(gens)


@lru_cache(maxsize=None)
def cone_span_perp(gens: tuple) -> tuple:
    """Basis of the orthogonal complement of span(cone), as primitive
    integer rows; empty, with no elimination, when the cone is
    full-dimensional."""
    if not gens or cone_dim(gens) == len(gens[0]):
        return ()
    return tuple(xl.nullspace(gens, len(gens[0])))


@lru_cache(maxsize=None)
def cone_facets(gens: tuple) -> tuple:
    """Facet normals of the cone within its own span: integer vectors n with
    <n, g> >= 0 for all generators and n vanishing on exactly one facet.
    For a one-dimensional cone the single normal is the ray itself.  On a
    simplicial cone the normal opposite g_i is the `primitive_kernel` of the
    other generators and an integer basis of the span's complement, signed
    positive on g_i; otherwise the normals are the rays of the dual cone."""
    if not gens:
        return ()
    dim = len(gens[0])
    d = cone_dim(gens)
    if len(gens) == d:
        perp = cone_span_perp(gens)
        normals = []
        for i in range(len(gens)):
            n = xl.primitive_kernel(gens[:i] + gens[i + 1:] + perp, dim)
            normals.append(n if xl.dot(n, gens[i]) > 0 else xl.vscale(-1, n))
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
    cones, sorted and primitive.  A facet normal of the first cone that
    every generator of the second satisfies holds on all of the second, so
    it is dropped before the double description: the cut-out cone is the
    same, and so are its sorted primitive extreme rays.  Normals are dropped
    from one side only; the second cone's own rows keep the result pointed,
    where dropping from both sides could leave a line."""
    if not gens_a or not gens_b:
        return ()
    dim = len(gens_a[0])
    ineqs = [n for n in cone_facets(gens_a)
             if any(xl.dot(n, g) < 0 for g in gens_b)]
    ineqs += cone_facets(gens_b)
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
    """Index of the sublattice generated by the rays of a simplicial cone
    inside the lattice of its span: the gcd of the maximal minors of the
    generator matrix, which is the product of its Smith invariants.  A
    non-simplicial cone, whose minors all vanish, is a PreconditionError."""
    if not gens:
        return 1
    mult = gcd(*(xl.integer_det(rows)
                 for rows in itertools.combinations(zip(*gens), len(gens))))
    if mult == 0:
        raise PreconditionError("lattice multiplicity needs a simplicial cone")
    return mult


def parallelepiped_points(gens: tuple) -> list:
    """Nonzero lattice points sum t_i g_i with 0 <= t_i < 1 for a simplicial
    cone, each returned as (point, coefficients t), by one `solve_linear`
    per point of the box the generators span (a faster scan keeps more
    `lattice` passes in a `perfbench/run.py` run, past its `peak_rss_mb`
    bound).  A side longer than `sys.maxsize` is a PreconditionError."""
    dim = len(gens[0])
    lo = [sum(min(0, g[j]) for g in gens) for j in range(dim)]
    hi = [sum(max(0, g[j]) for g in gens) for j in range(dim)]
    if any(h - l >= sys.maxsize for l, h in zip(lo, hi)):
        raise PreconditionError("the parallelepiped's box is too large to scan")
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
    return tuple(rays) + tuple(v for l in lin for v in (l, xl.vscale(-1, l)))


def cone_covered(ineqs, d: int, cells: Sequence[tuple]) -> bool:
    """Is the d-dimensional (possibly non-pointed) cone C, cut out by
    `ineqs` >= 0 within its span, the union of `cells`?

    Precondition: the cells are cones of one valid fan, each lying in C; a
    cone listed twice counts once.  Facet pairing: they cover C exactly
    when some cell is d-dimensional and every facet of a d-dimensional
    cell is shared by two of them or lies in a facet of C (a row of
    `ineqs` vanishes on the facet but not on its cell).  Why: then the
    union of the d-dimensional cells is closed, not empty, and open in
    relint C off the codimension-2 faces, which do not disconnect it; so it
    is C.  An unpaired facet inside relint C leaves the points beyond it
    uncovered, and lower-dimensional cells fill no open set.

    Each caller knows d = dim C without converting C to generators: the
    dimension of the cone (`cone_covered_by_gens`), and n - m + dim tc for
    the preimage of a target cone tc under A from rank n onto rank m
    (`_covers_preimages`).  Only the rows that vanish on an unpaired facet
    are read.
    """
    if d == 0:
        return True
    full = [c for c in dict.fromkeys(tuple(sorted(c)) for c in cells)
            if cone_dim(c) == d]
    # implicit equalities of C vanish on every cell and never count
    return bool(full) and all(
        any(all(xl.dot(r, v) == 0 for v in facet)
            and any(xl.dot(r, g) != 0 for g in full[owners[0]]) for r in ineqs)
        for facet, owners in _facet_owners(full, full).items()
        if len(owners) != 2)


def _cell_facets(c: tuple) -> list:
    """The facets of a simplicial cell c: c minus one item, in order."""
    return [c[:k] + c[k + 1:] for k in range(len(c))]


def _facet_owners(cells: Sequence[tuple], gens) -> dict:
    """The facet pairing: each facet of a cell, as the sub-tuple of the
    cell's items lying on it, to the indices of the cells having it, in
    increasing order.  `cells` are sorted tuples of items (ray indices, or
    the generators themselves), `gens` their generator tuples.  Facets come
    in first-seen order, cell by cell: a simplicial cell's by dropping one
    item, any other cell's from `cone_facets`, so it must be strongly
    convex."""
    owners = {}
    for k, (c, g) in enumerate(zip(cells, gens)):
        if len(g) == cone_dim(g):
            facets = _cell_facets(c)
        else:
            facets = [tuple(x for x, v in zip(c, g) if xl.dot(n, v) == 0)
                      for n in cone_facets(g)]
        for facet in facets:
            owners.setdefault(facet, []).append(k)
    return owners


def _on_boundary(rays, facet: tuple, perp: tuple = ()) -> bool:
    """Does `facet`, the generators of a cone of codimension 1 in span C,
    lie in a facet of C = cone(rays)?  The rows `perp` span the complement
    of span C.  The facet's normal within span C is the one
    `cone_span_perp` row of `facet` and `perp`, or (1,) for the empty facet
    of a rank-1 cone, and the answer is yes exactly when every ray lies on
    one side of it.  Why: a row of C's dual that vanishes on the facet is
    that normal or its negative, and the normal is such a row when all rays
    lie on one side.  So this is the boundary half of the triangulation
    criterion, and `cone_covered`'s test of one unpaired facet against
    C's facet normals."""
    rows = facet + perp
    (normal,) = cone_span_perp(rows) if rows else ((1,),)
    return len({x > 0 for v in rays if (x := xl.dot(normal, v))}) == 1


def cone_covered_by_gens(gens: tuple, cover: Sequence[tuple]) -> bool:
    return not gens or cone_covered(cone_facets(gens), cone_dim(gens), cover)


# ---------------------------------------------------------------------------
# Fan and FanMap
# ---------------------------------------------------------------------------

@record
class Fan:
    rank: int
    rays: tuple
    max_cones: tuple  # tuple of tuples of sorted ray indices

    def __post_init__(self):
        rays = tuple(map(xl.integers, self.rays))
        # a cone listed twice counts once; the first listing keeps its place
        cones = tuple(dict.fromkeys(
            tuple(sorted(set(xl.integers(c))))
            for c in self.max_cones))
        object.__setattr__(self, "rank", xl.integer(self.rank))
        if self.rank < 0:
            raise InputError(f"negative rank {self.rank}")
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
        """Support equals C = cone(all rays), possibly the whole space: some
        cone has dimension d = dim C, and every facet of a d-dimensional
        cone not shared by exactly two of them lies on the boundary of C
        (`_on_boundary`).  This is `cone_covered` on C's facet normals, so
        F must be a valid fan."""
        if not self.rays or self.max_cones == (tuple(range(len(self.rays))),):
            return True  # no rays, or one cone of all rays
        perp = tuple(xl.nullspace(self.rays))
        d = self.rank - len(perp)
        cones = [c for c in self.max_cones if cone_dim(self.cone_gens(c)) == d]
        return bool(cones) and all(
            _on_boundary(self.rays, self.cone_gens(facet), perp)
            for facet, owners in _facet_owners(
                cones, map(self.cone_gens, cones)).items()
            if len(owners) != 2)

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


@record
class FanMap:
    matrix: tuple  # target_rank x source_rank integer matrix
    source: Fan
    target: Fan

    # not a field: the `MorphismFlags` of a map built by `swap_cells`, which
    # `check_morphism` and `curves.contracted_walls` return or read instead
    # of deciding them again; equality and hashing read the fields only
    step_flags = None

    def __post_init__(self):
        mat = tuple(map(xl.integers, self.matrix))
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

def validate_fan(F: Fan, base: Optional[Fan] = None) -> list:
    """Fan axioms as a verdict list; empty iff F is a valid fan.

    The ray checks run first.  A full-dimensional simplicial F that passes
    them is then proved valid by the triangulation criterion
    (`_triangulates`), which intersects no cones.  Any other F, and any F
    the criterion does not prove, goes through the pairwise check
    (`_cone_violations`), which alone writes the violations about cones.

    `base`, when given, is a valid fan of F's rank.  When its cells are
    full-dimensional, simplicial and on rays of F, the criterion is handed
    only the cells in which the two fans differ.
    """
    violations = _ray_violations(F)
    if violations:
        return violations
    if base is None:
        if _triangulates(F):
            return []
    elif (base.rank == F.rank and _full_dim_simplicial(base)
            and set(base.rays) <= set(F.rays)):
        index = {r: i for i, r in enumerate(F.rays)}
        old = {tuple(sorted(index[base.rays[i]] for i in c))
               for c in base.max_cones}
        if _triangulates(F, [c for c in F.max_cones if c not in old],
                         old.difference(F.max_cones)):
            return []
    n = len(F.max_cones)
    return _cone_violations(F, range(n), itertools.combinations(range(n), 2))


def _ray_violations(F: Fan) -> list:
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
    return violations


def _triangulates(F: Fan, new=None, removed=()) -> bool:
    """Does the triangulation criterion prove F, whose rays passed the ray
    checks, a valid fan?  False means undecided, not invalid.

    It applies when every maximal cone is full-dimensional and simplicial:
    rank rays with a nonzero determinant.  Such cones form a fan with
    support C = cone(all rays) exactly when (De Loera-Rambau-Santos,
    *Triangulations*, 2010, ch. 4):
    - every facet (a cone minus one ray) lies in at most two cones;
    - across a shared facet the two opposite rays lie on opposite sides,
      that is, their determinants with the facet have opposite signs;
    - a facet with one owner lies in a facet of C (`_on_boundary`);
    - one interior point p of one cone lies in no other cone, which is
      Cramer's rule: p lies in a cone exactly when no determinant of the
      cone's generators with one of them replaced by p has the sign
      opposite to the cone's.
    Why: the number of cones covering a point of C off the codimension-2
    faces does not change across a paired facet and no unpaired facet
    meets the interior of C, so it is the same everywhere, and it is one
    at the chosen point.  The cones then cover C with disjoint interiors,
    meeting facet to facet.  A fan whose support is not convex fails the
    third test and is left to the pairwise check.

    A caller that knows a valid fan of full-dimensional simplicial cells,
    the base, from which F differs in a few cells hands over two lists:
    `new`, the cells of F that the base lacks (None: every cell, and the
    whole fan is read), and `removed`, the cells of the base that F lacks,
    in F's ray indices, with -1 for a ray that F lacks.  The other cells
    are kept.  Only the facets of the new and the removed cells are read;
    every other one has the same owners in both fans, on the same sides.
    Owners in F are read off `walls(F)`, or are the one new or kept cell
    having the facet; owners in the base are the removed and kept cells
    having it.  A changed facet with one owner in either fan must lie in
    a facet of C, and p is taken in a kept cell when there is one, tested
    against the new cells only.  Why: where both fans are read, the
    difference of their covering numbers changes only across a facet with
    one owner in one fan, and those of the changed facets lie outside the
    interior of C; it is zero at p, covered once in the base and so in F.
    So F covers what the base covers in C, once, meeting facet to facet as
    the base does.  Facets through -1 are not read, so each ray that F
    lacks must lie in a new cell and the base's support must be C: then
    such a facet has no owner in F, and one owner in the base only on the
    boundary of C.
    """
    cells = F.max_cones
    new = set(cells if new is None else new)
    if F.rank == 0 or not cells:
        return False
    det = {c: len(c) == F.rank and xl.integer_det(F.cone_gens(c))
           for c in new}
    if not all(det.values()):
        return False  # a kept cell is the base's
    gone = Counter(f for c in removed for f in _cell_facets(c) if -1 not in f)
    partnered = {f for c in cells if c not in new for f in _cell_facets(c)
                 if f in gone}
    facets = {f for c in new for f in _cell_facets(c)}
    changed = facets.union(gone)
    owners = {}  # changed facets of two or more cells -> those cells
    for w in walls(F):
        if w.rays in changed:
            owners.setdefault(w.rays, set()).update((w.side_a, w.side_b))
    for facet in changed:
        own = owners.get(facet, ())
        if len(own) > 2:
            return False
        fg = F.cone_gens(facet)
        if own:
            # the ray of a cell off the facet is the one index it adds
            s = sum(facet)
            a, b = (xl.integer_det(fg + (F.rays[sum(c) - s],)) for c in own)
            if a * b >= 0:
                return False
            count, held = 2, sum(c not in new for c in own)
        else:
            held = facet in partnered
            count = (facet in facets) + held
        # one owner in F, or in the base (its removed and kept owners)
        if 1 in (count, gone.get(facet, 0) + held) \
                and not _on_boundary(F.rays, fg):
            return False
    first = next((c for c in cells if c not in new), cells[0])
    p = tuple(map(sum, zip(*F.cone_gens(first))))

    def holds(c):
        g = F.cone_gens(c)
        return all(xl.integer_det(g[:k] + (p,) + g[k + 1:]) * det[c] >= 0
                   for k in range(len(g)))

    return not any(holds(c) for c in new if c != first)


def _cone_violations(F: Fan, cones, pairs) -> list:
    """The fan axioms on the maximal cones with indices `cones` and on the
    pairs of maximal cones with indices `pairs` (a < b): strong convexity
    and extreme generators of each such cone, then for each pair a common
    face as intersection and no containment either way.  Violations come in
    index order, as the whole-fan check lists them."""
    cones = sorted(cones)
    pairs = sorted(pairs)
    mc = F.max_cones
    violations = []
    for i in cones:
        gens = F.cone_gens(mc[i])
        if gens and xl.cone_contains_line(list(gens)):
            violations.append(
                f"cone {mc[i]} is not strongly convex (contains a line)")
    if violations:
        return violations
    for i in cones:
        gens = F.cone_gens(mc[i])
        if gens and len(set(xl.extreme_rays(gens))) != len(gens):
            violations.append(f"cone {mc[i]} lists a non-extreme generator")
    inside = {}
    for a, b in pairs:
        ga, gb = F.cone_gens(mc[a]), F.cone_gens(mc[b])
        if not ga or not gb:
            continue
        face, inside[a, b], inside[b, a] = _pair_verdict(ga, gb)
        if not face:
            violations.append(
                f"cones {mc[a]} and {mc[b]} do not intersect in a common face")
    for a, b in sorted(inside):
        if inside[a, b] and set(mc[a]) != set(mc[b]):
            violations.append(f"cone {mc[a]} is contained in cone {mc[b]}")
    return violations


def _pair_verdict(ga: tuple, gb: tuple) -> tuple:
    """(the cones of ga and gb meet in a common face, the first lies in the
    second, the second in the first), by one intersection."""
    inter = cone_intersection(ga, gb)
    fa = minimal_face_containing(ga, inter)
    fb = minimal_face_containing(gb, inter)
    if inter == ():
        face = fa == () and fb == ()
    else:
        face = (fa is not None and fb is not None
                and cone_eq(inter, fa) and cone_eq(inter, fb))
    return (face, all(cone_contains(gb, g) for g in ga),
            all(cone_contains(ga, g) for g in gb))


def certify_fan(F: Fan, what: str) -> Fan:
    """F itself once `validate_fan` passes it; a fan built by the program
    that breaks the axioms is a bug."""
    bad = validate_fan(F)
    if bad:
        raise InvariantBreach(f"{what} invalid: {bad}")
    return F


# ---------------------------------------------------------------------------
# quotient fans and star subdivision
# ---------------------------------------------------------------------------

def index_rays(index: dict, rays) -> tuple:
    """Sorted indices of `rays` in `index`, a map ray -> index in order of
    first appearance, to which each new ray is added; `tuple(index)` is
    then the ray list of the fan being built."""
    return tuple(sorted(index.setdefault(r, len(index)) for r in rays))


def quotient_fan(F: Fan, P, cones) -> Fan:
    """Images of the given cones of F under the lattice projection P.

    Each image cone keeps the primitive extreme rays of its projected
    generators; rays are indexed by first appearance, and image cones lying
    inside another image cone are dropped.  The result is not validated.
    """
    index: dict = {}
    images = []
    for c in cones:
        imgs = [xl.mat_vec(P, F.rays[i]) for i in c]
        imgs = [w for w in imgs if not xl.is_zero(w)]
        if not imgs:
            images.append(())
            continue
        ext = sorted({xl.primitive(imgs[k]) for k in xl.extreme_rays(imgs)})
        images.append(index_rays(index, ext))
    rays = tuple(index)
    keep = []
    for c in set(images):
        gens_c = tuple(rays[i] for i in c)
        if not any(set(c) < set(d) or
                   (c != d and all(cone_contains(tuple(rays[i] for i in d), v)
                                   for v in gens_c))
                   for d in set(images)):
            keep.append(c)
    return Fan(len(P), rays, tuple(sorted(keep)))


def star_subdivision(F: Fan, v) -> Fan:
    """Elementary subdivision inserting the primitive vector v as a new ray."""
    v = xl.integers(v)
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

def regular_cells(gens, heights, perp=()) -> Optional[list]:
    """Cells of the regular subdivision of cone(gens) that the integer
    lifting heights induce, as tuples of indices into gens, or None when
    the heights are degenerate.  `perp` holds integer rows spanning the
    complement of span(gens), so a cell has d = len(gens[0]) - len(perp)
    generators.

    A d-subset S with nonzero determinant (rows S and perp) is lifted to the
    rows (g, h) of S and (z, 0) of perp; their signed minors k span the
    normal of the hyperplane through the lifted S.  Scanning the other
    lifted generators in index order, the first with dot(k, .) * k[-1] < 0
    lies below that hyperplane and rejects S, and the first with value 0
    lies on it and makes the heights degenerate."""
    dim = len(gens[0])
    perp = [tuple(z) for z in perp]
    lifted = [tuple(g) + (h,) for g, h in zip(gens, heights)]
    lifted_perp = [z + (0,) for z in perp]
    cells = []
    for sub in itertools.combinations(range(len(gens)), dim - len(perp)):
        if xl.integer_det([gens[i] for i in sub] + perp) == 0:
            continue
        k = xl.primitive_kernel([lifted[i] for i in sub] + lifted_perp, dim + 1)
        for j, row in enumerate(lifted):
            if j in sub:
                continue
            side = xl.dot(k, row) * k[-1]
            if side == 0:
                return None
            if side < 0:
                break
        else:
            cells.append(sub)
    return cells


def qfactorialize(F: Fan):
    """Small projective Q-factorialization: simplicial fan with the same rays
    and support (`_regular_triangulation`), certified by `certify_fan`.
    Returns (fan, refinement map); identity when already simplicial.  The
    wall LP of `check_morphism` certifies the map projective."""
    if F.is_simplicial():
        return F, identity_map(F, F)
    out = certify_fan(_regular_triangulation(F), "Q-factorialization")
    return out, identity_map(out, F)


def _regular_triangulation(F: Fan) -> Fan:
    """F with each non-simplicial cone replaced by its regular triangulation
    (`regular_cells`) from the heights c^(i+1) on ray i, for the first
    prime c that makes them generic; F itself when it is simplicial.
    Generic heights triangulate each cone and agree on shared faces, so a
    failed covering check is an InvariantBreach.  The result is not
    certified."""
    if F.is_simplicial():
        return F
    for c in _PRIMES:
        new_cones = []
        for cone in F.max_cones:
            gens = F.cone_gens(cone)
            if len(cone) == cone_dim(gens):
                new_cones.append(cone)
                continue
            cells = regular_cells(gens, [c ** (i + 1) for i in cone],
                                  cone_span_perp(gens))
            if cells is None:
                break
            cells = [tuple(cone[t] for t in cell) for cell in cells]
            if not cone_covered_by_gens(gens, [F.cone_gens(cell) for cell in cells]):
                raise InvariantBreach("regular cells do not cover their cone")
            new_cones.extend(cells)
        else:
            return Fan(F.rank, F.rays, tuple(sorted(set(new_cones))))
    raise InvariantBreach("no generic lifting heights found")


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


# ---------------------------------------------------------------------------
# common refinement
# ---------------------------------------------------------------------------

def common_refinement(F1: Fan, F2: Fan):
    """Simplicial common refinement of two valid fans with equal support.

    Cones are the pairwise intersections, triangulated with no rays beyond
    the intersections' extreme rays.  Returns (fan, map to F1, map to F2).

    A cone of both fans is its own piece: it meets every other cone of
    either fan in a proper face of itself, which is no maximal piece.  So
    only the cones the fans do not share are intersected, and only they
    are checked to be covered by their pieces; the proper faces left out
    have lower dimension, which `cone_covered` ignores.  The pieces keep
    the order of the whole table of intersections (row by row), so the
    rays of the refinement come in the same order.  Only pieces of lower
    dimension than the lattice are tested for lying in another: if a
    full-dimensional piece s1 meet s2 lay in t1 meet t2, then s1 meet t1
    would be a full-dimensional face of both, so s1 = t1, and likewise
    s2 = t2.

    The pieces are triangulated (`_regular_triangulation`) and certified
    by the cells they change in F1 (`validate_fan` with F1 as its base); a
    piece with the generators of a cone of F1, a shared cone among them,
    is that cone.
    """
    if F1.rank != F2.rank:
        raise PreconditionError("fans live in different lattices")
    cov1 = [F1.cone_gens(c) for c in F1.max_cones]
    cov2 = [F2.cone_gens(c) for c in F2.max_cones]
    in2 = {frozenset(g) for g in cov2}
    shared = in2.intersection(frozenset(g) for g in cov1)
    rest1 = [g for g in cov1 if frozenset(g) not in shared]
    rest2 = [g for g in cov2 if frozenset(g) not in shared]
    # table[i][j] = rest1[i] meet rest2[j]; row i cuts F2 down to rest1[i]
    table = [[cone_intersection(g1, g2) for g2 in rest2] for g1 in rest1]
    for g1, row in zip(rest1, table):
        if g1 and not cone_covered_by_gens(g1, row):
            raise PreconditionError("fan supports differ")
    for j, g2 in enumerate(rest2):
        if g2 and not cone_covered_by_gens(g2, [row[j] for row in table]):
            raise PreconditionError("fan supports differ")
    rows = iter(table)
    pieces = []
    for g1 in cov1:
        row = [tuple(sorted(g1))] if frozenset(g1) in shared else next(rows)
        for inter in row:
            if inter and inter not in pieces:
                pieces.append(inter)
    maximal = []
    for p in pieces:
        if cone_dim(p) == F1.rank or not any(
                q != p and all(cone_contains(q, g) for g in p) for q in pieces):
            maximal.append(p)
    index: dict = {}
    cones = [index_rays(index, p) for p in maximal]
    if not maximal:
        out = Fan(F1.rank, (), ())  # rank 0 gets the zero cone
        return out, identity_map(out, F1), identity_map(out, F2)
    fine = _regular_triangulation(
        Fan(F1.rank, tuple(index), tuple(sorted(set(cones)))))
    bad = validate_fan(fine, F1)
    if bad:
        raise InvariantBreach(f"refinement fan invalid: {bad}")
    return fine, identity_map(fine, F1), identity_map(fine, F2)


# ---------------------------------------------------------------------------
# morphism checks
# ---------------------------------------------------------------------------

@record
class MorphismFlags:
    """What `check_morphism` found.  `contracted` pairs each wall a proper
    map contracts with its class, in `walls` order: built once per map, by
    `check_morphism` or, for a map an MMP step builds, by `swap_cells`, and
    read as they are by `curves` and `mmp`.  `ample_certificate` is solved
    by the projectivity LP when it is first read, and kept on the instance;
    so are the verdicts on each contracted class, `is_extreme` and
    `supporting`: the ratio-test certificate an MMP step hands them
    (`certify_ray`), else one LP.  `check_morphism` hands an equal map the
    same instance from its cache, so a class contracted twice on equal
    maps is decided once."""
    toric: bool
    proper: bool
    contracted: Optional[tuple] = None  # (Wall, CurveClass) of a proper map
    nrays: int = 0                      # rays of the source

    @cached_property
    def ample_certificate(self) -> Optional[tuple]:
        """Divisor coefficients strictly positive on every contracted
        relation, by one exact LP with one row per relation in facet-map
        order; None when there is none or the map is not proper."""
        if not self.proper:
            return None
        return positive_on([c.coeffs for _, c in self.contracted], self.nrays)

    @cached_property
    def _verdicts(self) -> dict:
        """(verdict name, class) -> the answer, once it is decided."""
        return {}

    def _others(self, c: CurveClass) -> list:
        return sorted({d.coeffs for _, d in self.contracted} - {c.coeffs})

    def certify_ray(self, c: CurveClass, L) -> bool:
        """Take the divisor coefficients L as the certificate that the
        contracted class c spans an extremal ray, when integer dot products
        prove it: L . c = 0 and L . c' > 0 for every other contracted class
        c'.  Then L exposes the ray of c, so `is_extreme(c)` is True, and L
        scaled to least value 1 on the others is `supporting(c)`; both are
        kept, in place of any earlier verdict.  Otherwise nothing is kept and
        the LPs decide.  Returns whether L was taken."""
        if (c not in {d for _, d in self.contracted}
                or xl.dot(c.coeffs, L) != 0):
            return False
        values = [xl.dot(o, L) for o in self._others(c)]
        if any(v <= 0 for v in values):
            return False
        least = min(values, default=1)
        self._verdicts["extreme", c] = True
        self._verdicts["supporting", c] = tuple(Fraction(x, least) for x in L)
        return True

    def is_extreme(self, c: CurveClass) -> bool:
        """Does the contracted class c span an extremal ray of the cone of
        the contracted classes: is it no nonnegative combination of the
        others (one LP, `xl.is_extreme`, unless `certify_ray` decided it)?"""
        if ("extreme", c) not in self._verdicts:
            self._verdicts["extreme", c] = xl.is_extreme(c.coeffs,
                                                         self._others(c))
        return self._verdicts["extreme", c]

    def supporting(self, c: CurveClass) -> Optional[tuple]:
        """Divisor coefficients L with L . c = 0 and L . c' >= 1 for every
        other contracted class c': the `certify_ray` certificate, else one
        LP (`positive_on`); None exactly when there is none."""
        if ("supporting", c) not in self._verdicts:
            self._verdicts["supporting", c] = positive_on(
                self._others(c), self.nrays, [c.coeffs])
        return self._verdicts["supporting", c]


def _landing(m: FanMap):
    """The function taking source ray indices to the set of target maximal
    cones that contain all their images; each ray's image is placed once.
    An image k v_j, k > 0, on target ray j lands in exactly the cones that
    list j: in a valid target fan the ray of v_j is a face of every cone
    holding v_j, so v_j is one of its generators.  Only other images are
    placed by `cone_contains`."""
    T = m.target
    index = {r: j for j, r in enumerate(T.rays)}
    listing = {j: frozenset(tc for tc in T.max_cones if j in tc)
               for j in range(len(T.rays))}
    homes = []
    for image in map(m.apply, m.source.rays):
        k = gcd(*image)
        j = index.get(tuple(a // k for a in image)) if k else None
        homes.append(listing[j] if j is not None else frozenset(
            tc for tc in T.max_cones if cone_contains(T.cone_gens(tc), image)))
    every = frozenset(T.max_cones)
    return lambda idx: every.intersection(*(homes[i] for i in idx))


def is_toric_morphism(m: FanMap, landing=None) -> bool:
    """Does every maximal source cone map into a target cone?"""
    return all(map(landing or _landing(m), m.source.max_cones))


def _full_dim_simplicial(F: Fan) -> bool:
    n = F.rank
    return all(len(c) == n and cone_dim(F.cone_gens(c)) == n
               for c in F.max_cones)


def _facet_map(F: Fan) -> dict:
    """The facet map: `_facet_owners` of F's maximal cones."""
    return _facet_owners(F.max_cones, map(F.cone_gens, F.max_cones))


def _within(gens: tuple, ineqs, eqs) -> bool:
    """Do all of `gens` satisfy ineqs >= 0 and eqs = 0?"""
    return (all(xl.dot(r, g) >= 0 for r in ineqs for g in gens)
            and all(xl.dot(z, g) == 0 for z in eqs for g in gens))


def _cut(gens: tuple, ineqs, eqs, dim) -> tuple:
    """Generators of cone(gens) intersected with {ineqs >= 0, eqs = 0}."""
    if _within(gens, ineqs, eqs):
        return gens
    return _h_to_gens(list(cone_facets(gens)) + list(ineqs),
                      list(cone_span_perp(gens)) + list(eqs), dim)


def _covers_preimages(m: FanMap) -> bool:
    """For each target cone tc, do the source cones cut by its preimage
    Q = A^-1(tc) cover Q (`cone_covered`)?  m must be a toric morphism.

    When A is onto (rank A = target rank), no cone is cut.  A source cone
    whose image lies in tc lies in Q and stays whole; every other one is
    dropped.  Why that is safe: its image lies in another maximal target
    cone tc', so its cut lies in A^-1(tc meet tc'), where tc meet tc' is a
    proper face of tc (the target is a valid fan).  As A is onto, the
    preimage of that face is a face of Q of lower dimension, and
    `cone_covered` ignores cells of lower dimension.  A map that is not
    onto can keep a full cut in such a face, so it cuts every cone.

    For the identity lattice map a target cone that is also a source cell
    is its own preimage, covered by that cell, and is skipped.
    """
    n = m.source.rank
    At = xl.transpose(m.matrix)
    onto = m.target.rank == 0 or xl.rank(m.matrix) == m.target.rank
    sources = [m.source.cone_gens(c) for c in m.source.max_cones]
    own = (frozenset(map(frozenset, sources))
           if m.matrix == xl.identity_matrix(n) else frozenset())
    for tc in m.target.max_cones:
        tg = m.target.cone_gens(tc)
        if frozenset(tg) in own:
            continue
        # rows of (facet o A): facet-normal composed with the lattice map
        ineqs = [tuple(xl.mat_vec(At, f)) for f in cone_facets(tg)]
        eqs = [tuple(xl.mat_vec(At, z)) for z in cone_span_perp(tg)]
        if onto:
            cells = [g for g in sources if _within(g, ineqs, eqs)]
            d = n - m.target.rank + cone_dim(tg)
        else:
            cells = [_cut(g, ineqs, eqs, n) for g in sources]
            d = cone_dim(_h_to_gens(ineqs, eqs, n))
        if not cone_covered(ineqs, d, cells):
            return False
    return True


@record
class Wall:
    rays: tuple      # sorted ray indices of the codimension-1 face
    side_a: tuple    # maximal cone (ray indices)
    side_b: tuple


@lru_cache(maxsize=None)
def walls(F: Fan) -> tuple:
    """Codimension-1 faces shared by two maximal cones: for each facet of
    the facet map (`_facet_map`), every pair (a, b), a < b, of its owners,
    in facet-map order: by the facet's first owner, then in the order that
    cone lists its facets (a simplicial cone by the position of the ray off
    the facet).  The empty facet counts only between two rays of a rank-1
    fan, where the origin is the wall.  This is the one wall list of F.

    Precondition: F is a valid fan.  Then two maximal cones meet in a face
    of both, so they share at most one facet, and a cone's facet is the
    cone of the rays lying on it; no intersection is computed.
    """
    cones = F.max_cones
    return tuple(Wall(facet, cones[a], cones[b])
                 for facet, owners in _facet_map(F).items()
                 if facet or F.rank == 1
                 for k, a in enumerate(owners) for b in owners[k + 1:])


@record
class CurveClass:
    """The curve class of a wall: its `wall_coefficients`."""
    coeffs: tuple  # primitive integer vector indexed by the fan's rays

    def pair(self, D) -> Fraction:
        """D . C up to a fixed positive scale, for a divisor D: sum a_rho
        d_rho, summed on integers over L, the lcm of D's denominators, as
        d = n/q is n (L // q) / L; one Fraction is built."""
        L = lcm(*(d.denominator for d in D.coeffs))
        return Fraction(sum(a * d.numerator * (L // d.denominator)
                            for a, d in zip(self.coeffs, D.coeffs) if a), L)


def wall_coefficients(F: Fan, facet: tuple, ca: tuple, cb: tuple) -> tuple:
    """The relation sum a_i v_i = 0 of the rank + 1 rays of the adjacent
    full-dimensional simplicial cones ca and cb, indexed by all rays of F,
    primitive and positive on the two rays off the facet (they lie on
    opposite sides of it in a valid fan).  By Cramer's rule: with B the
    rays of ca and v the ray of cb off the facet, a_i is det B with ray i
    replaced by v, and v gets -det B (`xl.integer_det`, closed forms up
    to 3 x 3); these are the signed maximal minors of the rank + 1 rays.
    InvariantBreach unless each cone has rank rays, one of them off the
    facet, and the relation is positive on both rays off it."""
    off_a = [i for i in ca if i not in facet]
    off_b = [i for i in cb if i not in facet]
    if len(off_a) != 1 or len(off_b) != 1 or off_a == off_b:
        raise InvariantBreach("wall must have exactly two off-wall rays")
    if len(ca) != F.rank or len(cb) != F.rank:
        raise InvariantBreach("a wall's cones need rank rays each")
    B, v = F.cone_gens(ca), F.rays[off_b[0]]
    det = xl.integer_det(B)
    sign = -1 if det > 0 else 1
    rel = [0] * len(F.rays)
    rel[off_b[0]] = -sign * det
    for k, i in enumerate(ca):
        rel[i] = sign * xl.integer_det(B[:k] + (v,) + B[k + 1:])
    if not (rel[off_a[0]] > 0 and rel[off_b[0]] > 0):
        raise InvariantBreach("off-wall coefficients are not positive")
    g = gcd(*rel)
    return tuple(a // g for a in rel)


def positive_on(relations, nrays: int, zero=()) -> Optional[tuple]:
    """Divisor coefficients L with L . r >= 1 for each relation r, in the
    given order, and L . z = 0 for each z in `zero`, by one exact LP; None
    when there is none."""
    sol = xl.feasible_point([(r, 1) for r in relations],
                            [(z, 0) for z in zero], nrays)
    return None if sol is None else tuple(sol)


@lru_cache(maxsize=None)
def check_morphism(m: FanMap) -> MorphismFlags:
    """The toric and proper flags of m and its projectivity certificate.
    Toric, proper and, for a proper map only, the walls it contracts are
    computed here: (wall, its `CurveClass`) for each wall of `walls(F)`
    whose two cones land in one target cone, in `walls` order.  F must
    then be simplicial with full-dimensional cones, else PreconditionError.
    On such a source every coefficient vector defines a piecewise linear
    support function, and positivity on a wall class is strict convexity
    across the wall (the projectivity LP, `ample_certificate`).  A map
    built by `swap_cells` gets the flags it carries."""
    if m.step_flags is not None:
        return m.step_flags
    landing = _landing(m)
    toric = is_toric_morphism(m, landing)
    if not (toric and _covers_preimages(m)):
        return MorphismFlags(toric=toric, proper=False)
    F = m.source
    if not _full_dim_simplicial(F):
        raise PreconditionError("projectivity needs a simplicial source with "
                                "full-dimensional cones")
    return MorphismFlags(toric=True, proper=True, contracted=tuple(
        (w, CurveClass(wall_coefficients(F, w.rays, w.side_a, w.side_b)))
        for w in walls(F) if landing(w.side_a + w.side_b)),
        nrays=len(F.rays))


def swap_cells(m: FanMap, survivors, removed, added) -> FanMap:
    """The map m with the cells `removed` of its source F replaced by the
    cells `added`, given in F's indexing, and its rays cut down to
    `survivors`, certified a valid fan by the cells it changed, and
    carrying its `MorphismFlags` (`step_flags`) derived from m's contracted
    pairs, which `check_morphism(m)` returns from m's own flags or its
    cache.

    This is an MMP step (Reid 1983): m is a proper toric map whose source F
    is a valid simplicial fan with full-dimensional cones and convex support
    C = cone(all rays), the removed cells are the J+ triangulation of the
    circuit cones cone(rayset), and the added cells their J- triangulation
    (a flip), or the one cell rayset - {j} for the ray j the step drops
    (divisorial; then v_j lies in the cell and C stays cone(all rays)).
    New cells have rank independent rays.  The new fan Z is certified by
    the triangulation criterion with F as its base (`_triangulates`),
    handed the new cells (an added cell that F keeps is no new cell) and
    the removed ones, a dropped ray standing as -1; every kept ray must
    lie in a cell of Z, the one ray check F does not pass on.
    InvariantBreach when a check fails, here or below.

    The flags need no whole-map pass; they pair Z's contracted walls with
    their classes in `walls(Z)` order, as `check_morphism` does.  A wall
    between two kept cells keeps m's class on its rays (`w.rays`),
    re-indexed (the dropped ray's coefficient is 0 there), and is
    contracted as before: same cells, same lattice map, same base.
    A wall through a new cell takes its fresh `wall_coefficients`, which
    must be positive on the two rays off the wall, and is contracted when
    its union lands in a base cone (`_landing`).  Each new cell lies in a
    circuit cone, which the contraction maps into one base cone, so it
    lands (checked), and the kept cells land as before: Z maps into the
    base.  Its support is F's, so Z is proper over the base as F was, and
    the base's support convexity, decided for m, still holds."""
    F = m.source
    index = {old: new for new, old in enumerate(survivors)}
    removed = set(removed)
    try:
        kept = [tuple(index[i] for i in c) for c in F.max_cones
                if c not in removed]
        new = {tuple(index[i] for i in c) for c in added}.difference(kept)
    except KeyError:
        raise InvariantBreach("a cell keeps a ray the step drops") from None
    Z = Fan(F.rank, tuple(F.rays[i] for i in survivors),
            tuple(sorted(set(kept) | new)))
    if (len(set().union(*Z.max_cones)) < len(Z.rays)
            or not _triangulates(Z, new, [tuple(index.get(i, -1) for i in c)
                                          for c in removed])):
        raise InvariantBreach("the cells of the step form no fan on its "
                              "rays with the support of its source")
    out = FanMap(m.matrix, Z, m.target)
    landing = _landing(out)
    kept_classes = {w.rays: c for w, c in check_morphism(m).contracted}
    contracted = []
    for w in walls(Z):
        if w.side_a not in new and w.side_b not in new:
            c = kept_classes.get(tuple(survivors[i] for i in w.rays))
            if c is not None:
                contracted.append(
                    (w, CurveClass(tuple(c.coeffs[i] for i in survivors))))
            continue
        rel = wall_coefficients(Z, w.rays, w.side_a, w.side_b)
        if any(rel[i] <= 0 for i in set(w.side_a) ^ set(w.side_b)):
            raise InvariantBreach(f"the cells at facet {w.rays} of the step "
                                  "lie on one side of it")
        if landing(w.side_a + w.side_b):
            contracted.append((w, CurveClass(rel)))
    if not all(map(landing, new)):
        raise InvariantBreach("a new cell maps into no cone of the base")
    object.__setattr__(out, "step_flags", MorphismFlags(
        toric=True, proper=True, contracted=tuple(contracted),
        nrays=len(Z.rays)))
    return out
