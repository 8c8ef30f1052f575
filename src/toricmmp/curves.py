"""Wall relations, curve classes, the relative Mori cone, and nef tests.

Intersection numbers are computed up to a positive rational scale (lattice
index factors are dropped): every decision downstream consumes only signs
and zero sets, so the scale never matters.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import exactlin as xl
from .errors import InvariantBreach, PreconditionError
from .record import record
from .fan import Fan, FanMap, Wall, _maps_into, check_morphism, cone_dim, \
    walls
from .divisor import InvariantDivisor, support_function


@record
class CurveClass:
    coeffs: tuple  # primitive integer vector indexed by the fan's rays

    def pair(self, D: InvariantDivisor) -> Fraction:
        """D . C up to a fixed positive scale: sum a_rho d_rho."""
        return sum((Fraction(a) * d for a, d in zip(self.coeffs, D.coeffs)),
                   Fraction(0))


def wall_relation(F: Fan, w: Wall) -> CurveClass:
    """Primitive kernel vector of the ray matrix of side_a union side_b,
    normalized so the two off-wall coefficients are positive."""
    for side in (w.side_a, w.side_b):
        gens = F.cone_gens(side)
        if len(side) != cone_dim(gens):
            raise PreconditionError(
                f"adjacent cone {side} is not simplicial; wall relations need "
                "a Q-factorial fan")
    support = tuple(sorted(set(w.side_a) | set(w.side_b)))
    A = [[F.rays[i][k] for i in support] for k in range(F.rank)]
    ker = xl.integer_kernel(A)
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
    return CurveClass(tuple(full))


def _require_mori_scope(m: FanMap):
    F = m.source
    if not F.is_simplicial():
        raise PreconditionError("source fan must be simplicial")
    if not F.support_full_dimensional():
        raise PreconditionError("source support must be full-dimensional")
    if not F.support_convex():
        raise PreconditionError("source support must be convex")


@lru_cache(maxsize=None)
def contracted_walls(m: FanMap) -> tuple:
    """(Wall, CurveClass) pairs for the walls whose two adjacent cones map
    into one common cone of the target; these carry the complete curves
    contracted by the morphism."""
    _require_mori_scope(m)
    flags = check_morphism(m)
    if not flags.toric or not flags.proper:
        raise PreconditionError("map must be a proper toric morphism")
    F = m.source
    out = []
    for w in walls(F):
        merged = tuple(sorted(set(w.side_a) | set(w.side_b)))
        if _maps_into(m, F.cone_gens(merged)) is not None:
            out.append((w, wall_relation(F, w)))
    return tuple(out)


@record
class NECone:
    generators: tuple      # CurveClass per contracted wall (deduplicated)
    extremal_rays: tuple   # sublist of generators
    rho: int               # dimension of the linear span


def ne_cone(m: FanMap) -> NECone:
    pairs = contracted_walls(m)
    if not check_morphism(m).projective:
        raise PreconditionError("map must be projective (strong convexity of "
                                "the Mori cone needs an ample divisor)")
    classes = []
    for _, c in pairs:
        if c not in classes:
            classes.append(c)
    classes.sort(key=lambda c: c.coeffs)
    if not classes:
        return NECone((), (), 0)
    vecs = [c.coeffs for c in classes]
    ext = xl.extreme_rays(vecs)
    return NECone(tuple(classes),
                  tuple(classes[i] for i in ext),
                  xl.rank(vecs))


@record
class NefVerdict:
    nef: bool
    strict: bool
    violating_wall: Optional[Wall]
    violating_class: Optional[CurveClass]
    value: Optional[Fraction]


def nefness(D: InvariantDivisor, m: FanMap, strict: bool = False) -> NefVerdict:
    """D is nef over the base iff it pairs >= 0 (strict: > 0) with every
    contracted wall class."""
    support_function(m.source, D)  # Q-Cartier gate
    pairs = contracted_walls(m)
    strictly = True
    for w, c in pairs:
        val = c.pair(D)
        if val < 0 or (strict and val == 0):
            return NefVerdict(val >= 0, False, w, c, val)
        if val == 0:
            strictly = False
    return NefVerdict(True, strictly, None, None, None)
