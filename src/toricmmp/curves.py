"""The relative Mori cone, supporting divisors of its extremal rays, and
nef tests, on the curve classes of the walls a map contracts
(`fan.MorphismFlags.contracted`); `CurveClass` and `walls` are `fan`'s.

Intersection numbers are computed up to a positive rational scale (lattice
index factors are dropped): every decision downstream consumes only signs
and zero sets, so the scale never matters.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import exactlin as xl, fan
from .errors import PreconditionError
from .record import record
from .fan import (CurveClass, FanMap, Wall, _full_dim_simplicial,
                  check_morphism)
from .divisor import InvariantDivisor, check_divisor

walls = fan.walls  # the curves layer's wall list, traced by perfbench


@lru_cache(maxsize=None)
def contracted_walls(m: FanMap) -> tuple:
    """(Wall, CurveClass) pairs for the walls whose two adjacent cones map
    into one common cone of the target, in `walls` order; these carry the
    complete curves contracted by the morphism: the map's flags'
    `contracted`, as they are.  A map an MMP step built (`fan.swap_cells`)
    carries them, and their scope holds by construction: simplicial
    full-dimensional cones and the support of the map the step started
    from.  PreconditionError outside the scope of the relative Mori cone."""
    F = m.source
    flags = m.step_flags
    if flags is None:
        # full-dimensional simplicial cones make F simplicial and
        # full-dimensional
        full = bool(F.max_cones) and _full_dim_simplicial(F)
        if not (full or F.is_simplicial()):
            raise PreconditionError("source fan must be simplicial")
        if not (full or F.support_full_dimensional()):
            raise PreconditionError("source support must be full-dimensional")
        flags = check_morphism(m) if full else None
        # a proper map has |F| = A^-1 |S|, convex when the base's support is
        if not (flags and flags.proper and m.target.support_convex()) \
                and not F.support_convex():
            raise PreconditionError("source support must be convex")
        flags = flags or check_morphism(m)
    if not flags.toric or not flags.proper:
        raise PreconditionError("map must be a proper toric morphism")
    return flags.contracted


@record
class NECone:
    generators: tuple      # CurveClass per contracted wall (deduplicated)
    extremal_rays: tuple   # sublist of generators
    rho: int               # dimension of the linear span


def mori_classes(m: FanMap, ample=None) -> tuple:
    """(classes, rho, ample): the distinct classes of `contracted_walls(m)`,
    sorted by coefficients, the rank of their span (`xl.rank`, integer
    elimination), and divisor coefficients strictly positive on every class.
    The classes span the relative Mori cone, which is pointed because m
    must be projective.  A given `ample` that is strictly positive on every
    class proves this by integer dot products with a positive multiple of
    it (`xl._integer_row`), which has the same signs, and is returned;
    otherwise (none given, or the check fails) the projectivity LP of
    `check_morphism` decides and its certificate is returned.
    PreconditionError, after the scope errors, when m is not projective."""
    classes = tuple(sorted({c for _, c in contracted_walls(m)},
                           key=lambda c: c.coeffs))
    scaled = None if ample is None else xl._integer_row(ample)
    if scaled is None or any(xl.dot(c.coeffs, scaled) <= 0 for c in classes):
        ample = check_morphism(m).ample_certificate
        if ample is None:
            raise PreconditionError("map must be projective (strong convexity "
                                    "of the Mori cone needs an ample divisor)")
    return classes, xl.rank([c.coeffs for c in classes]), ample


def ne_cone(m: FanMap) -> NECone:
    classes, rho, _ = mori_classes(m)
    ext = xl.extreme_rays([c.coeffs for c in classes])
    return NECone(classes, tuple(classes[i] for i in ext), rho)


def supporting_divisor(m: FanMap, c: CurveClass) -> Optional[InvariantDivisor]:
    """A divisor L with L . c = 0 and L . c' >= 1 for every other class c'
    of `contracted_walls(m)`, c among them (`fan.MorphismFlags.supporting`);
    None exactly when c spans no extremal ray of the relative Mori cone, as
    L exposes the ray of c and every face of a polyhedral cone is exposed.
    L is nef over the base, and its linearity domains are the unions of
    cells across the walls of class c: the cones of the contraction's
    target (Reid 1983)."""
    contracted_walls(m)  # the scope of the relative Mori cone
    L = check_morphism(m).supporting(c)
    return None if L is None else InvariantDivisor(L)


@record
class NefVerdict:
    nef: bool
    strict: bool
    violating_wall: Optional[Wall]
    violating_class: Optional[CurveClass]
    value: Optional[Fraction]


def nefness(D: InvariantDivisor, m: FanMap, strict: bool = False) -> NefVerdict:
    """D is nef over the base iff it pairs >= 0 (strict: > 0) with every
    contracted wall class.  The violating wall is the first one, in `walls`
    order, on which D is negative, else, when `strict`, the first on which
    it is 0; so `nef` does not depend on the order.  `contracted_walls`
    needs a simplicial source, on which every divisor is Q-Cartier."""
    check_divisor(m.source, D)
    zero = None
    for w, c in contracted_walls(m):
        val = c.pair(D)
        if val < 0:
            return NefVerdict(False, False, w, c, val)
        if val == 0 and zero is None:
            zero = (w, c, val)
    if strict and zero:
        return NefVerdict(True, False, *zero)
    return NefVerdict(True, zero is None, None, None, None)
