"""Seeded random instance generation for property harnesses.

Complete projective simplicial fans are normal fans of bounded polytopes:
pick random primitive rays v positively spanning the space (one Stiemke LP,
`recession_cone_trivial`) and random positive heights h_v, and read the
cells off the vertices of {m : <m, v> <= h_v} with `fan.regular_cells`, the
regular subdivision routine of `fan.qfactorialize`.  Degenerate heights are
resampled.  Otherwise every vertex is simple and the polytope is bounded,
so the cells form its complete normal fan: a fan that fails `certify_fan`
or has a non-convex support is a bug, raised as an InvariantBreach rather
than resampled.  Relative (affine-base) instances are random chains of star
subdivisions of the orthant, which stay projective over the base.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import exactlin as xl
from .errors import InvariantBreach
from .fan import (Fan, FanMap, certify_fan, map_to_point, regular_cells,
                  star_subdivision)
from .divisor import InvariantDivisor


def _random_primitive(rng, rank):
    while True:
        v = tuple(rng.randint(-4, 4) for _ in range(rank))
        if not xl.is_zero(v):
            return tuple(xl.primitive(v))


def random_complete_fan(rng: random.Random, rank: int, nrays: int) -> Fan:
    """Random complete projective simplicial fan: the normal fan of
    {m : <m, v> <= h_v} for random primitive rays v positively spanning the
    space and random positive heights h_v, resampled while the heights are
    degenerate."""
    for _ in range(200):
        rays = set()
        while len(rays) < nrays:
            rays.add(_random_primitive(rng, rank))
        rays = sorted(rays)
        # the rays must positively span the whole space (completeness)
        if not xl.recession_cone_trivial(xl.HalfspaceSystem(tuple(rays), (0,) * nrays)):
            continue
        heights = [Fraction(rng.randint(1, 1000), rng.randint(1, 7)) for _ in rays]
        cells = regular_cells(rays, xl._integer_row(heights))
        if cells is None:
            continue  # degenerate heights; resample
        used = sorted({i for cell in cells for i in cell})
        idx = {i: k for k, i in enumerate(used)}
        F = certify_fan(Fan(rank, tuple(rays[i] for i in used),
                            tuple(sorted(tuple(idx[i] for i in cell) for cell in cells))),
                        "random complete fan")
        if not F.support_convex():
            raise InvariantBreach("random complete fan has a non-convex support")
        return F
    raise InvariantBreach("could not sample a complete fan")


def random_affine_instance(rng: random.Random, rank: int, subdivisions: int):
    """(FanMap over the orthant) obtained by random star subdivisions."""
    base_rays = tuple(tuple(1 if j == i else 0 for j in range(rank))
                      for i in range(rank))
    base = Fan(rank, base_rays, (tuple(range(rank)),))
    F = base
    for _ in range(subdivisions):
        cone = F.max_cones[rng.randrange(len(F.max_cones))]
        coeffs = [rng.randint(0, 2) for _ in cone]
        if all(c == 0 for c in coeffs):
            coeffs[rng.randrange(len(coeffs))] = 1
        v = tuple(sum(c * F.rays[i][k] for c, i in zip(coeffs, cone))
                  for k in range(rank))
        v = tuple(xl.primitive(v))
        if v in F.rays:
            continue
        F = star_subdivision(F, v)
    return FanMap(xl.identity_matrix(rank), F, base)


def random_divisor(rng: random.Random, F: Fan) -> InvariantDivisor:
    """Coefficients p/q with p in [-5,5] and q in [1,6]."""
    return InvariantDivisor(tuple(
        Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        for _ in F.rays))


def termination_instances(seed: int, count: int):
    """Deterministic stream of (FanMap, divisor) MMP instances; roughly two
    thirds are complete surfaces, the rest affine 2- and 3-fold chains and
    complete 3-folds."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = len(out) % 6
        if k < 3:
            F = random_complete_fan(rng, 2, rng.randint(4, 10))
            m = map_to_point(F)
        elif k == 3:
            F = random_complete_fan(rng, 3, rng.randint(4, 7))
            m = map_to_point(F)
        elif k == 4:
            m = random_affine_instance(rng, 2, rng.randint(1, 4))
        else:
            m = random_affine_instance(rng, 3, rng.randint(1, 3))
        out.append((m, random_divisor(rng, m.source)))
    return out


def affine_instances(seed: int, count: int):
    """Affine-base instances only (both pseudo-effectivity routes apply)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rank = 2 if len(out) % 3 else 3
        m = random_affine_instance(rng, rank, rng.randint(1, 4 if rank == 2 else 2))
        out.append((m, random_divisor(rng, m.source)))
    return out
