"""Seeded random instance generation for property harnesses.

Complete projective simplicial fans come from regular triangulations: pick
random primitive rays positively spanning the space and generic positive
heights, then read the simplicial cells off the vertices of the polyhedron
{m : <m, v> <= h_v}.  Relative (affine-base) instances are random chains of
star subdivisions of the orthant, which stay projective over the base.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import exactlin as xl
from .errors import InvariantBreach
from .fan import Fan, FanMap, map_to_point, star_subdivision, validate_fan
from .divisor import InvariantDivisor


def _random_primitive(rng, rank, lo=-4, hi=4):
    while True:
        v = tuple(rng.randint(lo, hi) for _ in range(rank))
        if not xl.is_zero(v):
            return tuple(xl.primitive(v))


def random_complete_fan(rng: random.Random, rank: int, nrays: int) -> Fan:
    """Random complete projective simplicial fan via a regular
    triangulation of a random positively-spanning ray set."""
    for _ in range(200):
        rays = set()
        while len(rays) < nrays:
            rays.add(_random_primitive(rng, rank))
        rays = sorted(rays)
        # the rays must positively span the whole space (completeness)
        spanning = all(
            xl.solve_nonneg(list(rays), e) is not None
            and xl.solve_nonneg(list(rays), tuple(-c for c in e)) is not None
            for e in [tuple(1 if j == i else 0 for j in range(rank))
                      for i in range(rank)])
        if not spanning:
            continue
        heights = {v: Fraction(rng.randint(1, 1000), rng.randint(1, 7))
                   for v in rays}
        cells = []
        used = set()
        for sub in itertools.combinations(rays, rank):
            m = xl.solve_linear(list(sub), [heights[v] for v in sub])
            if m is None:
                continue
            vals = [(xl.dot(m, w), heights[w]) for w in rays if w not in sub]
            if any(val == h for val, h in vals):
                cells = None  # degenerate heights; resample
                break
            if all(val < h for val, h in vals):
                cells.append(sub)
                used.update(sub)
        if not cells:
            continue
        ray_list = sorted(used)
        idx = {v: i for i, v in enumerate(ray_list)}
        F = Fan(rank, tuple(ray_list),
                tuple(sorted(tuple(sorted(idx[v] for v in c)) for c in cells)))
        if validate_fan(F):
            continue
        if not F.support_convex():
            continue
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
