"""Test oracles for the integer cone kernels.

`cone_contains` decides membership with the phase-1 simplex, and
`extreme_rays_of_halfspaces` is the subset-enumeration double description
with one `Fraction` nullspace per subset of constraints.  Tests check
`fan.cone_contains` (facet normals) and `exactlin.extreme_rays_of_halfspaces`
(signed integer minors) against them.  The simplex is the `Fraction`
oracle of `lp_oracle`, so the membership oracle shares no arithmetic with
`exactlin`'s integer pivoting.
"""

import itertools
from fractions import Fraction

import lp_oracle
from toricmmp import exactlin as xl
from toricmmp.errors import InvariantBreach


def cone_contains(gens, v) -> bool:
    """Is v a nonnegative combination of `gens`?  (Any generators.)"""
    if xl.is_zero(v):
        return True
    return lp_oracle.solve_nonneg(list(gens), v) is not None


def extreme_rays_of_halfspaces(ineqs, eqs, dim) -> tuple:
    """(rays, lineality) of {x : <a,x> >= 0, <e,x> = 0}: each extreme ray
    is the one-dimensional rational kernel of dim(span)-1 active rows."""
    span = xl.nullspace(list(eqs), dim) if eqs else \
        [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    if not span:
        return [], []
    s = len(span)
    rows = [tuple(xl.dot(a, bvec) for bvec in span) for a in ineqs]
    rows = [r for r in rows if not xl.is_zero(r)]
    lin = xl.nullspace(rows, s)
    if lin:
        amb_lin = [tuple(sum(Fraction(y[j]) * span[j][i] for j in range(s))
                         for i in range(dim)) for y in lin]
        sub_rays, sub_lin = extreme_rays_of_halfspaces(
            ineqs, list(eqs) + [tuple(l) for l in amb_lin], dim)
        if sub_lin:
            raise InvariantBreach("pointed part of the cone has a lineality space")
        return sub_rays, amb_lin
    rays = set()
    if s == 1:
        for sign in (1, -1):
            cand = (Fraction(sign),)
            if all(xl.dot(r, cand) >= 0 for r in rows):
                amb = tuple(sign * span[0][i] for i in range(dim))
                rays.add(xl.scale_to_integer(amb))
    else:
        for subset in itertools.combinations(range(len(rows)), s - 1):
            ker = xl.nullspace([rows[i] for i in subset], s)
            if len(ker) != 1:
                continue
            for cand in (ker[0], xl.vscale(-1, ker[0])):
                if all(xl.dot(r, cand) >= 0 for r in rows):
                    amb = tuple(sum(cand[j] * span[j][i] for j in range(s))
                                for i in range(dim))
                    if not xl.is_zero(amb):
                        rays.add(xl.scale_to_integer(amb))
                    break
    return sorted(rays), []
