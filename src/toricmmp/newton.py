"""Newton-polytope models of non-degenerate hypersurface germs.

From the exponent set of f alone: the Newton polyhedron, its normal fan
(the facet normals through each vertex) restricted to the positive orthant,
a smooth ambient resolution, and the minimal / canonical / dlt /
log-canonical ambient models obtained by running the MMP with the invariant
numerical representative of K + (strict transform).  Non-degeneracy of f is
an assumed precondition and is not verified here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import exactlin as xl
from .errors import InputError, InvariantBreach
from .record import record
from .fan import Fan, FanMap, certify_fan, index_rays, resolve
from .divisor import InvariantDivisor
from .curves import NefVerdict, nefness
from .mmp import MMPTrace, contract_face, run_mmp

MODEL_TYPES = ("minimal", "canonical", "dlt", "log-canonical")


def check_exponents(E) -> tuple:
    E = tuple(map(xl.integers, E))
    if not E:
        raise InputError("exponent set is empty")
    n = len(E[0])
    for m in E:
        if len(m) != n:
            raise InputError("exponent vectors have mixed dimensions")
        if any(c < 0 for c in m):
            raise InputError("exponents must be nonnegative")
    return E


def ord_value(E, v) -> Fraction:
    """ord(v) = min over the support of <m, v>."""
    return min(Fraction(xl.dot(m, v)) for m in E)


def newton_polytope(E) -> xl.HalfspaceSystem:
    """Halfspace description of conv(E) + positive orthant.

    Facet normals are the extreme rays of the dual lift cone
    {(w,c) : w >= 0, <w,m> + c >= 0 for all m}; each satisfies
    c = -ord(w)."""
    E = check_exponents(E)
    n = len(E[0])
    ineqs = [tuple(list(m) + [1]) for m in E]
    for i in range(n):
        ineqs.append(tuple(1 if j == i else 0 for j in range(n + 1)))
    rays, lin = xl.extreme_rays_of_halfspaces(ineqs, (), n + 1)
    if lin:
        raise InvariantBreach("dual lift cone has a line")
    normals, offsets = [], []
    for r in rays:
        w, c = r[:n], r[n]
        if xl.is_zero(w):
            continue  # the trivial c >= 0 direction
        if Fraction(c) != -ord_value(E, w):
            raise InvariantBreach("facet offset disagrees with ord")
        normals.append(tuple(w))
        offsets.append(Fraction(c))
    return xl.HalfspaceSystem(tuple(normals), tuple(offsets))


def orthant_fan(n: int) -> Fan:
    rays = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    return Fan(n, rays, (tuple(range(n)),))


def normal_fan(E) -> Fan:
    """Normal fan of the Newton polyhedron; supports the positive orthant,
    one maximal cone per vertex (the linearity domains of ord), spanned by
    the normals of the `newton_polytope` facets through it."""
    E = check_exponents(E)
    n = len(E[0])
    H = newton_polytope(E)
    cones = set()
    index: dict = {}
    for m in E:
        rays = sorted(w for w, c in zip(H.normals, H.offsets)
                      if xl.dot(w, m) + c == 0)
        if xl.rank(rays) == n:  # m is a vertex
            cones.add(index_rays(index, rays))
    return certify_fan(Fan(n, tuple(index), tuple(sorted(cones))),
                       "normal fan")


def _assert_ord_linear(E, F: Fan):
    for c in F.max_cones:
        gens = F.cone_gens(c)
        hit = False
        for m in E:
            if all(Fraction(xl.dot(m, v)) == ord_value(E, v) for v in gens):
                hit = True
                break
        if not hit:
            raise InvariantBreach(f"ord is not linear on cone {c}")


def ambient_resolution(E) -> FanMap:
    """Smooth projective refinement of the orthant compatible with the
    linearity domains of ord; deterministic."""
    E = check_exponents(E)
    n = len(E[0])
    nf = normal_fan(E)
    smooth, _ = resolve(nf)
    _assert_ord_linear(E, smooth)
    return FanMap(xl.identity_matrix(n), smooth, orthant_fan(n))


def model_divisor(E, F: Fan, model_type: str) -> InvariantDivisor:
    """Invariant numerical representative of the pair divisor on the ambient
    fan: -1 - ord(v) at every ray, with the exceptional rays (non standard
    basis) bumped by +1 for the dlt / log-canonical runs."""
    if model_type not in MODEL_TYPES:
        raise InputError(f"unknown model type {model_type!r}")
    basis = set(orthant_fan(F.rank).rays)
    coeffs = []
    for v in F.rays:
        d = Fraction(-1) - ord_value(E, v)
        if model_type in ("dlt", "log-canonical") and v not in basis:
            d += 1
        coeffs.append(d)
    return InvariantDivisor(tuple(coeffs))


@record
class ModelReport:
    model_type: str
    ambient_start: FanMap          # resolution -> orthant
    divisor: InvariantDivisor      # the divisor the MMP was run with
    trace: MMPTrace
    model_fan: Fan                 # fan of the requested model
    nef_certificate: Optional[NefVerdict]
    discrepancies: tuple           # (ray, value) for exceptional rays


def _exceptional_discrepancies(E, F: Fan):
    """a(v) = d_v - sum_i v_i * d_{e_i} for the exceptional rays: the pair
    coefficient relative to the linear extension from the orthant rays."""
    n = F.rank
    basis = orthant_fan(n).rays
    base_coeffs = [Fraction(-1) - ord_value(E, e) for e in basis]
    out = []
    for v in F.rays:
        if v in basis:
            continue
        lin = sum(Fraction(vi) * bc for vi, bc in zip(v, base_coeffs))
        a = (Fraction(-1) - ord_value(E, v)) - lin
        out.append((v, a))
    return tuple(out)


def model(E, model_type: str) -> ModelReport:
    E = check_exponents(E)
    start = ambient_resolution(E)
    D = model_divisor(E, start.source, model_type)
    trace = run_mmp(start, D)
    if trace.outcome != "minimal":
        raise InvariantBreach("ambient MMP ended in a fibration; the pair "
                              "divisor should always reach a nef model")
    nef_map = trace.final_map
    nef_D = trace.final_divisor
    cert = nefness(nef_D, nef_map)
    fan = trace.final_fan
    if model_type in ("canonical", "log-canonical"):
        fan, _, _ = contract_face(nef_map, nef_D)
    return ModelReport(model_type, start, D, trace, fan, cert,
                       _exceptional_discrepancies(E, trace.final_fan))
