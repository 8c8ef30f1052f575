"""Section algebras, pseudo-effectivity, and relative Zariski decomposition.

The graded section cone of a divisor D over an affine base is
C = {(u, a) : a >= 0, <u, v_rho> + a d_rho >= 0 for every ray}; its lattice
points in degree a are the monomial sections of aD.  Finite generation is
made effective through a Hilbert basis computation (Gordan's construction:
extreme rays, fundamental parallelepipeds, irreducibility pruning).

The relative Zariski decomposition is an application of the toric MMP: the
D-MMP runs on X itself, and a resolution of X only refines the model on
which P and N are read off.
"""

from __future__ import annotations

from math import lcm
from typing import Optional

from . import exactlin as xl
from .errors import InvariantBreach, PreconditionError
from .record import record
from .fan import (Fan, FanMap, _landing, common_refinement, identity_map,
                  parallelepiped_points, qfactorialize, resolve)
from .divisor import (InvariantDivisor, check_divisor, pullback, round_down,
                      sections_basis, sections_polytope, support_function)
from .curves import nefness
from .mmp import contract_face, run_mmp


def section_cone(F: Fan, D: InvariantDivisor) -> xl.HalfspaceSystem:
    """The graded section cone as a halfspace system in M x R with zero
    offsets: the grading row and one row (v_rho, d_rho) per ray, each
    cleared of its denominator."""
    check_divisor(F, D)
    if not F.support_full_dimensional():
        raise PreconditionError("support must span the lattice (pointedness)")
    rows = [tuple([0] * F.rank + [1])]
    for v, d in zip(F.rays, D.coeffs):
        den = d.denominator  # clear the denominator row-wise
        rows.append(tuple([den * c for c in v] + [d.numerator]))
    return xl.HalfspaceSystem(tuple(rows), (0,) * len(rows))


def _affine_base(m: FanMap) -> bool:
    """Is the base a single cone (a point counts)?"""
    return m.target.rank == 0 or len(m.target.max_cones) == 1


def hilbert_basis(C: xl.HalfspaceSystem) -> list:
    """Minimal generating set of the semigroup of lattice points of the cone
    C, a halfspace system with zero offsets (`section_cone`)."""
    rays, lin = xl.extreme_rays_of_halfspaces(list(C.normals), (), C.dim)
    if lin:
        raise PreconditionError("section cone is not pointed")
    if not rays:
        return []
    cone_fan = Fan(C.dim, tuple(rays), (tuple(range(len(rays))),))
    simp, _ = qfactorialize(cone_fan)
    candidates = set(simp.rays)
    for c in simp.max_cones:
        gens = simp.cone_gens(c)
        for p, _t in parallelepiped_points(gens):
            candidates.add(p)
    candidates = sorted(candidates)
    basis = []
    for x in candidates:
        reducible = False
        for y in candidates:
            if y == x or xl.is_zero(y):
                continue
            diff = xl.vsub(x, y)
            if not xl.is_zero(diff) and C.contains(diff):
                reducible = True
                break
        if not reducible:
            basis.append(x)
    return basis


def algebra_generators(m: FanMap, D: InvariantDivisor) -> list:
    """Graded generators of the section algebra of a (possibly non-Q-Cartier)
    Weil divisor over an affine base."""
    if not _affine_base(m):
        raise PreconditionError("base must be affine (a single cone)")
    return hilbert_basis(section_cone(m.source, D))


def graded_lattice_points(F: Fan, D: InvariantDivisor, degree: int,
                          box=None) -> list:
    """Lattice points of P_{floor(degree * D)} as graded vectors (u, degree);
    the brute-force oracle used against hilbert_basis."""
    pts = sections_basis(F, round_down(D.scale(degree)), box=box)
    return [tuple(list(p) + [degree]) for p in pts]


# ---------------------------------------------------------------------------
# pseudo-effectivity
# ---------------------------------------------------------------------------

def is_pseudo_effective(m: FanMap, D: InvariantDivisor) -> bool:
    """Is D pseudo-effective over the base?  The base picks the route.
    Over an affine base (a point counts) one LP decides: P_D is nonempty
    as a rational polyhedron, and a witness scales to an integral section
    of some multiple.  Over any other base the D-MMP decides: a nef end
    certifies pseudo-effectivity, a fano end (D negative on a covering
    family of curves) refutes it."""
    if _affine_base(m):
        return xl.lp_feasible(sections_polytope(m.source, D)) is not None
    return run_mmp(m, D).outcome == "minimal"


# ---------------------------------------------------------------------------
# Zariski decomposition
# ---------------------------------------------------------------------------

@record
class ZariskiResult:
    model: Fan                    # common refinement Z
    to_source: FanMap             # Z -> X (identity-matrix refinement)
    base_map: FanMap              # Z -> base
    P: InvariantDivisor
    N: InvariantDivisor
    nef_end_fan: Fan
    p_cartier_index: int


def zariski_decompose(m: FanMap, D: InvariantDivisor) -> ZariskiResult:
    """Relative Zariski decomposition: run the D-MMP on X, then take the
    model Z = common_refinement(resolve(X), X_end); P is the pullback of
    the nef end to Z and N the exact excess of D over it.  The resolution
    only refines the model: no MMP step runs on it."""
    X, Y = m.source, m.target
    check_divisor(X, D)
    if not X.is_simplicial():
        raise PreconditionError("source must be simplicial (Q-factorial)")
    trace = run_mmp(m, D)
    if trace.outcome != "minimal":
        raise PreconditionError("pseudo-effectivity failed: the MMP ends in a "
                                "fano fibration with D negative on its fibers")
    Z, _, nu = common_refinement(resolve(X)[0], trace.final_fan)
    to_source = identity_map(Z, X)
    P = pullback(nu, trace.final_divisor)
    N = pullback(to_source, D) - P
    if not N.is_effective():
        raise InvariantBreach("negative part is not effective")
    zbase = FanMap(m.matrix, Z, Y)
    if not nefness(P, zbase).nef:
        raise InvariantBreach("positive part is not nef over the base")
    # semi-ampleness certificate: the ample model of P exists
    contract_face(zbase, P)
    idx = support_function(Z, P).cartier_index
    return ZariskiResult(Z, to_source, zbase, P, N, trace.final_fan, idx)


@record
class CKMVerdict:
    ok: bool
    failed_condition: Optional[int] = None
    failed_degree: Optional[int] = None
    witness: Optional[tuple] = None


def verify_ckm(R: ZariskiResult, D: InvariantDivisor) -> CKMVerdict:
    """Certify the decomposition: P nef (1), N effective (2), and for every
    m >= 1 equal sections of floor(mP) and floor(m mu*D) over each chart of
    the base (3).  Over a maximal base cone tau, with the model rays rho
    over it (`_landing`), these are the lattice points of m P_P and
    m P_{mu*D}, P_T = {u : <u, v_rho> >= -T_rho} (Cox-Little-Schenck,
    Prop. 4.3.3), so (3) holds in every degree iff the two rational
    polyhedra are equal.  P <= mu*D = t gives one inclusion.  The other
    holds at a ray k with N_k > 0 when Farkas multipliers lambda >= 0 exist
    (Schrijver, Theory of Linear and Integer Programming, 7):
    sum lambda_rho v_rho = v_k and sum lambda_rho t_rho <= p_k.  Failing
    them, (u, s) with <u, v_rho> + s t_rho >= 0, s >= 1 and
    -<u, v_k> - s p_k >= 1 puts u/s in P_{mu*D} outside P_P: with q the
    lcm of its denominators, q u/s is a section of floor(q mu*D) over tau
    that floor(qP) lacks.  No such (u, s) means P_{mu*D} is empty there."""
    Z = R.model
    if not R.N.is_effective():
        return CKMVerdict(False, failed_condition=2)
    if not nefness(R.P, R.base_map).nef:
        return CKMVerdict(False, failed_condition=1)
    muD = pullback(R.to_source, D)
    if not (muD - R.P - R.N).is_zero():
        return CKMVerdict(False, failed_condition=3, failed_degree=0)
    t, p = muD.coeffs, R.P.coeffs
    rows = [v + (c,) for v, c in zip(Z.rays, t)]
    slack = (0,) * Z.rank + (1,)
    landing = _landing(R.base_map)
    homes = [landing((k,)) for k in range(len(Z.rays))]
    for tau in R.base_map.target.max_cones:
        over = [k for k, h in enumerate(homes) if tau in h]
        columns = [rows[k] for k in over] + [slack]
        for k in over:
            if not R.N.coeffs[k] or \
                    xl.solve_nonneg(columns, Z.rays[k] + (p[k],)) is not None:
                continue
            cut = tuple(-c for c in Z.rays[k]) + (-p[k],)
            point = xl.feasible_point([(rows[r], 0) for r in over]
                                      + [(slack, 1), (cut, 1)])
            if point is None:
                break  # P^tau_{mu*D} is empty
            u = [c / point[-1] for c in point[:-1]]
            q = lcm(*(c.denominator for c in u))
            return CKMVerdict(False, failed_condition=3, failed_degree=q,
                              witness=tuple((q * c).numerator for c in u))
    return CKMVerdict(True)
