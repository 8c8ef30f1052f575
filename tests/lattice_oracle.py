"""Test oracles for the integer-lattice layer: the routines `exactlin`,
`fan` and `mmp` ran before every corank-one integer kernel became a vector
of signed maximal minors (`exactlin.primitive_kernel`).

`integer_kernel` is the Hermite column reduction that gave a lattice basis
of any integer kernel; `fan.wall_coefficients` and the simplicial facet
normals of `fan.cone_facets` took its one vector (or a `Fraction` nullspace
scaled to integers).  `lattice_multiplicity` is the product of the Smith
invariants, which `fan.cone_lattice_multiplicity` took before the gcd of
the maximal minors.  `section_of_projection` solves P x = e_j over the
integers once per column, one Smith form each, as `mmp` did before it read
the section off one Smith form.

`support_function` is `divisor.support_function` as it eliminated each
cone twice before `exactlin.smith_solve`: a `Fraction` solve for the
covector (`lp_oracle.solve`, as `solve_linear` solved it, with its own
elimination), then a Smith form for the Cartier index
(`integer_multiple_for_solvability`).

`smith_solve` is `exactlin.smith_solve` as it read each right-hand side
before it went through `_integer_row`: U b on b's own entries, then
`Fraction((U b)_i) / d_i`.

`lattice_points` is `exactlin.lattice_points` as it enumerated before it
read integer bounds off the tower's integer rows: `Fraction` rows,
`Fraction` intervals rounded by `ceil` and `floor`, and
`HalfspaceSystem.contains` on the unscaled rows at the last coordinate.
Its tower and intervals are the `Fraction` ones of `lp_oracle`, so it
shares no elimination with the code it checks.  It raises on every
unbounded polyhedron, empty or not, as that path did.

`ckm_by_degrees` is `sections.verify_ckm` as it certified condition (3)
before the Farkas multipliers: one degree at a time, each violation region
tested for lattice points (`lattice_free_of`).

`parallelepiped_points` is the box scan of `fan.parallelepiped_points`,
one linear solve per point of the box the generators span, with
`lp_oracle.solve` as its solver, so it shares no elimination with the
Smith form behind `exactlin.solve_linear`.  A point off the span of a
cone that is not full-dimensional has no solution and is skipped.
"""

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

import lp_oracle
from toricmmp import exactlin as xl
from toricmmp.curves import nefness
from toricmmp.divisor import (NotQCartier, SupportFunction, check_divisor,
                              pullback, round_down)
from toricmmp.errors import InvariantBreach, PreconditionError
from toricmmp.sections import CKMVerdict


def integer_kernel(A: Sequence[Sequence[int]]) -> list:
    """Lattice basis of {x in Z^k : A x = 0} via column reduction.

    Returns [] when the kernel is trivial.  The output vectors are the columns
    of a unimodular transform corresponding to zeroed columns, so they always
    form a basis of the full integer kernel lattice.
    """
    if not A or not A[0]:
        k = len(A[0]) if A else 0
        return [tuple(r) for r in xl.identity_matrix(k)]
    m, k = len(A), len(A[0])
    cols = [[int(A[i][j]) for i in range(m)] for j in range(k)]
    U = [[1 if i == j else 0 for i in range(k)] for j in range(k)]  # columns of unimodular U

    col = 0
    for row in range(m):
        while True:
            nz = [j for j in range(col, k) if cols[j][row] != 0]
            if not nz:
                break
            j0 = min(nz, key=lambda j: (abs(cols[j][row]), j))
            cols[col], cols[j0] = cols[j0], cols[col]
            U[col], U[j0] = U[j0], U[col]
            done = True
            for j in range(col + 1, k):
                if cols[j][row] == 0:
                    continue
                q = cols[j][row] // cols[col][row]
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[col])]
                U[j] = [a - q * b for a, b in zip(U[j], U[col])]
                if cols[j][row] != 0:
                    done = False
            if done:
                break
        if col < k and cols[col][row] != 0:
            col += 1
        if col == k:
            break
    kernel = [tuple(U[j]) for j in range(k) if all(c == 0 for c in cols[j])]
    for kv in kernel:
        if any(xl.dot(rowa, kv) != 0 for rowa in A):
            raise InvariantBreach("integer kernel vector is not in the kernel")
    return sorted(kernel)


def smith_invariants(A: Sequence[Sequence[int]]) -> list:
    D, _, _ = xl.smith_normal_form(A)
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0)) if D[i][i] != 0]


def lattice_multiplicity(gens: tuple) -> int:
    """Index of the sublattice generated by the rays inside the lattice of
    the cone's span: the product of the Smith invariants."""
    if not gens:
        return 1
    cols = [[int(g[i]) for g in gens] for i in range(len(gens[0]))]
    out = 1
    for s in smith_invariants(cols):
        out *= s
    return out


def integer_solve(A: Sequence[Sequence[int]], b: Sequence[int]) -> Optional[tuple]:
    """One integer solution of A x = b, or None."""
    if not A:
        return ()
    D, U, V = xl.smith_normal_form(A)
    c = xl.mat_vec(U, b)
    m, n = len(A), len(A[0])
    y = [0] * n
    for i in range(m):
        d = D[i][i] if i < min(m, n) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    return xl.mat_vec(V, y)


def section_of_projection(P):
    """Integer right inverse s with P s = identity, one `integer_solve` per
    column."""
    rows = [list(r) for r in P]
    cols = []
    k = len(P)
    for j in range(k):
        e = [1 if i == j else 0 for i in range(k)]
        x = integer_solve(rows, e)
        if x is None:
            raise InvariantBreach("quotient projection has no integer section")
        cols.append(x)
    return tuple(tuple(cols[j][i] for j in range(k)) for i in range(len(cols[0])))


def smith_solve(A: Sequence[Sequence[int]], bs: Sequence) -> list:
    """(x, l) or None for each b of `bs`, from one Smith form, b read as
    given."""
    D, U, V = xl.smith_normal_form(A)
    solved = []
    for b in bs:
        y = [Fraction(0)] * len(V)
        for i, c in enumerate(xl.mat_vec(U, b)):
            d = D[i][i] if i < len(V) else 0
            if d:
                y[i] = Fraction(c) / d
            elif c:
                solved.append(None)
                break
        else:
            solved.append((xl.mat_vec(V, y), math.lcm(*(t.denominator for t in y))))
    return solved


def integer_multiple_for_solvability(A: Sequence[Sequence[int]], b: Sequence) -> Optional[int]:
    """Smallest positive integer l such that A x = l*b has an integer
    solution, or None if no rational solution exists."""
    if not A:
        return 1
    D, U, _ = xl.smith_normal_form(A)
    c = xl.mat_vec(U, b)
    m, n = len(A), len(A[0])
    ell = 1
    for i in range(m):
        d = D[i][i] if i < min(m, n) else 0
        ci = Fraction(c[i])
        if d == 0:
            if ci != 0:
                return None
        else:
            ell = math.lcm(ell, (ci / d).denominator)
    return ell


def support_function(F, D) -> SupportFunction:
    """Per maximal cone the `lp_oracle.solve` covector, and the Cartier index
    from `integer_multiple_for_solvability` on the cleared right-hand side."""
    check_divisor(F, D)
    covectors = []
    index = 1
    for cone in F.max_cones:
        if not cone:
            covectors.append((Fraction(0),) * F.rank)
            continue
        A = [F.rays[i] for i in cone]
        b = [-D.coeffs[i] for i in cone]
        m = lp_oracle.solve(A, b)
        if m is None:
            raise NotQCartier(cone)
        covectors.append(tuple(m))
        scale = math.lcm(*[c.denominator for c in b]) if b else 1
        ell = integer_multiple_for_solvability(A, [scale * c for c in b])
        if ell is None:
            raise NotQCartier(cone)
        index = math.lcm(index, scale * ell)
    return SupportFunction(tuple(covectors), index, F)


def lattice_points(H: xl.HalfspaceSystem, box=None) -> list:
    """All integer points of the polyhedron, sorted, by recursive
    `Fraction` interval enumeration over a Fourier-Motzkin tower; without a
    `box` the recession cone must be trivial."""
    dim = H.dim
    if dim == 0:
        return [()] if all(Fraction(o) >= 0 for o in H.offsets) else []
    if box is not None:
        extra_n, extra_o = [], []
        for i, (lo, hi) in enumerate(box):
            unit = tuple(1 if j == i else 0 for j in range(dim))
            extra_n += [unit, xl.vscale(-1, unit)]
            extra_o += [Fraction(-lo), Fraction(hi)]
        H = xl.HalfspaceSystem(tuple(H.normals) + tuple(extra_n),
                               tuple(H.offsets) + tuple(extra_o))
    elif not xl.recession_cone_trivial(H):
        raise PreconditionError("polyhedron is unbounded; pass a box")
    rows = [(tuple(map(Fraction, n)), Fraction(o)) for n, o in zip(H.normals, H.offsets)]
    tower = lp_oracle._fm_tower(rows, dim)
    for coeffs, off in tower[0]:
        if off < 0:
            return []

    out = []

    def rec(var, partial):
        iv = lp_oracle._interval(tower[var + 1], var, partial)
        if iv is None:
            return
        lo, hi = iv
        if lo is None or hi is None:
            raise PreconditionError("unbounded direction during enumeration")
        for x in range(math.ceil(lo), math.floor(hi) + 1):
            nxt = partial + [x]
            if var == dim - 1:
                if H.contains(nxt):
                    out.append(tuple(nxt))
            else:
                rec(var + 1, nxt)

    rec(0, [])
    return sorted(out)


def parallelepiped_points(gens: tuple) -> list:
    """(point, coefficients t) for the nonzero lattice points sum t_i g_i
    with 0 <= t_i < 1 of a simplicial cone, by scanning its box."""
    dim = len(gens[0])
    lo = [sum(min(0, g[j]) for g in gens) for j in range(dim)]
    hi = [sum(max(0, g[j]) for g in gens) for j in range(dim)]
    A = [[g[j] for g in gens] for j in range(dim)]
    out = []
    for point in itertools.product(*[range(l, h + 1) for l, h in zip(lo, hi)]):
        if not any(point):
            continue
        t = lp_oracle.solve(A, point)
        if t is not None and all(0 <= ti < 1 for ti in t):
            out.append((point, tuple(t)))
    return out


def lattice_free_of(ineqs_normals, ineqs_offsets):
    """Is {u : <n,u> + o >= 0} free of lattice points?  Returns (verdict,
    witness).  One LP answers an empty region, bounded or not; then
    `exactlin.lattice_points` raises on an unbounded one (no finite
    certificate)."""
    H = xl.HalfspaceSystem(tuple(ineqs_normals), tuple(ineqs_offsets))
    if xl.lp_feasible(H) is None:
        return True, None
    pts = xl.lattice_points(H)
    return (False, pts[0]) if pts else (True, None)


def ckm_by_degrees(R, D, m_max: Optional[int] = None):
    """Conditions (2), (1) and mu*D = P + N as `sections.verify_ckm` checks
    them, then (3) for m = 1..m_max (default 4 x the Cartier index of P):
    the global sections of floor(mP) and floor(m mu*D) on the model, ray by
    ray.  Global sections are the sections over the base only when the base
    is affine."""
    Z = R.model
    if not R.N.is_effective():
        return CKMVerdict(False, failed_condition=2)
    if not nefness(R.P, R.base_map).nef:
        return CKMVerdict(False, failed_condition=1)
    if m_max is None:
        m_max = 4 * R.p_cartier_index
    muD = pullback(R.to_source, D)
    if not (muD - R.P - R.N).is_zero():
        return CKMVerdict(False, failed_condition=3, failed_degree=0)
    for deg in range(1, m_max + 1):
        dP = round_down(R.P.scale(deg))
        dT = round_down(muD.scale(deg))
        if any(p > t for p, t in zip(dP.coeffs, dT.coeffs)):
            raise InvariantBreach("floor monotonicity violated")
        # sections of floor(deg*P) automatically include into the other side;
        # check the converse ray by ray
        for k, v in enumerate(Z.rays):
            if dP.coeffs[k] == dT.coeffs[k]:
                continue
            normals = list(Z.rays) + [tuple(-c for c in v)]
            offsets = list(dT.coeffs) + [-dP.coeffs[k] - 1]
            empty, witness = lattice_free_of(normals, offsets)
            if not empty:
                return CKMVerdict(False, failed_condition=3,
                                  failed_degree=deg,
                                  witness=tuple(witness))
    return CKMVerdict(True)
