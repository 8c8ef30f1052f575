"""Exact rational and integer linear algebra plus small polyhedral primitives.

Everything here works over ``fractions.Fraction`` or Python ints; no floating
point is used anywhere.  Vectors are tuples, matrices are tuples of row
tuples.  All algorithms are desk-scale exact methods: Gaussian elimination,
Hermite/Smith reduction, Fourier-Motzkin elimination, a Bland-rule phase-1
simplex for feasibility questions with many variables, recursive interval
enumeration for lattice points, and a subset-enumeration double description
whose one-dimensional kernels are signed maximal minors.  The simplex and
the minors run on Python ints by fraction-free elimination: the simplex by
integer pivoting over one common denominator (Edmonds), the minors by
Bareiss's determinant (Bareiss 1968); the simplex builds ``Fraction``s only
for the witness it returns.

Deterministic ordering: whenever ties arise, vectors are compared
lexicographically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from typing import Optional, Sequence

from .errors import InputError, InvariantBreach, PreconditionError

Vector = tuple
Matrix = tuple


# ---------------------------------------------------------------------------
# basic vector / matrix helpers
# ---------------------------------------------------------------------------

def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise InputError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def vsub(u: Sequence, v: Sequence) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, u: Sequence) -> Vector:
    return tuple(c * a for a in u)


def is_zero(u: Sequence) -> bool:
    return all(a == 0 for a in u)


def mat_vec(A: Sequence[Sequence], v: Sequence) -> Vector:
    return tuple(dot(row, v) for row in A)


def transpose(A: Sequence[Sequence]) -> Matrix:
    return tuple(zip(*A)) if A else ()


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def primitive(v: Sequence[int]) -> Vector:
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    if not v or all(a == 0 for a in v):
        raise InputError("primitive() of the zero vector is undefined")
    g = 0
    for a in v:
        g = gcd(g, abs(int(a)))
    return tuple(int(a) // g for a in v)


def _integer_row(row) -> list:
    """The row times the positive lcm of its denominators, as ints.  Ints
    and integral Fractions go in with no Fraction arithmetic."""
    den = lcm(*[x.denominator for x in row])
    if den == 1:
        return [x.numerator for x in row]
    return [x.numerator * (den // x.denominator) for x in row]


def scale_to_integer(v: Sequence) -> Vector:
    """Scale a nonzero rational vector by a positive rational to a primitive
    integer vector."""
    return primitive(_integer_row(v))


# ---------------------------------------------------------------------------
# rational Gaussian elimination
# ---------------------------------------------------------------------------

def _rref(rows):
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        rows[r] = [a / piv for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(A: Sequence[Sequence]) -> int:
    _, pivots = _rref(A)
    return len(pivots)


def solve_linear(A: Sequence[Sequence], b: Sequence) -> Optional[Vector]:
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero, which makes the result deterministic.
    """
    if not A:
        return ()
    n = len(A[0])
    aug = [list(row) + [bi] for row, bi in zip(A, b)]
    rows, pivots = _rref(aug)
    for row in rows:
        if all(a == 0 for a in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        if c == n:
            return None
        x[c] = rows[i][-1]
    return tuple(x)


def nullspace(A: Sequence[Sequence], n: Optional[int] = None) -> list:
    """Rational basis of {x : A x = 0}; `n` gives the dimension when A is
    empty."""
    if not A:
        return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)] if n else []
    n = len(A[0])
    rows, pivots = _rref(A)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for i, c in enumerate(pivots):
            x[c] = -rows[i][f]
        basis.append(tuple(x))
    return basis


def integer_det(M: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss): every division is exact, so all entries stay integers."""
    a = [list(r) for r in M]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            p = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if p is None:
                return 0
            a[k], a[p] = a[p], a[k]
            sign = -sign
        rk, akk = a[k], a[k][k]
        for i in range(k + 1, n):
            ri, aik = a[i], a[i][k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * akk - aik * rk[j]) // prev
        prev = akk
    return sign * a[-1][-1] if n else 1


def _minor_kernel(M, s: int) -> Vector:
    """Signed maximal minors of an (s-1) x s integer matrix M.  They satisfy
    M k = 0 (each row of M repeated on top of M gives a zero determinant);
    k spans the kernel when M has rank s-1 and is zero otherwise."""
    return tuple((-1) ** j * integer_det([r[:j] + r[j + 1:] for r in M])
                 for j in range(s))


# ---------------------------------------------------------------------------
# integer lattice algorithms (Hermite / Smith reduction)
# ---------------------------------------------------------------------------

def integer_kernel(A: Sequence[Sequence[int]]) -> list:
    """Lattice basis of {x in Z^k : A x = 0} via column reduction.

    Returns [] when the kernel is trivial.  The output vectors are the columns
    of a unimodular transform corresponding to zeroed columns, so they always
    form a basis of the full integer kernel lattice.
    """
    if not A or not A[0]:
        k = len(A[0]) if A else 0
        return [tuple(r) for r in identity_matrix(k)]
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
        if any(dot(rowa, kv) != 0 for rowa in A):
            raise InvariantBreach("integer kernel vector is not in the kernel")
    return sorted(kernel)


def smith_normal_form(A: Sequence[Sequence[int]]):
    """Smith normal form with transforms: returns (D, U, V) with U A V = D,
    U and V unimodular, D diagonal with d_i | d_{i+1}."""
    m = len(A)
    n = len(A[0]) if m else 0
    D = [[int(A[i][j]) for j in range(n)] for i in range(m)]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def addmul_row(dst, src, q):
        D[dst] = [a + q * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def addmul_col(dst, src, q):
        for r in D:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    t = 0
    while t < min(m, n):
        entries = [(abs(D[i][j]), i, j) for i in range(t, m) for j in range(t, n) if D[i][j] != 0]
        if not entries:
            break
        _, pi, pj = min(entries)
        swap_rows(t, pi)
        swap_cols(t, pj)
        dirty = False
        for i in range(t + 1, m):
            if D[i][t] != 0:
                q = D[i][t] // D[t][t]
                addmul_row(i, t, -q)
                dirty = dirty or D[i][t] != 0
        for j in range(t + 1, n):
            if D[t][j] != 0:
                q = D[t][j] // D[t][t]
                addmul_col(j, t, -q)
                dirty = dirty or D[t][j] != 0
        if dirty:
            continue
        # divisibility fix-up
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if D[i][j] % D[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            addmul_row(t, bad, 1)
            continue
        if D[t][t] < 0:
            D[t] = [-a for a in D[t]]
            U[t] = [-a for a in U[t]]
        t += 1
    Dt = tuple(tuple(r) for r in D)
    return Dt, tuple(tuple(r) for r in U), tuple(tuple(r) for r in V)


def smith_invariants(A: Sequence[Sequence[int]]) -> list:
    D, _, _ = smith_normal_form(A)
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0)) if D[i][i] != 0]


def quotient_projection(vectors: Sequence[Sequence[int]], dim: int) -> Matrix:
    """Integer projection matrix P : Z^dim -> Z^(dim-r) with kernel the
    saturation of the sublattice spanned by `vectors` (r = its rank)."""
    if not vectors:
        return identity_matrix(dim)
    W = [[int(v[i]) for v in vectors] for i in range(dim)]  # dim x k, columns = vectors
    D, U, _ = smith_normal_form(W)
    r = len([i for i in range(min(len(D), len(D[0]))) if D[i][i] != 0])
    return tuple(tuple(U[i]) for i in range(r, dim))


def integer_solve(A: Sequence[Sequence[int]], b: Sequence[int]) -> Optional[Vector]:
    """One integer solution of A x = b, or None."""
    if not A:
        return ()
    D, U, V = smith_normal_form(A)
    c = mat_vec(U, b)
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
    return mat_vec(V, y)


def integer_multiple_for_solvability(A: Sequence[Sequence[int]], b: Sequence) -> Optional[int]:
    """Smallest positive integer l such that A x = l*b has an integer
    solution, or None if no rational solution exists."""
    if not A:
        return 1
    D, U, _ = smith_normal_form(A)
    c = mat_vec(U, b)
    m, n = len(A), len(A[0])
    ell = 1
    for i in range(m):
        d = D[i][i] if i < min(m, n) else 0
        ci = Fraction(c[i])
        if d == 0:
            if ci != 0:
                return None
        else:
            ell = lcm(ell, (ci / d).denominator)
    return ell


# ---------------------------------------------------------------------------
# halfspace systems and Fourier-Motzkin elimination
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HalfspaceSystem:
    """Finite list of constraints <normal, x> + offset >= 0."""

    normals: tuple
    offsets: tuple

    def __post_init__(self):
        if len(self.normals) != len(self.offsets):
            raise InputError("normals/offsets length mismatch")
        for nrm in self.normals:
            if is_zero(nrm):
                raise InputError("halfspace normal must be nonzero")
            if len(nrm) != self.dim:
                raise InputError("inconsistent halfspace dimensions")

    @property
    def dim(self) -> int:
        return len(self.normals[0]) if self.normals else 0

    def rows(self) -> list:
        return [(tuple(map(Fraction, n)), Fraction(o)) for n, o in zip(self.normals, self.offsets)]

    def contains(self, x: Sequence) -> bool:
        return all(dot(n, x) + o >= 0 for n, o in zip(self.normals, self.offsets))

    def with_extra(self, normals, offsets) -> "HalfspaceSystem":
        return HalfspaceSystem(tuple(self.normals) + tuple(normals),
                               tuple(self.offsets) + tuple(offsets))


def _normalize_row(row):
    coeffs, off = row
    entries = list(coeffs) + [off]
    nz = [e for e in entries if e != 0]
    if not nz:
        return (tuple(coeffs), off)
    den = lcm(*(Fraction(e).denominator for e in entries))
    ints = [int(Fraction(e) * den) for e in entries]
    g = 0
    for e in ints:
        g = gcd(g, abs(e))
    ints = [e // g for e in ints]
    return (tuple(ints[:-1]), ints[-1])


def _fm_eliminate(rows, var):
    """Eliminate variable `var` from rows [(coeffs, offset)] meaning
    <coeffs, x> + offset >= 0.  Returns rows over the remaining variables
    (coefficient tuple keeps its length; entry at `var` becomes 0)."""
    pos, neg, zero = [], [], []
    for coeffs, off in rows:
        c = coeffs[var]
        if c > 0:
            pos.append((coeffs, off))
        elif c < 0:
            neg.append((coeffs, off))
        else:
            zero.append((coeffs, off))
    out = set(_normalize_row(r) for r in zero)
    for (cp, op_), (cn, on_) in itertools.product(pos, neg):
        a, b = cp[var], -cn[var]
        coeffs = tuple(b * p + a * q for p, q in zip(cp, cn))
        out.add(_normalize_row((coeffs, b * op_ + a * on_)))
    return sorted(out)


def _fm_tower(rows, dim):
    """Systems obtained by eliminating variables dim-1, dim-2, ..., 1.
    tower[k] constrains variables x_0..x_{k-1} only (entries beyond are 0)."""
    tower = [None] * (dim + 1)
    tower[dim] = sorted(set(_normalize_row(r) for r in rows))
    cur = tower[dim]
    for var in range(dim - 1, -1, -1):
        cur = _fm_eliminate(cur, var)
        tower[var] = cur
    return tower


def _interval(rows, var, partial):
    """Closed interval for x_var given values of x_0..x_{var-1} in `partial`.
    Returns (lo, hi) with None meaning unbounded, or 'empty'."""
    lo, hi = None, None
    for coeffs, off in rows:
        c = coeffs[var]
        if c == 0:
            continue
        val = off + sum(coeffs[i] * partial[i] for i in range(var))
        bound = Fraction(-val, c)
        if c > 0:
            if lo is None or bound > lo:
                lo = bound
        else:
            if hi is None or bound < hi:
                hi = bound
    if lo is not None and hi is not None and lo > hi:
        return "empty"
    return (lo, hi)


def lp_feasible(H: HalfspaceSystem) -> Optional[Vector]:
    """Exact rational witness satisfying all constraints, or None.

    Deterministic Fourier-Motzkin elimination with back-substitution; the
    witness picks 0 when admissible, otherwise the interval midpoint or the
    finite bound.
    """
    dim = H.dim
    rows = H.rows()
    if dim == 0:
        return () if all(o >= 0 for _, o in rows) else None
    tower = _fm_tower(rows, dim)
    for coeffs, off in tower[0]:
        if off < 0:
            return None
    partial = []
    for var in range(dim):
        iv = _interval(tower[var + 1], var, partial)
        if iv == "empty":
            return None
        lo, hi = iv
        if lo is None and hi is None:
            x = Fraction(0)
        elif lo is None:
            x = min(Fraction(0), hi)
        elif hi is None:
            x = max(Fraction(0), lo)
        elif lo <= 0 <= hi:
            x = Fraction(0)
        else:
            x = (lo + hi) / 2
        partial.append(x)
    if not H.contains(partial):
        raise InvariantBreach("Fourier-Motzkin witness violates a constraint")
    return tuple(partial)


def recession_cone_trivial(H: HalfspaceSystem) -> bool:
    """True iff the recession cone {x : <n,x> >= 0 for all normals} is {0}."""
    dim = H.dim
    if dim == 0:
        return True
    for i in range(dim):
        for sign in (1, -1):
            unit = tuple(sign if j == i else 0 for j in range(dim))
            probe = HalfspaceSystem(
                tuple(H.normals) + (unit, vscale(-1, unit)),
                tuple(Fraction(0) for _ in H.normals) + (Fraction(-1), Fraction(1)),
            )
            if lp_feasible(probe) is not None:
                return False
    return True


def lattice_points(H: HalfspaceSystem, bounded: bool = True,
                   box: Optional[Sequence[tuple]] = None) -> list:
    """All integer points of the polyhedron, by recursive coordinate-interval
    enumeration.  With `bounded` the polyhedron must have trivial recession
    cone (checked); otherwise an explicit `box` [(lo,hi), ...] is required.
    """
    dim = H.dim
    if dim == 0:
        return [()] if all(Fraction(o) >= 0 for o in H.offsets) else []
    if box is not None:
        extra_n, extra_o = [], []
        for i, (lo, hi) in enumerate(box):
            unit = tuple(1 if j == i else 0 for j in range(dim))
            extra_n += [unit, vscale(-1, unit)]
            extra_o += [Fraction(-lo), Fraction(hi)]
        H = H.with_extra(extra_n, extra_o)
    elif bounded:
        if not recession_cone_trivial(H):
            raise PreconditionError("polyhedron is unbounded; pass a box")
    else:
        raise PreconditionError("unbounded enumeration requires a box")
    tower = _fm_tower(H.rows(), dim)
    for coeffs, off in tower[0]:
        if off < 0:
            return []

    out = []

    def rec(var, partial):
        iv = _interval(tower[var + 1], var, partial)
        if iv == "empty":
            return
        lo, hi = iv
        if lo is None or hi is None:
            raise PreconditionError("unbounded direction during enumeration")
        for x in range(ceil(lo), floor(hi) + 1):
            nxt = partial + [x]
            if var == dim - 1:
                if H.contains(nxt):
                    out.append(tuple(nxt))
            else:
                rec(var + 1, nxt)

    rec(0, [])
    return sorted(out)


# ---------------------------------------------------------------------------
# phase-1 simplex by integer pivoting
# ---------------------------------------------------------------------------

def _phase1(A, b):
    """Find z >= 0 with A z = b (exact), or None.  Bland's rule simplex.

    Integer pivoting (Edmonds): the tableau holds integers over one common
    denominator D > 0, starting at 1; each row of [A | b] is scaled to
    integers first.  Pivoting on p = T[r][s] turns every other row, and the
    cost row, into (x*p - f*y) // D and then sets D = p.  The division is
    exact because every entry is a minor of the initial tableau, and p > 0
    (the ratio test picks it), so every sign test and every ratio
    comparison is that of the rational tableau.

    The cost row starts as minus the sum of the rows, artificial columns
    included, so it stays a combination of the constraint rows.  An
    artificial column keeps cost -1 while it is basic from the start, and
    Bland's rule pivots it in place once no earlier column has negative
    cost; when no cost is negative every basic column has cost 0, so the
    right-hand side of the cost row is 0.  The system is infeasible exactly
    when an artificial variable is then basic at a positive level.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if m == 0:
        return tuple()
    T = []
    for i in range(m):
        row = _integer_row(list(A[i]) + [b[i]])
        if row[-1] < 0:
            row = [-x for x in row]
        T.append(row[:-1] + [1 if j == i else 0 for j in range(m)] + row[-1:])
    ncols = n + m
    basis = list(range(n, n + m))
    cost = [-sum(col) for col in zip(*T)]
    D = 1
    while True:
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            break
        # Bland's ratio test: least (rhs / entry, basis[i], i) over positive
        # entries, ratios compared by cross-multiplication
        piv = None
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                if piv is None:
                    piv, best_a, best_t = i, a, T[i][ncols]
                    continue
                lhs, rhs = T[i][ncols] * best_a, best_t * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[piv]):
                    piv, best_a, best_t = i, a, T[i][ncols]
        if piv is None:
            raise InvariantBreach("phase 1 unbounded: no positive entry in the entering column")
        prow = T[piv]
        p = prow[enter]
        for i in range(m):
            if i != piv:
                row = T[i]
                f = row[enter]
                if f:
                    T[i] = [(x * p - f * y) // D for x, y in zip(row, prow)]
                elif p != D:
                    T[i] = [x * p // D for x in row]
        f = cost[enter]
        cost = [(x * p - f * y) // D for x, y in zip(cost, prow)]
        basis[piv] = enter
        D = p
    if cost[ncols] != 0:
        raise InvariantBreach("phase 1 ended with a nonzero cost right-hand side")
    z = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            z[bv] = Fraction(T[i][ncols], D)
        elif T[i][ncols] != 0:
            return None  # an artificial variable stays positive: infeasible
    return tuple(z)


def solve_nonneg(columns: Sequence[Sequence], target: Sequence) -> Optional[Vector]:
    """Coefficients c >= 0 with sum c_j columns[j] = target, or None.  A
    witness is checked exactly before it is returned."""
    if not columns:
        return () if is_zero(target) else None
    m = len(columns[0])
    A = [[columns[j][i] for j in range(len(columns))] for i in range(m)]
    c = _phase1(A, list(target))
    if c is not None and (any(x < 0 for x in c) or mat_vec(A, c) != tuple(target)):
        raise InvariantBreach("solve_nonneg witness fails its check")
    return c


def feasible_point(ineqs: Sequence[tuple], eqs: Sequence[tuple] = (),
                   dim: Optional[int] = None) -> Optional[Vector]:
    """Find x with <a,x> >= r for (a,r) in ineqs and <a,x> = r for (a,r) in
    eqs.  Variables are free; handled by x = u - w with u,w >= 0.  A point
    is checked against every constraint before it is returned."""
    rows = list(ineqs) + list(eqs)
    if dim is None:
        dim = len(rows[0][0]) if rows else 0
    if not rows:
        return tuple(Fraction(0) for _ in range(dim))
    nslack = len(ineqs)
    A, b = [], []
    for k, (a, r) in enumerate(ineqs):
        A.append(list(a) + [-x for x in a] + [-1 if j == k else 0 for j in range(nslack)])
        b.append(r)
    for a, r in eqs:
        A.append(list(a) + [-x for x in a] + [0] * nslack)
        b.append(r)
    z = _phase1(A, b)
    if z is None:
        return None
    x = tuple(z[i] - z[dim + i] for i in range(dim))
    if any(dot(a, x) < r for a, r in ineqs) or any(dot(a, x) != r for a, r in eqs):
        raise InvariantBreach("feasible_point witness violates a constraint")
    return x


# ---------------------------------------------------------------------------
# cones from generators / from halfspaces
# ---------------------------------------------------------------------------

def positive_circuit_indices(generators: Sequence[Sequence]) -> list:
    """Indices i for which some nonnegative relation sum c g = 0 has c_i > 0.
    Nonempty iff the cone spanned by the generators contains a line."""
    out = []
    for i in range(len(generators)):
        # c_i fixed to 1 by moving g_i to the right-hand side
        sol = solve_nonneg(list(generators[:i]) + list(generators[i + 1:]),
                           vscale(-1, generators[i]))
        if sol is not None:
            out.append(i)
    return out


def cone_contains_line(generators: Sequence[Sequence]) -> bool:
    return bool(positive_circuit_indices(generators))


def extreme_rays(generators: Sequence[Sequence]) -> list:
    """Indices of generators lying on extreme rays of the cone they span.

    Raises PreconditionError when the cone contains a line.  Every input
    generator is a nonnegative combination of the returned ones.
    """
    gens = [tuple(g) for g in generators]
    if any(is_zero(g) for g in gens):
        raise InputError("zero generator")
    if cone_contains_line(gens):
        raise PreconditionError("cone contains a line")
    prim = [scale_to_integer(g) for g in gens]
    reps = {}
    for i, p in enumerate(prim):
        reps.setdefault(p, []).append(i)
    rep_vectors = sorted(reps)
    extreme = set()
    for p in rep_vectors:
        others = [q for q in rep_vectors if q != p]
        if solve_nonneg(others, p) is None:
            extreme.update(reps[p])
    return sorted(extreme)


def extreme_rays_of_halfspaces(ineqs: Sequence[Sequence], eqs: Sequence[Sequence],
                               dim: int) -> tuple:
    """(rays, lineality) of the cone {x : <a,x> >= 0, <e,x> = 0}.

    Rays are primitive integer vectors, sorted; lineality is a rational basis
    of the largest linear subspace inside the cone.  Subset-enumeration double
    description: each extreme ray is cut out by dim(span)-1 independent active
    constraints.  After the lineality split the work is on integers: the span
    basis and the rows are rescaled to primitive integer vectors (a positive
    rescaling keeps every ray) and the kernel of each row subset is its
    vector of signed maximal minors.
    """
    span = nullspace(list(eqs), dim) if eqs else \
        [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    if not span:
        return [], []
    s = len(span)
    # inequality rows in span coordinates
    rows = [tuple(dot(a, bvec) for bvec in span) for a in ineqs]
    rows = [r for r in rows if not is_zero(r)]
    lin = nullspace(rows, s)
    if lin:
        amb_lin = [tuple(sum(Fraction(y[j]) * span[j][i] for j in range(s)) for i in range(dim))
                   for y in lin]
        # split off the pointed part: C = lineality + (C intersect lineality-perp)
        sub_rays, sub_lin = extreme_rays_of_halfspaces(
            ineqs, list(eqs) + [tuple(l) for l in amb_lin], dim)
        if sub_lin:
            raise InvariantBreach("pointed part of the cone has a lineality space")
        return sub_rays, amb_lin
    basis = [scale_to_integer(b) for b in span]
    rows = (tuple(dot(a, b) for b in basis) for a in ineqs)
    rows = list(dict.fromkeys(scale_to_integer(r) for r in rows if not is_zero(r)))
    rays = set()
    for subset in itertools.combinations(rows, s - 1):
        ker = _minor_kernel(subset, s)
        if is_zero(ker):
            continue  # dependent rows
        for cand in (ker, tuple(-k for k in ker)):
            if all(sum(x * y for x, y in zip(r, cand)) >= 0 for r in rows):
                rays.add(primitive(tuple(sum(c * b[i] for c, b in zip(cand, basis))
                                         for i in range(dim))))
                break
    return sorted(rays), []
