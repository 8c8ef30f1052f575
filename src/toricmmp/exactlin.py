"""Exact rational and integer linear algebra plus small polyhedral primitives.

Everything here works over ``fractions.Fraction`` or Python ints; no
floating point is used anywhere.  Vectors are tuples, matrices are tuples of
row tuples.  All algorithms are desk-scale exact methods: Gaussian
elimination, signed maximal minors, Smith reduction, a Bland-rule phase-1
simplex, which answers every feasibility and boundedness question,
Fourier-Motzkin elimination with recursive interval enumeration, used only
to list lattice points by floor division on the tower's primitive integer
rows, and a subset-enumeration double description.  Every corank-one integer
kernel (a facet normal, a ray of the double description) is a vector of
signed maximal minors (`primitive_kernel`), and a wall relation takes the
same minors by Cramer's rule on `integer_det` (`fan.wall_coefficients`); the
Smith form serves only quotient lattices and `smith_solve`, a rational
solution together with its divisibility index, and that one Smith form
solves every rational system A x = b (`solve_linear`, whose one caller is
`fan.parallelepiped_points`) and gives the integer section of a quotient
projection, all its columns from one Smith form
(`mmp._section_of_projection`).  Every module reads lattice integers through
`integer` and its vector form `integers`, which refuse a float, a bool or a
proper fraction instead of truncating it.  The simplex, the minors, the rank
and `nullspace` run on Python ints by fraction-free elimination: the simplex
by integer pivoting over one common denominator (Edmonds), the minors by
cofactor expansion up to 3 x 3 and by Bareiss's determinant above (Bareiss
1968), the rank and `nullspace` by forward elimination on primitive integer
rows (`_echelon`).  The simplex returns integer numerators over that
denominator, and its callers check them by integer dot products and build
``Fraction``s only for the witness they return.

Deterministic ordering: whenever ties arise, vectors are compared
lexicographically.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import mul, neg
from typing import Optional, Sequence

from .errors import InputError, InvariantBreach, PreconditionError
from .record import record

Vector = tuple
Matrix = tuple


# ---------------------------------------------------------------------------
# basic vector / matrix helpers
# ---------------------------------------------------------------------------

def dot(u: Sequence, v: Sequence):
    """The sum of the products u_i v_i, added to 0 in index order, so the
    value is exact for ints and ``Fraction``s alike."""
    if len(u) != len(v):
        raise InputError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


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


def integer(x, error=InputError) -> int:
    """x as an int when it is an int or an integral Fraction; `error` on
    anything else: a float (even 1.0), a bool, a string, a proper fraction."""
    if isinstance(x, Fraction) and x.denominator == 1 or (
            isinstance(x, int) and not isinstance(x, bool)):
        return x.numerator
    raise error(f"expected an integer, got {x!r}")


def integers(v, error=InputError) -> Vector:
    """The entries of v read by `integer`; an exact int passes as it is."""
    return tuple(c if c.__class__ is int else integer(c, error) for c in v)


def primitive(v: Sequence[int]) -> Vector:
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    v = integers(v)
    g = gcd(*v)
    if not g:
        raise InputError("primitive() of the zero vector is undefined")
    return tuple(a // g for a in v)


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
# Gaussian elimination: fraction-free echelon rows
# ---------------------------------------------------------------------------

def _echelon(A: Sequence[Sequence]) -> list:
    """(pivot column, integer row) pairs, one per unit of rank, by forward
    elimination: rows scaled to integers (`_integer_row`), a pivot row p
    clearing its column, its first nonzero entry, from each other row b by
    p_c * b - b_c * p, and each new row divided by the gcd of its entries.
    So no `Fraction` is built, and the pivot columns are the rref's."""
    rows = [row for row in map(_integer_row, A) if any(row)]
    out = []
    while rows:
        piv = rows.pop()
        c = next(i for i, a in enumerate(piv) if a)
        p = piv[c]
        rest = []
        for row in rows:
            f = row[c]
            if f:
                row = [p * a - f * b for a, b in zip(row, piv)]
                g = gcd(*row)
                if not g:
                    continue
                if g > 1:
                    row = [a // g for a in row]
            rest.append(row)
        rows = rest
        out.append((c, piv))
    return out


def rank(A: Sequence[Sequence]) -> int:
    """The number of pivots of `_echelon`."""
    return len(_echelon(A))


def solve_linear(A: Sequence[Sequence], b: Sequence) -> Optional[Vector]:
    """A solution of A x = b, the unique one when A's columns are
    independent, or None if inconsistent: `smith_solve` on the rows of
    (A | b) scaled to integers (`_integer_row`)."""
    if not A:
        return ()
    rows = [_integer_row(list(row) + [bi]) for row, bi in zip(A, b)]
    (solved,) = smith_solve([row[:-1] for row in rows],
                            [[row[-1] for row in rows]])
    return None if solved is None else solved[0]


def nullspace(A: Sequence[Sequence], n: Optional[int] = None) -> list:
    """Basis of {x : A x = 0}, one primitive integer row per free column f
    of `_echelon(A)`, in increasing order: the `primitive_kernel` of the
    echelon rows on the pivot columns and f, positive at f, 0 at the other
    free columns; the rref's vector for f times a positive rational.  `n`
    gives the dimension when A is empty."""
    n = len(A[0]) if A else n or 0
    echelon = _echelon(A)
    pivots = [c for c, _ in echelon]
    basis = []
    for f in sorted(set(range(n)) - set(pivots)):
        cols = pivots + [f]
        ker = primitive_kernel([[row[c] for c in cols] for _, row in echelon], len(cols))
        x = dict(zip(cols, ker if ker[-1] > 0 else vscale(-1, ker)))
        basis.append(tuple(x.get(c, 0) for c in range(n)))
    return basis


# ---------------------------------------------------------------------------
# integer kernels: Bareiss determinants and signed maximal minors
# ---------------------------------------------------------------------------

def integer_det(M: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix.  Up to 3 x 3 it is the
    cofactor expansion along the first row, the same integer in a few
    products; above that fraction-free elimination (Bareiss), where every
    division is exact, so all entries stay integers."""
    n = len(M)
    if n <= 2:
        if n == 2:
            (a, b), (c, d) = M
            return a * d - b * c
        return M[0][0] if n else 1
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = M
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    a = [list(r) for r in M]
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
    return sign * a[-1][-1]


def _minor_kernel(M, s: int) -> Vector:
    """Signed maximal minors of an (s-1) x s integer matrix M.  They satisfy
    M k = 0 (each row of M repeated on top of M gives a zero determinant);
    k spans the kernel when M has rank s-1 and is zero otherwise."""
    return tuple((-1) ** j * integer_det([r[:j] + r[j + 1:] for r in M])
                 for j in range(s))


def primitive_kernel(M: Sequence[Sequence[int]], s: int) -> Vector:
    """The primitive integer vector spanning the kernel of an (s-1) x s
    integer matrix M of rank s-1, up to sign: its signed maximal minors
    (`_minor_kernel`) divided by their gcd.  A wrong shape or a rank
    deficit (all minors zero) is an InvariantBreach."""
    rows = [tuple(r) for r in M]
    if len(rows) != s - 1 or any(len(r) != s for r in rows):
        raise InvariantBreach(f"{len(rows)} rows in Z^{s} do not cut out a line")
    ker = _minor_kernel(rows, s)
    if is_zero(ker):
        raise InvariantBreach("rank-deficient matrix: its kernel is not a line")
    ker = primitive(ker)
    if any(dot(r, ker) != 0 for r in rows):
        raise InvariantBreach("integer kernel vector is not in the kernel")
    return ker


# ---------------------------------------------------------------------------
# integer lattice algorithms (Smith reduction): quotients and divisibility
# ---------------------------------------------------------------------------

def smith_normal_form(A: Sequence[Sequence[int]]):
    """Smith normal form with transforms: returns (D, U, V) with U A V = D,
    U and V unimodular, D diagonal with d_i | d_{i+1}."""
    m = len(A)
    n = len(A[0]) if m else 0
    D = [list(integers(row)) for row in A]
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


def quotient_projection(vectors: Sequence[Sequence[int]], dim: int) -> Matrix:
    """Integer projection matrix P : Z^dim -> Z^(dim-r) with kernel the
    saturation of the sublattice spanned by `vectors` (r = its rank)."""
    if not vectors:
        return identity_matrix(dim)
    D, U, _ = smith_normal_form(transpose(vectors))  # columns = vectors
    r = len([i for i in range(min(len(D), len(D[0]))) if D[i][i] != 0])
    return tuple(tuple(U[i]) for i in range(r, dim))


def smith_solve(A: Sequence[Sequence[int]], bs: Sequence) -> list:
    """For an integer matrix A and each rational vector b of `bs`, all
    from one Smith form U A V = D: (x, l), or None when A x = b has no
    rational solution.  x = V y with y_i = (U b)_i / d_i and the free y_i
    zero, and l, the lcm of the denominators of y, is the least l >= 1 for
    which A z = l b has an integer solution (l x is one)."""
    D, U, V = smith_normal_form(A)
    solved = []
    for b in bs:
        y = [Fraction(0)] * len(V)
        for i, c in enumerate(mat_vec(U, b)):
            d = D[i][i] if i < len(V) else 0
            if d:
                y[i] = Fraction(c) / d
            elif c:
                solved.append(None)
                break
        else:
            solved.append((mat_vec(V, y), lcm(*(t.denominator for t in y))))
    return solved


# ---------------------------------------------------------------------------
# halfspace systems; Fourier-Motzkin enumeration of lattice points
# ---------------------------------------------------------------------------

@record
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

    def contains(self, x: Sequence) -> bool:
        return all(dot(n, x) + o >= 0 for n, o in zip(self.normals, self.offsets))

    def with_extra(self, normals, offsets) -> "HalfspaceSystem":
        return HalfspaceSystem(tuple(self.normals) + tuple(normals),
                               tuple(self.offsets) + tuple(offsets))


def _normalize_row(row):
    """The row (coeffs, offset) as a primitive integer row, scaled by a
    positive rational (`scale_to_integer` on the joined row); a zero row
    stays as it is."""
    coeffs, off = row
    if off == 0 and is_zero(coeffs):
        return (tuple(coeffs), off)
    *ints, off = scale_to_integer(tuple(coeffs) + (off,))
    return (tuple(ints), off)


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
    """Integer interval for x_var given x_0..x_{var-1} in `partial`, by floor
    division.  Returns (lo, hi) with None meaning unbounded, or 'empty'."""
    lo, hi = None, None
    for coeffs, off in rows:
        c = coeffs[var]
        if c == 0:
            continue
        val = off + sum(coeffs[i] * partial[i] for i in range(var))
        if c > 0:
            bound = -(val // c)  # c x + val >= 0: x >= ceil(-val / c)
            if lo is None or bound > lo:
                lo = bound
        else:
            bound = val // -c  # x <= floor(val / -c)
            if hi is None or bound < hi:
                hi = bound
    if lo is not None and hi is not None and lo > hi:
        return "empty"
    return (lo, hi)


def lp_feasible(H: HalfspaceSystem) -> Optional[Vector]:
    """Exact rational point satisfying all constraints, or None: one
    phase-1 simplex (`feasible_point`)."""
    return feasible_point([(n, -o) for n, o in zip(H.normals, H.offsets)],
                          (), H.dim)


def recession_cone_trivial(H: HalfspaceSystem) -> bool:
    """True iff the recession cone {x : <n,x> >= 0 for all normals} is {0}.

    One LP, by Stiemke's lemma: for the matrix N of normals, either some x
    has Nx >= 0 and Nx != 0, or some y > 0 has sum y_i n_i = 0.  So the
    cone is {0} iff N has rank dim (no x != 0 has Nx = 0) and y = 1 + z
    works for some z >= 0, that is sum z_i n_i = -sum n_i.  Without
    normals (dim 0) the cone is the point.
    """
    dim = H.dim
    if dim == 0:
        return True
    if rank(H.normals) < dim:
        return False
    target = tuple(-sum(col) for col in zip(*H.normals))
    return solve_nonneg(H.normals, target) is not None


def lattice_points(H: HalfspaceSystem,
                   box: Optional[Sequence[tuple]] = None) -> list:
    """All integer points of the polyhedron, sorted, by recursive
    coordinate-interval enumeration over a Fourier-Motzkin tower of integer
    rows.  Without a `box` [(lo, hi), ...] of ints the polyhedron must be
    bounded or empty (checked by `recession_cone_trivial`, then by
    `lp_feasible`); with one, only the points in the box, whose length is
    the dimension.  Each level's interval applies every row of the tower
    that involves its variable, so every point listed satisfies H.
    """
    dim = H.dim if box is None else len(box)
    if dim == 0:
        return [()]  # the one point of Z^0
    if box is not None:
        H = H.with_extra([r for u in identity_matrix(dim) for r in (u, vscale(-1, u))],
                         [b for lo, hi in box for b in (-lo, hi)])
    elif not recession_cone_trivial(H):
        if lp_feasible(H) is None:
            return []
        raise PreconditionError("polyhedron is unbounded; pass a box")
    tower = _fm_tower(zip(H.normals, H.offsets), dim)
    if any(off < 0 for _, off in tower[0]):
        return []

    out = []

    def rec(var, partial):
        iv = _interval(tower[var + 1], var, partial)
        if iv == "empty":
            return
        lo, hi = iv
        if lo is None or hi is None:
            raise PreconditionError("unbounded direction during enumeration")
        if var == dim - 1:
            out.extend(tuple(partial) + (x,) for x in range(lo, hi + 1))
            return
        for x in range(lo, hi + 1):
            rec(var + 1, partial + [x])

    rec(0, [])
    return sorted(out)


# ---------------------------------------------------------------------------
# phase-1 simplex by integer pivoting
# ---------------------------------------------------------------------------

def _phase1(A, b, n: int):
    """A point x >= 0 with A x = b, or None when there is none, by Bland's
    rule simplex on the m rows of A, each of length n.  The point comes as
    (z, D): x = z / D, with z a tuple of n nonnegative ints, the basic
    solution's numerators, and D > 0 the tableau's common denominator, its
    last pivot (1 when none was made).  No `Fraction` is built.  n is
    given so that m = 0 has its witness: n zeros over D = 1.

    Integer pivoting (Edmonds) on [A | I | b], I the artificial columns and
    each row of [A | b] scaled to integers: the tableau holds integers over
    one common denominator D > 0, starting at 1, and pivoting on
    p = T[r][s] turns every other row, and the cost row, into
    (x*p - f*y) // D, then sets D = p.  The division is exact because
    every entry is a minor of the initial tableau, and p > 0 (the ratio
    test picks it), so every sign test and ratio comparison is that of the
    rational tableau.  So a column that starts as c times another stays c
    times it: a column of A with at most one nonzero entry, v in row k, is
    read as v times I's column k, and one equal to an earlier kept column,
    or to minus it, as that one; only I's columns and the other columns of
    A are kept.  A basic kept column is D / c times the unit vector of its
    row, c the multiplier of the basic column, so only the nonbasic ones
    and b are stored (Tucker's condensed form).  A pivot gives the entering
    column's place to the leaving one, which comes back as D / c in the
    pivot row and -f / c in every other row, f the entering column's entry
    there.

    The cost row starts as minus the sum of the rows, artificial columns
    included, so it stays a combination of the constraint rows, and a basic
    column has cost 0, except an artificial column basic from the start,
    whose cost is -D.  Bland's rule pivots it in place once no earlier
    column has negative cost, or first a positive multiple c of it, which
    takes its place: the pivot row stays, and every other row, and the cost
    row plus the pivot row, are multiplied by c.  When it leaves, its cost
    is -p - f for the entering cost f, not -f.  When no cost is negative
    every basic column has cost 0, so the right-hand side of the cost row
    is 0, and the system is infeasible exactly when an artificial variable
    is then basic at a positive level.
    """
    m = len(A)
    if m == 0:
        return (0,) * n, 1
    rows = []
    for i in range(m):
        row = _integer_row(list(A[i]) + [b[i]])
        rows.append([-x for x in row] if row[-1] < 0 else row)
    # column j of [A | I] is c times kept column q for (q, c) = src[j]; the
    # kept columns are I's, then the kept columns of A
    kept, src, cols = {}, [], []
    for col in itertools.islice(zip(*rows), n):
        hit = kept.get(col)
        if hit is None:
            if col.count(0) >= m - 1:
                v = sum(col)
                hit = (col.index(v), v) if v else (0, 0)
            else:
                hit = kept[col] = (m + len(cols), 1)
                kept[tuple(map(neg, col))] = (hit[0], -1)
                cols.append(col)
        src.append(hit)
    src += [(i, 1) for i in range(m)]
    # T[i][t] is row i of the nonbasic kept column at place t (place[q] = t,
    # -1 for a basic one), and T[i][-1] its right-hand side
    cols.append([row[n] for row in rows])
    T = [list(r) for r in zip(*cols)]
    place = [-1] * m + list(range(len(cols) - 1))
    cost = [-sum(col) for col in cols]
    basis = list(range(n, n + m))
    fresh = set(range(m))  # the rows whose artificial is basic from the start
    D = 1
    while True:
        for enter, (q, c) in enumerate(src):
            t = place[q]
            if (cost[t] * c < 0) if t >= 0 else (c > 0 and q in fresh):
                break
        else:
            break
        if t < 0:
            # the entering column is c D times the unit vector of row q, with
            # cost -c D: it takes the place of q's artificial, or is it
            if c != 1:
                T = [row if i == q else [x * c for x in row]
                     for i, row in enumerate(T)]
            cost = [(x + y) * c for x, y in zip(cost, T[q])]
            fresh.discard(q)
            basis[q] = enter
            D *= c
            continue
        # Bland's ratio test on the entering column: least (rhs / entry,
        # basis[i], i) over positive entries, ratios compared by
        # cross-multiplication
        col = [row[t] * c for row in T]
        piv = None
        for i, a in enumerate(col):
            if a > 0:
                rhs = T[i][-1]
                if piv is None or rhs * best_a < best_t * a or \
                        (rhs * best_a == best_t * a and basis[i] < basis[piv]):
                    piv, best_a, best_t = i, a, rhs
        if piv is None:
            raise InvariantBreach("phase 1 unbounded: no positive entry in the entering column")
        prow, p = T[piv], col[piv]
        out, c_out = src[basis[piv]]
        for i, f in enumerate(col):
            if i != piv:
                if f:
                    row = [(x * p - f * y) // D for x, y in zip(T[i], prow)]
                    row[t] = -f // c_out
                    T[i] = row
                elif p != D:
                    T[i] = [x * p // D for x in T[i]]
        f = cost[t] * c
        cost = [(x * p - f * y) // D for x, y in zip(cost, prow)]
        if piv in fresh:
            fresh.discard(piv)
            cost[t] = -p - f
        else:
            cost[t] = -f // c_out
        prow[t] = D // c_out
        place[q], place[out] = -1, t
        basis[piv] = enter
        D = p
    if cost[-1] != 0:
        raise InvariantBreach("phase 1 ended with a nonzero cost right-hand side")
    z = [0] * n
    for i, bv in enumerate(basis):
        if bv < n:
            z[bv] = T[i][-1]
        elif T[i][-1] != 0:
            return None  # an artificial variable stays positive: infeasible
    return tuple(z), D


def solve_nonneg(columns: Sequence[Sequence], target: Sequence) -> Optional[Vector]:
    """Coefficients c >= 0 with sum c_j columns[j] = target, or None.  The
    witness z / D of `_phase1` is checked exactly before it is returned, on
    its integers: len(columns) entries, z >= 0, D > 0 and A z = D target.
    A column whose length is not the target's is bad input."""
    if any(len(col) != len(target) for col in columns):
        raise InputError("solve_nonneg: every column needs the target's length")
    if not columns:
        return () if is_zero(target) else None
    m = len(columns[0])
    A = [[columns[j][i] for j in range(len(columns))] for i in range(m)]
    sol = _phase1(A, list(target), len(columns))
    if sol is None:
        return None
    z, D = sol
    if len(z) != len(columns) or D <= 0 or any(x < 0 for x in z) \
            or mat_vec(A, z) != tuple(t * D for t in target):
        raise InvariantBreach("solve_nonneg witness fails its check")
    return tuple(Fraction(x, D) for x in z)


def feasible_point(ineqs: Sequence[tuple], eqs: Sequence[tuple] = (),
                   dim: Optional[int] = None) -> Optional[Vector]:
    """Find x with <a,x> >= r for (a,r) in ineqs and <a,x> = r for (a,r) in
    eqs.  Variables are free: the system handed to `_phase1` writes
    x = u - w with u, w >= 0 and one slack s >= 0 per inequality,
    <a,u> - <a,w> - s = r.  `_phase1` stores none of the w and slack
    columns, which are multiples of the u and artificial ones.  The point
    x / D, read off the witness z / D of `_phase1`, is checked against
    every constraint before it is returned, on its integers: D > 0,
    <a,x> >= r D and <a,x> = r D."""
    rows = list(ineqs) + list(eqs)
    if dim is None:
        dim = len(rows[0][0]) if rows else 0
    nslack = len(ineqs)
    A, b = [], []
    for k, (a, r) in enumerate(ineqs):
        A.append(list(a) + [-x for x in a] + [-1 if j == k else 0 for j in range(nslack)])
        b.append(r)
    for a, r in eqs:
        A.append(list(a) + [-x for x in a] + [0] * nslack)
        b.append(r)
    sol = _phase1(A, b, 2 * dim + nslack)
    if sol is None:
        return None
    z, D = sol
    if len(z) != 2 * dim + nslack or D <= 0:
        raise InvariantBreach("feasible_point witness has the wrong shape")
    x = tuple(z[i] - z[dim + i] for i in range(dim))
    if any(dot(a, x) < r * D for a, r in ineqs) \
            or any(dot(a, x) != r * D for a, r in eqs):
        raise InvariantBreach("feasible_point witness violates a constraint")
    return tuple(Fraction(v, D) for v in x)


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
    """Does the cone of the generators contain a line?  Exactly when some
    c >= 0 with sum c = 1 has sum c_j g_j = 0, which is one LP."""
    if not generators:
        return False
    lifted = [tuple(g) + (1,) for g in generators]
    return solve_nonneg(lifted, (0,) * len(generators[0]) + (1,)) is not None


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
        if is_extreme(p, [q for q in rep_vectors if q != p]):
            extreme.update(reps[p])
    return sorted(extreme)


def is_extreme(p, others) -> bool:
    """Does p span an extreme ray of the pointed cone spanned by p and
    `others`, none of them a positive multiple of p?  Exactly when p is no
    nonnegative combination of the others: one LP."""
    return solve_nonneg(others, p) is None


def extreme_rays_of_halfspaces(ineqs: Sequence[Sequence], eqs: Sequence[Sequence],
                               dim: int) -> tuple:
    """(rays, lineality) of the cone {x : <a,x> >= 0, <e,x> = 0}.

    Rays are primitive integer vectors, sorted; lineality is a basis of the
    largest linear subspace inside the cone, as primitive integer vectors.
    Subset-enumeration double description: each extreme ray is cut out by
    dim(span)-1 independent active constraints.  The work is on integers:
    the span basis is the integer `nullspace` of the equations, the rows
    are scaled to primitive integer vectors (which keeps every ray) and the
    kernel of each row subset is its vector of signed maximal minors.
    With no equations the span is all of Q^dim in its own coordinates, so
    the rows are taken as given and each ray is its primitive kernel, with
    no change of basis.
    """
    if eqs:
        span = nullspace(list(eqs), dim)
        if not span:
            return [], []
        s = len(span)
        rows = [tuple(dot(a, b) for b in span) for a in ineqs]

        def ambient(y):
            return tuple(sum(c * b[i] for c, b in zip(y, span)) for i in range(dim))
    else:
        if not dim:
            return [], []
        s, ambient = dim, tuple
        rows = [tuple(a) for a in ineqs]
        if any(len(r) != dim for r in rows):
            raise InputError(f"inequality rows do not lie in Q^{dim}")
    rows = [r for r in rows if not is_zero(r)]
    lin = [] if rank(rows) == s else nullspace(rows, s)
    if lin:
        amb_lin = [primitive(ambient(y)) for y in lin]
        # split off the pointed part: C = lineality + (C intersect lineality-perp)
        sub_rays, sub_lin = extreme_rays_of_halfspaces(ineqs, list(eqs) + amb_lin, dim)
        if sub_lin:
            raise InvariantBreach("pointed part of the cone has a lineality space")
        return sub_rays, amb_lin
    rows = list(dict.fromkeys(map(scale_to_integer, rows)))
    rays = set()
    for subset in itertools.combinations(rows, s - 1):
        ker = _minor_kernel(subset, s)
        if is_zero(ker):
            continue  # dependent rows
        for cand in (ker, tuple(-k for k in ker)):
            if all(sum(map(mul, r, cand)) >= 0 for r in rows):
                rays.add(primitive(ambient(cand)))
                break
    return sorted(rays), []
