"""Test oracles for the feasibility LPs and the rank of `exactlin`.

`_phase1` is the Bland-rule phase-1 simplex over `Fraction`s, as `exactlin`
ran it before it moved to integer pivoting, and `solve_nonneg` the entry
point built on it.  `_integer_phase1` is the integer pivoting `exactlin`
ran before it stored only the tableau columns that are no multiple of
another and are not basic, on every column, and `integer_solve_nonneg`
and `feasible_point` the entry points built on it, the latter writing
x = u - w and one slack per inequality.  `lp_feasible` and
`recession_cone_trivial` are the Fourier-Motzkin versions `exactlin` used
before the simplex answered every feasibility and boundedness question:
a witness by elimination and back-substitution, and boundedness by
2 * dim probes, one per signed unit vector.  `rank`, `nullspace` and
`solve` share one elimination of their own, on integer-scaled rows
(`_echelon`), with `Fraction`s only in the back-substitution.  `rank`
counts its pivots, `nullspace` gives the rational kernel basis of the
reduced row echelon form, one vector per free column, and `solve` one
solution of a linear system with free variables 0, for the oracles that
solved linear systems with `exactlin.solve_linear`.  (They read the same
answers off a `Fraction` reduced row echelon form before: its pivot
columns and its solutions with given free values are the echelon form's.)
Nothing here calls into `exactlin`, so a test that compares the two shares
no arithmetic with the code it checks.
"""

import itertools
from fractions import Fraction
from math import gcd, lcm


def _phase1(A, b):
    """Find z >= 0 with A z = b (exact), or None.  Bland's rule simplex."""
    m = len(A)
    n = len(A[0]) if m else 0
    if m == 0:
        return tuple()
    T = []
    for i in range(m):
        row = [Fraction(x) for x in A[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        T.append(row + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [rhs])
    ncols = n + m
    basis = list(range(n, n + m))
    cost = [Fraction(0)] * (ncols + 1)
    for i in range(m):
        cost = [c - t for c, t in zip(cost, T[i])]
    while True:
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            break
        ratios = [(T[i][ncols] / T[i][enter], basis[i], i)
                  for i in range(m) if T[i][enter] > 0]
        if not ratios:
            return None  # unbounded phase-1: cannot happen, guard anyway
        _, _, piv = min(ratios)
        pv = T[piv][enter]
        T[piv] = [x / pv for x in T[piv]]
        for i in range(m):
            if i != piv and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [x - f * y for x, y in zip(T[i], T[piv])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, T[piv])]
        basis[piv] = enter
    if -cost[ncols] != 0:
        return None
    z = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            z[bv] = T[i][ncols]
        elif T[i][ncols] != 0:
            return None  # artificial stuck at positive level
    return tuple(z)


def solve_nonneg(columns, target):
    """Coefficients c >= 0 with sum c_j columns[j] = target, or None."""
    if not columns:
        return () if all(a == 0 for a in target) else None
    m = len(columns[0])
    A = [[columns[j][i] for j in range(len(columns))] for i in range(m)]
    return _phase1(A, list(target))


def _integer_phase1(A, b, n):
    """`exactlin._phase1` as it was before it stored only the columns that
    are no multiple of another: Edmonds' integer pivoting with Bland's rule
    on the whole tableau [A | I | b], each row of [A | b] times the lcm of
    its denominators.  (z, D) with x = z / D, or None."""
    m = len(A)
    if m == 0:
        return (0,) * n, 1
    T = []
    for i in range(m):
        row = list(A[i]) + [b[i]]
        den = lcm(*(e.denominator for e in row))
        row = [e.numerator * (den // e.denominator) for e in row]
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
        prow = T[piv]
        p = prow[enter]
        for i in range(m):
            if i != piv:
                f = T[i][enter]
                T[i] = [(x * p - f * y) // D for x, y in zip(T[i], prow)]
        f = cost[enter]
        cost = [(x * p - f * y) // D for x, y in zip(cost, prow)]
        basis[piv] = enter
        D = p
    z = [0] * n
    for i, bv in enumerate(basis):
        if bv < n:
            z[bv] = T[i][ncols]
        elif T[i][ncols] != 0:
            return None
    return tuple(z), D


def integer_solve_nonneg(columns, target):
    """Coefficients c >= 0 with sum c_j columns[j] = target, or None:
    `_integer_phase1` on the whole tableau of the columns."""
    if not columns:
        return () if all(a == 0 for a in target) else None
    A = [list(row) for row in zip(*columns)]
    sol = _integer_phase1(A, list(target), len(columns))
    if sol is None:
        return None
    z, D = sol
    return tuple(Fraction(x, D) for x in z)


def feasible_point(ineqs, eqs, dim):
    """x with <a,x> >= r for (a,r) in ineqs and <a,x> = r for (a,r) in eqs,
    or None: `_integer_phase1` on the whole tableau [u | -u | slack] of
    x = u - w, one slack per inequality."""
    nslack = len(ineqs)
    A = [list(a) + [-x for x in a] + [-int(j == k) for j in range(nslack)]
         for k, (a, _) in enumerate(ineqs)]
    A += [list(a) + [-x for x in a] + [0] * nslack for a, _ in eqs]
    sol = _integer_phase1(A, [r for _, r in list(ineqs) + list(eqs)],
                          2 * dim + nslack)
    if sol is None:
        return None
    z, D = sol
    return tuple(Fraction(z[i] - z[dim + i], D) for i in range(dim))


def _normalize_row(row):
    coeffs, off = row
    entries = list(coeffs) + [off]
    if all(e == 0 for e in entries):
        return (tuple(coeffs), off)
    ints = _integer_row(entries)
    return (tuple(ints[:-1]), ints[-1])


def _fm_tower(rows, dim):
    """tower[k]: the rows <coeffs, x> + offset >= 0 with x_k..x_{dim-1}
    eliminated, so they constrain x_0..x_{k-1} only."""
    tower = [None] * (dim + 1)
    cur = tower[dim] = sorted(set(_normalize_row(r) for r in rows))
    for var in range(dim - 1, -1, -1):
        pos = [r for r in cur if r[0][var] > 0]
        neg = [r for r in cur if r[0][var] < 0]
        out = set(_normalize_row(r) for r in cur if r[0][var] == 0)
        for (cp, op_), (cn, on_) in itertools.product(pos, neg):
            a, b = cp[var], -cn[var]
            out.add(_normalize_row((tuple(b * p + a * q for p, q in zip(cp, cn)),
                                    b * op_ + a * on_)))
        cur = tower[var] = sorted(out)
    return tower


def _interval(rows, var, partial):
    """(lo, hi) for x_var given x_0..x_{var-1}, None for no bound, or None
    for the whole pair when the interval is empty."""
    lo, hi = None, None
    for coeffs, off in rows:
        c = coeffs[var]
        if c == 0:
            continue
        bound = Fraction(-(off + sum(coeffs[i] * partial[i] for i in range(var))), c)
        if c > 0 and (lo is None or bound > lo):
            lo = bound
        if c < 0 and (hi is None or bound < hi):
            hi = bound
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def lp_feasible(normals, offsets):
    """x with <n, x> + o >= 0 for every row, or None: Fourier-Motzkin
    elimination, then back-substitution taking 0 when admissible, else the
    finite bound or the interval's midpoint."""
    dim = len(normals[0]) if normals else 0
    rows = [(tuple(map(Fraction, n)), Fraction(o)) for n, o in zip(normals, offsets)]
    tower = _fm_tower(rows, dim)
    if any(off < 0 for _, off in tower[0]):
        return None
    partial = []
    for var in range(dim):
        iv = _interval(tower[var + 1], var, partial)
        if iv is None:
            return None
        lo, hi = iv
        if (lo is None or lo <= 0) and (hi is None or hi >= 0):
            x = Fraction(0)
        elif lo is None or hi is None:
            x = hi if lo is None else lo
        else:
            x = (lo + hi) / 2
        partial.append(x)
    if any(sum(a * b for a, b in zip(n, partial)) + o < 0 for n, o in rows):
        raise AssertionError("Fourier-Motzkin witness violates a constraint")
    return tuple(partial)


def recession_cone_trivial(normals):
    """Is {x : <n, x> >= 0 for every normal} = {0}?  It is not exactly when
    one probe, the cone cut by x_i = +1 or x_i = -1, is feasible."""
    dim = len(normals[0]) if normals else 0
    for i, sign in itertools.product(range(dim), (1, -1)):
        unit = tuple(sign if j == i else 0 for j in range(dim))
        probe = list(normals) + [unit, tuple(-a for a in unit)]
        if lp_feasible(probe, [0] * len(normals) + [-1, 1]) is not None:
            return False
    return True


def _echelon(A, ncols):
    """(rows, pivot columns) of a row echelon form of A over the integers:
    each row is scaled to coprime integers, each pivot row clears the rows
    below it by cross-multiplication, and each new row is divided by the
    gcd of its entries.  Rows are used top down and columns left to right,
    so the pivot columns are those of the reduced row echelon form: the
    first basis of the column space."""
    rows = [_integer_row(r) for r in A]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        p = rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = _integer_row([p[c] * x - f * y
                                        for x, y in zip(rows[i], p)])
        pivots.append(c)
    return rows, pivots


def _integer_row(row):
    """`row` (integers or `Fraction`s) scaled to coprime integers."""
    den = lcm(*(e.denominator for e in row))
    ints = [e.numerator * (den // e.denominator) for e in row]
    g = gcd(*ints)
    return ints if g in (0, 1) else [e // g for e in ints]


def _back_substitute(rows, pivots, x, rhs=None):
    """Fill the pivot entries of x (its other entries given) so that every
    echelon row holds: row . x = row[rhs], or 0 when `rhs` is None."""
    for i in reversed(range(len(pivots))):
        row, c = rows[i], pivots[i]
        rest = sum(row[k] * x[k] for k in range(c + 1, len(x)) if row[k])
        x[c] = Fraction((0 if rhs is None else row[rhs]) - rest) / row[c]
    return tuple(x)


def rank(A):
    """The number of pivots of a row echelon form of A."""
    return len(_echelon(A, len(A[0]) if A else 0)[1])


def solve(A, b):
    """One solution of A x = b, free variables 0, or None when the system
    is inconsistent: the right-hand side is a pivot column of (A | b)."""
    if not A:
        return ()
    n = len(A[0])
    rows, pivots = _echelon([list(r) + [bi] for r, bi in zip(A, b)], n + 1)
    if pivots and pivots[-1] == n:
        return None
    return _back_substitute(rows, pivots, [Fraction(0)] * n, rhs=n)


def nullspace(A, n=None):
    """Rational basis of {x : A x = 0}, one vector per free column f, in
    increasing order: 1 at f, 0 at the other free columns, the vector of
    the reduced row echelon form.  `n` gives the dimension when A is
    empty."""
    n = len(A[0]) if A else n or 0
    rows, pivots = _echelon(A, n)
    basis = []
    for f in range(n):
        if f not in pivots:
            x = [Fraction(0)] * n
            x[f] = Fraction(1)
            basis.append(_back_substitute(rows, pivots, x))
    return basis
