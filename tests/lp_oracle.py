"""`Fraction` test oracle for the integer-pivoting simplex of `exactlin`.

`_phase1` is the Bland-rule phase-1 simplex over `Fraction`s, as `exactlin`
ran it before it moved to integer pivoting, and `solve_nonneg` the entry
point built on it.  Nothing here calls into `exactlin`, so a test that
compares the two shares no arithmetic with the code it checks.
"""

from fractions import Fraction


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
