import ast
import inspect
import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import cone_oracle
import lattice_oracle
import lp_oracle
from conftest import affine_instances, clear_package_caches
from test_acceptance import _check_flip_steps
from toricmmp import corpus, mmp
from toricmmp import curves as cv
from toricmmp import exactlin as xl
from toricmmp import fan as fn
from toricmmp import sections as sc
from toricmmp.divisor import InvariantDivisor
from toricmmp.errors import InputError, InvariantBreach, PreconditionError


def test_primitive():
    assert xl.primitive((2, 4)) == (1, 2)
    assert xl.primitive((-6, 9)) == (-2, 3)
    assert xl.primitive((0, 5, 0)) == (0, 1, 0)
    with pytest.raises(InputError):
        xl.primitive((0, 0))


def test_integer_kernel_quadric():
    A = [[0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 1, 1]]
    assert lattice_oracle.integer_kernel(A) == [(1, -1, -1, 1)]
    assert xl.primitive_kernel(A, 4) == (-1, 1, 1, -1)


def test_integer_kernel_is_kernel_and_primitive():
    A = [[2, 4, 6], [1, 2, 3]]
    for k in lattice_oracle.integer_kernel(A):
        assert all(xl.dot(row, k) == 0 for row in A)
        assert xl.primitive(k) == k or xl.primitive(tuple(-c for c in k)) == k
    # rank 1 with two rows: the kernel is a plane, not a line
    with pytest.raises(InvariantBreach):
        xl.primitive_kernel(A, 3)
    with pytest.raises(InvariantBreach):
        xl.primitive_kernel([(1, 2, 3)], 2)  # a row of the wrong length
    with pytest.raises(InvariantBreach):
        xl.primitive_kernel(A[:1], 3)  # too few rows


small_ints = st.integers(min_value=-6, max_value=6)


@given(st.lists(st.lists(small_ints, min_size=3, max_size=3),
                min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_smith_form_properties(rows):
    A = [tuple(r) for r in rows]
    D, U, V = xl.smith_normal_form(A)
    # U A V = D
    prod = [[sum(U[i][k] * A[k][l] for k in range(len(A))) for l in range(3)]
            for i in range(len(A))]
    prod = [[sum(prod[i][k] * V[k][j] for k in range(3)) for j in range(3)]
            for i in range(len(A))]
    assert [list(r) for r in D] == prod
    diag = [D[i][i] for i in range(min(len(A), 3))]
    for a, b in zip(diag, diag[1:]):
        if a and b:
            assert b % a == 0
    for i in range(len(A)):
        for j in range(3):
            if i != j:
                assert D[i][j] == 0


@given(st.lists(st.lists(small_ints, min_size=2, max_size=2),
                min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_integer_kernel_property(rows):
    A = [tuple(r) for r in rows]
    K = lattice_oracle.integer_kernel(A)
    for k in K:
        assert all(xl.dot(row, k) == 0 for row in A)
    if len(A) == 1 and len(K) == 1:
        assert xl.primitive_kernel(A, 2) in (K[0], tuple(-c for c in K[0]))


def test_solve_nonneg():
    sol = xl.solve_nonneg([(1, 0), (0, 1), (1, 1)], (3, 2))
    assert sol is not None
    combo = [sum(c * col[i] for c, col in zip(sol, [(1, 0), (0, 1), (1, 1)]))
             for i in range(2)]
    assert combo == [3, 2]
    assert all(c >= 0 for c in sol)
    assert xl.solve_nonneg([(1, 0), (0, 1)], (-1, 0)) is None


def test_solve_nonneg_rejects_columns_of_another_length():
    # a shape mismatch is bad input (exit 1), not a failed witness check
    for columns, target in (([(), ()], (1,)),
                            ([(1, 0), (0, 1)], (1, 1, 1)),
                            ([(1, 0), (0,)], (1, 1))):
        with pytest.raises(InputError):
            xl.solve_nonneg(columns, target)


@pytest.mark.parametrize("routine, args, message", [
    pytest.param(xl.HalfspaceSystem, (((1, 0),), (0, 0)),
                 "normals/offsets length mismatch", id="offsets"),
    pytest.param(xl.HalfspaceSystem, (((0, 0),), (0,)),
                 "halfspace normal must be nonzero", id="zero-normal"),
    pytest.param(xl.HalfspaceSystem, (((1, 0), (1, 0, 0)), (0, 0)),
                 "inconsistent halfspace dimensions", id="normal-lengths"),
    pytest.param(xl.extreme_rays, ([(1, 0), (0, 0)],), "zero generator",
                 id="zero-generator"),
    pytest.param(xl.extreme_rays_of_halfspaces, ([(1, 0), (1, 0, 0)], [], 2),
                 r"inequality rows do not lie in Q\^2", id="row-lengths"),
])
def test_polyhedral_routines_refuse_bad_input(routine, args, message):
    with pytest.raises(InputError, match=message):
        routine(*args)


# Each routine with a float or a bool v in a matrix, a right-hand side or an
# offset; the rule for an exact number is `exactlin`'s (its module docstring)
INEXACT_PLACEMENTS = {
    "rank": lambda v: xl.rank([[v, 1], [0, 1]]),
    "nullspace": lambda v: xl.nullspace([[1, v]]),
    "solve_linear": lambda v: xl.solve_linear([[1, 0], [0, 1]], [v, 1]),
    "solve_nonneg": lambda v: xl.solve_nonneg([(1,), (2,)], (v,)),
    "feasible_point": lambda v: xl.feasible_point([((1, 0), v)]),
    "lp_feasible": lambda v: xl.lp_feasible(
        xl.HalfspaceSystem(((1, v), (-1, 0)), (0, 1))),
    "lattice_points": lambda v: xl.lattice_points(
        xl.HalfspaceSystem(((1,), (-1,)), (v, 1))),
    # entries that were read after arithmetic on them: a negated offset, a
    # row projected onto the span of the equations, a negated lower bound
    "lp_feasible-offset": lambda v: xl.lp_feasible(
        xl.HalfspaceSystem(((1,), (-1,)), (v, 1))),
    "extreme_rays_of_halfspaces-projected": lambda v:
        xl.extreme_rays_of_halfspaces(
            [(v, 0, 0), (0, 1, 0), (1, 1, 0)], [(0, 0, 1)], 3),
    "lattice_points-box": lambda v: xl.lattice_points(
        xl.HalfspaceSystem(((1,),), (0,)), box=[(v, 2)]),
    "extreme_rays": lambda v: xl.extreme_rays([(1, v), (0, 1)]),
    "extreme_rays_of_halfspaces": lambda v: xl.extreme_rays_of_halfspaces(
        [(1, v), (0, 1)], [], 2),
    "cone_contains_line": lambda v: xl.cone_contains_line([(v, 1), (0, 1)]),
    "scale_to_integer": lambda v: xl.scale_to_integer((v, 1)),
    "smith_solve": lambda v: xl.smith_solve([[1]], [[v]]),
    "scale": lambda v: InvariantDivisor((1, 2)).scale(v),
    "_integer_row": lambda v: xl._integer_row([v, 1]),
}


@pytest.mark.parametrize("value", [0.1, 0.5, True])
@pytest.mark.parametrize("routine", sorted(INEXACT_PLACEMENTS))
def test_routines_refuse_floats_and_bools(routine, value):
    # InputError naming the value: no AttributeError, no solve on a
    # float's binary expansion, no bool read as 1
    with pytest.raises(InputError, match=f"got {value!r}$"):
        INEXACT_PLACEMENTS[routine](value)


def test_dot_rejects_a_length_mismatch():
    assert xl.dot((1, 2, 3), (4, 5, 6)) == 32
    assert xl.dot((), ()) == 0
    assert xl.dot((Fraction(1, 2), 1), (3, Fraction(1, 3))) == Fraction(11, 6)
    for u, v in (((1, 2), (1,)), ((), (0,)), ((1,), (1, 0, 0))):
        with pytest.raises(InputError):
            xl.dot(u, v)


def _leibniz_det(M):
    """The determinant as the signed sum over permutations, the sign read
    off the inversion count."""
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j]
                           for i, j in itertools.combinations(range(n), 2))
        total += sign * math.prod(M[i][perm[i]] for i in range(n))
    return total


def test_integer_det_matches_leibniz():
    # closed-form cofactors up to 3 x 3 and Bareiss at 4 x 4 against the
    # permutation sum, on seeded matrices with many zeros (so zero leading
    # pivots and singular matrices occur) and on a few chosen ones
    rng = random.Random(25)
    cases = [[], [[0]], [[0, 1], [1, 0]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
             [[0, 1, 2, 3], [1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1]],
             [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
             [[0, 2, 1, 0], [0, 1, 3, 1], [0, 4, 1, 2], [0, 1, 1, 1]]]
    for n in range(5):
        for _ in range(400):
            cases.append([[rng.choice((0, 0, rng.randint(-5, 5)))
                           for _ in range(n)] for _ in range(n)])
    singular = 0
    for M in cases:
        want = _leibniz_det(M)
        assert xl.integer_det(M) == want, M
        assert xl.integer_det(tuple(map(tuple, M))) == want, M
        singular += want == 0
    assert 0 < singular < len(cases)


def test_lps_in_dimension_zero():
    # no rows: the witness still has one entry per column or variable
    assert xl.solve_nonneg([(), ()], ()) == (0, 0)
    assert xl.feasible_point([], dim=2) == (0, 0)
    assert all(isinstance(c, Fraction) for c in xl.feasible_point([], dim=2))
    assert xl._phase1([], [], 3) == ((0, 0, 0), 1)


def test_extreme_rays():
    assert xl.extreme_rays([(1, 0), (0, 1), (1, 1)]) == [0, 1]
    assert xl.extreme_rays([(1, 0), (2, 0), (0, 1)]) == [0, 1, 2]
    with pytest.raises(PreconditionError):
        xl.extreme_rays([(1, 0), (-1, 0)])


def test_lp_feasible_and_lattice_points():
    # square [0,1]^2
    H = xl.HalfspaceSystem(((1, 0), (0, 1), (-1, 0), (0, -1)),
                           (0, 0, 1, 1))
    w = xl.lp_feasible(H)
    assert w is not None and H.contains(w)
    assert len(xl.lattice_points(H)) == 4
    empty = xl.HalfspaceSystem(((1,), (-1,)), (-1, 0))  # x >= 1 and x <= 0
    assert xl.lp_feasible(empty) is None


def test_lattice_points_triangle():
    # x,y >= 0, x + y <= 2: six points
    H = xl.HalfspaceSystem(((1, 0), (0, 1), (-1, -1)), (0, 0, 2))
    assert len(xl.lattice_points(H)) == 6


def test_lattice_points_unbounded_guard():
    H = xl.HalfspaceSystem(((1, 0), (0, 1)), (0, 0))
    with pytest.raises(PreconditionError):
        xl.lattice_points(H)
    assert len(xl.lattice_points(H, box=[(0, 2), (0, 2)])) == 9
    # u_1 >= 1 and u_1 <= 0: empty, though the u_2-axis recedes
    H = xl.HalfspaceSystem(((1, 0), (-1, 0)), (-1, 0))
    assert not xl.recession_cone_trivial(H)
    assert xl.lattice_points(H) == []
    # no rows at all: the box gives the dimension
    assert xl.lattice_points(xl.HalfspaceSystem((), ()), box=[(0, 1), (0, 1)]) == \
        [(0, 0), (0, 1), (1, 0), (1, 1)]


def _rational(rng):
    return Fraction(rng.randint(-7, 7), rng.randint(1, 3))


def _enumeration_case(rng, k):
    """(H, box, scan) over 1-4 variables with `Fraction` offsets.  By k % 8
    it has a box (0-2), rows bounding every coordinate (3-4), bare rows
    that may leave it unbounded (5-6), or a contradiction in x_0 (7); every
    fifth system is flat, with an equality pair as
    `singularities._low_discrepancy_points` builds.  `scan` is a box of
    ints holding every lattice point, or None when none is known."""
    dim = rng.randint(1, 4)
    mode = (0, 0, 0, 1, 1, 2, 2, 3)[k % 8]
    normals, offsets = [], []
    for _ in range(rng.randint(1, 5 - dim // 2)):
        n = (0,) * dim
        while not any(n):
            n = tuple(rng.randint(-3, 3) for _ in range(dim))
        normals.append(n)
        offsets.append(Fraction(rng.randint(-3, 7), rng.randint(1, 3)))
    if k % 5 == 1:
        z = (0,) * dim
        while not any(z):
            z = tuple(rng.randint(-2, 2) for _ in range(dim))
        o = rng.choice((0, 0, 1, -1, Fraction(1, 2)))
        normals += [z, tuple(-c for c in z)]
        offsets += [o, -o]
    box = scan = None
    if mode == 0:
        box = scan = [(rng.randint(-3, 0), rng.randint(0, 3)) for _ in range(dim)]
    elif mode == 1:
        scan = []
        for i in range(dim):
            lo = _rational(rng) / 2
            hi = lo + abs(_rational(rng)) / 2
            unit = tuple(1 if j == i else 0 for j in range(dim))
            normals += [unit, tuple(-c for c in unit)]
            offsets += [-lo, hi]
            scan.append((math.ceil(lo), math.floor(hi)))
    elif mode == 3:
        unit = (1,) + (0,) * (dim - 1)
        normals += [unit, tuple(-c for c in unit)]
        offsets += [-1, Fraction(rng.randint(-3, 1), 2)]
        if rng.random() < 0.5:
            box = scan = [(-2, 2)] * dim
    return xl.HalfspaceSystem(tuple(normals), tuple(offsets)), box, scan


def _projection_box(H):
    """Box of ints around a bounded nonempty H: each coordinate's range is
    read off the `Fraction` tower of lp_oracle with that coordinate last
    to be eliminated."""
    rows = [(tuple(map(Fraction, n)), Fraction(o)) for n, o in zip(H.normals, H.offsets)]
    out = []
    for i in range(H.dim):
        order = [i] + [j for j in range(H.dim) if j != i]
        tower = lp_oracle._fm_tower([(tuple(n[j] for j in order), o) for n, o in rows],
                                    H.dim)
        lo, hi = lp_oracle._interval(tower[1], 0, [])
        out.append((math.ceil(lo), math.floor(hi)))
    return out


def _points_or_none(enumerate_points, H, box):
    try:
        return enumerate_points(H, box=box)
    except PreconditionError:
        return None


def test_lattice_points_match_fraction_oracle_and_box_scan():
    # the integer enumeration against the Fraction one of lattice_oracle and
    # against a scan of a box around the polyhedron
    rng = random.Random(20261019)
    mismatches, seen = [], {"nonempty": 0, "empty": 0, "unbounded": 0,
                            "empty, recedes": 0, "flat": 0}
    for k in range(1000):
        H, box, scan = _enumeration_case(rng, k)
        got = _points_or_none(xl.lattice_points, H, box)
        want = _points_or_none(lattice_oracle.lattice_points, H, box)
        if want is None:
            # the oracle raises on every unbounded polyhedron; the integer
            # path answers [] when it is empty
            empty = xl.lp_feasible(H) is None
            seen["empty, recedes" if empty else "unbounded"] += 1
            if got != ([] if empty else None):
                mismatches.append((k, H, box, got))
            continue
        if scan is None and want:
            scan = _projection_box(H)
        scanned = [p for p in itertools.product(*(range(lo, hi + 1) for lo, hi in scan))
                   if H.contains(p)] if scan else []
        if not got == want == scanned:
            mismatches.append((k, H, box, got))
        seen["nonempty" if got else "empty"] += 1
        seen["flat"] += k % 5 == 1 and bool(got)
    assert xl.lattice_points(xl.HalfspaceSystem((), ())) == [()]
    assert lattice_oracle.lattice_points(xl.HalfspaceSystem((), ())) == [()]
    assert mismatches == []
    assert min(seen.values()) >= 25, seen


def _random_system(rng, dim):
    """1-6 rows over dim <= 3 variables with entries in -3..3; about 30% of
    the normals have true fractions, and offsets are small rationals."""
    normals, offsets = [], []
    for _ in range(rng.randint(1, 6)):
        n = (0,) * dim
        while not any(n):
            n = tuple(rng.randint(-3, 3) for _ in range(dim))
        if rng.random() < 0.3:
            n = tuple(Fraction(a, rng.randint(1, 3)) for a in n)
        normals.append(n)
        offsets.append(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return xl.HalfspaceSystem(tuple(normals), tuple(offsets))


def test_feasibility_lps_match_fourier_motzkin_oracle():
    # the simplex verdicts against the Fourier-Motzkin ones of lp_oracle
    rng = random.Random(20240801)
    seen = {"feasible": 0, "infeasible": 0, "trivial": 0, "nontrivial": 0}
    mismatches = []
    for k in range(600):
        H = _random_system(rng, rng.randint(1, 3))
        feasible = xl.lp_feasible(H) is not None
        trivial = xl.recession_cone_trivial(H)
        if feasible != (lp_oracle.lp_feasible(H.normals, H.offsets) is not None) \
                or trivial != lp_oracle.recession_cone_trivial(H.normals):
            mismatches.append((k, H))
        seen["feasible" if feasible else "infeasible"] += 1
        seen["trivial" if trivial else "nontrivial"] += 1
    assert mismatches == []
    assert min(seen.values()) >= 60, seen


def test_recession_cone_trivial_one_lp():
    # Fourier-Motzkin probes ran past 10 s on this system; the one LP does not
    N = ((-1, 2, -3, 1), (-1, 3, 1, -2), (3, 1, 1, 1), (-1, 0, -3, 1),
         (3, 0, -1, 1), (-2, -1, -2, -2), (3, -2, -3, 1), (2, -1, 0, -3),
         (-3, 2, 3, -2), (-2, -3, 3, -3))
    assert xl.recession_cone_trivial(xl.HalfspaceSystem(N, (0,) * len(N)))
    # no normals: dimension 0, where the cone is the point
    assert xl.recession_cone_trivial(xl.HalfspaceSystem((), ()))


def test_extreme_rays_of_halfspaces():
    rays, lin = xl.extreme_rays_of_halfspaces([(1, 0), (0, 1)], [], 2)
    assert sorted(rays) == [(0, 1), (1, 0)] and not lin
    # halfplane: one lineality direction plus one genuine ray
    rays, lin = xl.extreme_rays_of_halfspaces([(1, 1)], [], 2)
    assert len(lin) == 1 and len(rays) == 1
    assert xl.dot((1, 1), rays[0]) > 0


def _random_rank_matrix(rng, k):
    """A seeded matrix: small ints, true Fractions or (k % 3 == 2) rows
    with many zeros plus rows that combine earlier ones, so that the rank
    falls short of both sides; empty and zero rows occur too."""
    m, n = rng.randint(0, 6), rng.randint(1, 6)
    if k % 3 == 0:
        return [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(m)]
    if k % 3 == 1:
        return [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 8))
                      for _ in range(n)) for _ in range(m)]
    rows = [tuple(rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n))
            for _ in range(max(m - 2, 0))]
    while rows and len(rows) < m:
        a, b = rng.choice(rows), rng.choice(rows)
        p, q = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)
        rows.append(tuple(p * x + q * y for x, y in zip(a, b)))
    rng.shuffle(rows)
    return rows


def test_rank_matches_fraction_oracle():
    # integer elimination against lp_oracle's own elimination
    rng = random.Random(20240801)
    mismatches, deficient = [], 0
    for k in range(10000):
        A = _random_rank_matrix(rng, k)
        got = xl.rank(A)
        if got != lp_oracle.rank(A):
            mismatches.append(A)
        deficient += bool(A) and got < min(len(A), len(A[0]))
    assert mismatches == []
    assert deficient >= 1200
    assert xl.rank([]) == 0 and xl.rank([(0, 0), (0, 0)]) == 0
    assert xl.rank([(Fraction(1, 2), Fraction(1, 3)), (3, 2)]) == 1


def test_nullspace_matches_fraction_oracle():
    # signed minors on the integer echelon rows against the reduced
    # echelon basis of lp_oracle: the same basis vectors, each scaled to a
    # primitive integer vector by a positive rational
    rng = random.Random(20261020)
    mismatches, vectors = [], 0
    for k in range(10000):
        A = _random_rank_matrix(rng, k)
        n = len(A[0]) if A else rng.randint(0, 4)
        got = xl.nullspace(A, n)
        want = [xl.scale_to_integer(v) for v in lp_oracle.nullspace(A, n)]
        if got != want or xl.rank(A) + len(got) != n:
            mismatches.append(A)
        vectors += len(got)
    assert mismatches == []
    assert vectors >= 10000
    assert xl.nullspace([]) == [] and xl.nullspace([], 2) == [(1, 0), (0, 1)]
    assert xl.nullspace([(0, 0)]) == [(1, 0), (0, 1)]
    assert xl.nullspace([(Fraction(1, 2), Fraction(-1, 3), 0)]) == [(2, 3, 0), (0, 0, 1)]


def _check_solve(A, b):
    """Is solve_linear(A, b) None exactly when lp_oracle.solve is, a
    solution otherwise, and the oracle's one when A's columns are
    independent?  (None when they are not.)"""
    got, want = xl.solve_linear(A, b), lp_oracle.solve(A, b)
    assert (got is None) == (want is None), (A, b)
    if got is None:
        return False
    assert xl.mat_vec(A, got) == tuple(b), (A, b)
    if A and lp_oracle.rank(A) == len(A[0]):
        assert got == want, (A, b)
        return True
    return None


def test_solve_linear_matches_fraction_oracle():
    # the oracles' own solve (lp_oracle.solve) against solve_linear: None
    # for both, or a solution of A x = b, the oracle's one where A's
    # columns are independent (free variables may differ otherwise)
    rng = random.Random(20261019)
    outcomes = Counter()
    for k in range(1000):
        A = _random_rank_matrix(rng, k)
        b = [rng.randint(-4, 4) for _ in A]
        outcomes[_check_solve(A, b)] += 1
    assert 100 <= outcomes[False] <= 900
    assert outcomes[True] == 91


def test_solve_linear_is_unique_on_independent_columns():
    # square and tall systems with independent columns: b = A x0 gives x0
    # back, and a random b is the oracle's solution or, mostly on a tall
    # system, inconsistent for both
    rng = random.Random(20261021)
    shapes, inconsistent = Counter(), 0
    for _ in range(300):
        n = rng.randint(1, 5)
        m = n + rng.choice((0, 0, 1, 2))
        A = ()
        while not A or lp_oracle.rank(A) < n:
            A = [tuple(rng.randint(-5, 5) if rng.random() < 0.7 else
                       Fraction(rng.randint(-7, 7), rng.randint(1, 5))
                       for _ in range(n)) for _ in range(m)]
        x0 = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n))
        b = xl.mat_vec(A, x0)
        assert _check_solve(A, b) and xl.solve_linear(A, b) == x0
        inconsistent += _check_solve(A, [rng.randint(-4, 4) for _ in A]) is False
        shapes["square" if m == n else "tall"] += 1
    assert min(shapes.values()) >= 100 and inconsistent >= 50


def test_rank_builds_no_fraction():
    # the echelon rows behind rank and nullspace are integer rows: no _rref
    # and no Fraction inside the elimination
    tree = ast.parse(inspect.getsource(xl._echelon))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not names & {"_rref", "Fraction", "nullspace", "solve_linear"}
    assert "_integer_row" in names


def test_trivial_kernels_skip_elimination(monkeypatch):
    # a full-dimensional cone has no span complement and full-rank rows no
    # lineality: neither calls nullspace, and the answers are unchanged
    calls = []
    orig = xl.nullspace
    monkeypatch.setattr(xl, "nullspace",
                        lambda A, n=None: calls.append(A) or orig(A, n))
    gens = ((1, 0, 0), (0, 1, 0), (1, 1, 3))
    fn.cone_span_perp.cache_clear()
    assert fn.cone_span_perp(gens) == ()
    assert xl.extreme_rays_of_halfspaces([(1, 0), (0, 1)], [], 2) == \
        ([(0, 1), (1, 0)], [])
    assert calls == []
    fn.cone_span_perp.cache_clear()
    assert len(fn.cone_span_perp(gens[:2])) == 1
    assert len(xl.extreme_rays_of_halfspaces([(1, 1)], [], 2)[1]) == 1
    assert calls[0] == gens[:2] and [(1, 1)] in calls


def test_smith_examples():
    D, U, V = xl.smith_normal_form([[2, 4], [6, 8]])
    assert (D[0][0], D[1][1]) == (2, 4)
    D, U, V = xl.smith_normal_form([[1, 0], [0, 1]])
    assert (D[0][0], D[1][1]) == (1, 1)


def test_quotient_projection():
    P = xl.quotient_projection([(1, 1)], 2)
    assert len(P) == 1 and xl.dot(P[0], (1, 1)) == 0


def test_smith_solve():
    # index-2 lattice situation
    assert xl.smith_solve([(1, 0), (1, 2)], [(-1, 0)]) == [
        ((-1, Fraction(1, 2)), 2)]
    assert xl.smith_solve([(1, 0), (0, 1)], [(3, 5)]) == [((3, 5), 1)]
    # a fractional right-hand side, and no rational solution
    assert xl.smith_solve([(1, 0), (0, 1)],
                          [(Fraction(1, 2), Fraction(1, 3))])[0][1] == 6
    assert xl.smith_solve([(1, 1), (2, 2)], [(1, 3)]) == [None]
    # one row: the free coordinate is zero in Smith coordinates, so the
    # solution of an index-1 system is integral
    [(x, ell)] = xl.smith_solve([(2, 1)], [(1,)])
    assert ell == 1 and xl.dot((2, 1), x) == 1
    assert all(c.denominator == 1 for c in x)
    # several right-hand sides from one Smith form: each answer is the one
    # its own call gives, in order, and no right-hand side gives []
    A = [(1, 0), (1, 2), (2, 2)]
    bs = [(-1, 0, -2), (0, 1, 1), (1, 0, 0), (3, 5, 8)]
    assert xl.smith_solve(A, bs) == [xl.smith_solve(A, [b])[0] for b in bs]
    assert xl.smith_solve(A, bs)[2] is None
    assert xl.smith_solve(A, []) == []


def test_feasible_point_strict():
    # x - y >= 1 and y >= 0
    sol = xl.feasible_point([((1, -1), Fraction(1)), ((0, 1), Fraction(0))])
    assert sol is not None
    assert sol[0] - sol[1] >= 1 and sol[1] >= 0
    # x >= 1 and -x >= 0 impossible
    assert xl.feasible_point([((1,), Fraction(1)), ((-1,), Fraction(0))]) is None


@pytest.fixture(scope="module")
def corpus_lps():
    """The arguments of every `feasible_point` call, (ineqs, eqs, dim), and
    of every `solve_nonneg` call, (columns, target), made in building the
    acceptance corpus on each of four seeds and in one pass of it, as the
    acceptance gate runs it, with the caches cleared before each pass, and
    in the Zariski decompositions of `affine_instances(77, 40)` and their
    `verify_ckm`; with the routines that called `solve_nonneg`."""
    calls = {"feasible_point": [], "solve_nonneg": [], "callers": Counter()}
    feasible, nonneg = xl.feasible_point, xl.solve_nonneg

    def record_feasible(ineqs, eqs=(), dim=None):
        calls["feasible_point"].append(
            (list(ineqs), list(eqs), len(ineqs[0][0]) if dim is None else dim))
        return feasible(ineqs, eqs, dim)

    def record_nonneg(columns, target):
        calls["solve_nonneg"].append(
            ([tuple(c) for c in columns], tuple(target)))
        calls["callers"][sys._getframe(1).f_code.co_name] += 1
        return nonneg(columns, target)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(xl, "feasible_point", record_feasible)
        mp.setattr(xl, "solve_nonneg", record_nonneg)
        for seed in (20240801, 0, 1, 2):
            instances = corpus.termination_instances(seed, 100)
            clear_package_caches()
            for m, D in instances:
                trace = mmp.run_mmp(m, D)
                if trace.outcome == "minimal":
                    cv.nefness(trace.final_divisor, trace.final_map)
                _check_flip_steps(m, D, trace)
        for m, D in affine_instances(77, 40):
            try:
                R = sc.zariski_decompose(m, D)
            except PreconditionError:
                continue  # not pseudo-effective
            sc.verify_ckm(R, D)
    return calls


def _entry(rng):
    """An entry in [-3, 3], a `Fraction` about a third of the time."""
    a = rng.randint(-3, 3)
    return Fraction(a, rng.randint(2, 3)) if rng.random() < 0.3 else a


def _random_lp(rng):
    """(ineqs, eqs, dim): 1-5 variables, 0-7 inequalities and 0-2
    equations, entries `_entry`."""
    dim = rng.randint(1, 5)

    def rows(count):
        return [(tuple(_entry(rng) for _ in range(dim)), _entry(rng))
                for _ in range(count)]

    return rows(rng.randint(0, 7)), rows(rng.randint(0, 2)), dim


def test_feasible_point_matches_the_whole_tableau(corpus_lps):
    # `_phase1` stores no column that is a multiple of another (the w of
    # x = u - w, the slacks), nor a basic column; the oracle pivots every
    # column of the whole [u | -u | slack] tableau by the same integer
    # rule, so the pivots and the point are the same
    systems = list(corpus_lps["feasible_point"])
    assert len(systems) >= 350
    rng = random.Random(33)
    systems += [_random_lp(rng) for _ in range(3000)]
    results = [xl.feasible_point(*s) for s in systems]
    mismatches = [s for s, got in zip(systems, results)
                  if got != lp_oracle.feasible_point(*s)]
    assert mismatches == []
    assert 500 <= results.count(None) <= len(results) - 1500


def _random_nonneg(rng):
    """(columns, target): 1-4 rows, 0-6 columns, entries `_entry`; a
    column is often a multiple of a unit vector or plus or minus an earlier
    column, and half the targets are nonnegative combinations of the
    columns."""
    m = rng.randint(1, 4)
    columns = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.random()
        if kind < 0.2 and columns:
            col = tuple(c * rng.choice((1, -1)) for c in rng.choice(columns))
        elif kind < 0.4:
            k, a = rng.randrange(m), _entry(rng)
            col = tuple(a if i == k else 0 for i in range(m))
        else:
            col = tuple(_entry(rng) for _ in range(m))
        columns.append(col)
    if rng.random() < 0.5:
        coeffs = [rng.randint(0, 2) for _ in columns]
        target = tuple(sum((c * col[i] for c, col in zip(coeffs, columns)), 0)
                       for i in range(m))
    else:
        target = tuple(_entry(rng) for _ in range(m))
    return columns, target


@pytest.mark.parametrize("columns,target,want", [
    # an artificial basic from the start has cost -D: pivoted in place, it
    # stays basic at level 1, so the system is infeasible
    ([(-2,), (0,), (-2,)], (1,), None),
    # every artificial stays basic, at a positive level and at level 0
    ([(-1, 0), (0, -2)], (1, 1), None),
    ([(-1, -1)], (0, 0), (0,)),
    # a positive multiple of a basic artificial takes its place: D = 2
    ([(2,), (1,)], (2,), (1, 0)),
])
def test_solve_nonneg_keeps_artificial_columns_basic(columns, target, want):
    assert xl.solve_nonneg(columns, target) == want
    assert lp_oracle.integer_solve_nonneg(columns, target) == want


def test_solve_nonneg_matches_the_whole_tableau(corpus_lps):
    # the same integer pivots on the whole tableau [A | I | b], every basic
    # column included: the same witness, over the same denominator
    systems = list(corpus_lps["solve_nonneg"])
    assert len(systems) >= 500
    assert corpus_lps["callers"].keys() == {
        "is_extreme", "recession_cone_trivial", "cone_contains_line",
        "verify_ckm"}
    rng = random.Random(35)
    systems += [_random_nonneg(rng) for _ in range(3000)]
    results = [xl.solve_nonneg(*s) for s in systems]
    mismatches = [s for s, got in zip(systems, results)
                  if got != lp_oracle.integer_solve_nonneg(*s)]
    assert mismatches == []
    assert 500 <= results.count(None) <= len(results) - 1500


@given(st.lists(st.tuples(small_ints, small_ints), min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_extreme_rays_generate(gens):
    gens = [g for g in gens if g != (0, 0)]
    if not gens or xl.cone_contains_line(gens):
        return
    ext = xl.extreme_rays(gens)
    cols = [gens[i] for i in ext]
    for g in gens:
        assert xl.solve_nonneg(cols, g) is not None


@st.composite
def generator_lists(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    return draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), max_size=6))


@given(generator_lists())
@example([])
@example([(0, 0)])
@example([(1, 0), (0, 1), (-1, -1)])  # the whole plane
@example([(1, 0, 0), (0, 1, 0), (-1, -1, 0)])  # a plane inside 3-space
@example([(1, 0), (-1, 0), (0, 1)])  # a halfplane
@example([(1, 1), (2, 2)])
@settings(max_examples=300, deadline=None)
def test_cone_contains_line_matches_circuit_indices(gens):
    assert xl.cone_contains_line(gens) == bool(xl.positive_circuit_indices(gens))


@st.composite
def halfspace_systems(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    row = st.tuples(*[coeff] * dim)
    ineqs = draw(st.lists(row, max_size=6))
    eqs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), max_size=2))
    return ineqs, eqs, dim


@given(halfspace_systems())
@example(([(1, 1)], [], 2))  # a halfplane: lineality plus one ray
@example(([(1, 0, 0), (0, 1, 0), (1, 1, 1)], [(1, -1, 0)], 3))
@example(([(Fraction(1, 2), 0), (0, 1), (-1, -1)], [], 2))  # the whole plane
@example(([(2, 0, 0), (1, 0, 0), (0, 0, 0), (0, 1, 0)], [], 3))
@example(([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)], [], 3))  # x0 = 0
# no equations, dims 0-4, with duplicate and zero rows: the rows are taken
# as given, with no identity span
@example(([], [], 0))
@example(([()], [], 0))
@example(([(0,), (2,), (1,), (2,)], [], 1))
@example(([(0, 0), (1, 2), (2, 4), (-1, 0), (1, 2)], [], 2))
@example(([(1, 0, 0), (0, 1, 0), (0, 0, 0), (0, 1, 0), (1, 1, 1), (2, 2, 2)], [], 3))
@example(([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
           (0, 0, 0, 0), (0, 0, 2, 0), (1, 1, 1, 1)], [], 4))
@example(([(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 1, 0), (0, 1, 1, 0)], [], 4))
@settings(max_examples=300, deadline=None)
def test_extreme_rays_of_halfspaces_matches_fraction_oracle(system):
    # signed integer minors against one Fraction nullspace per row subset;
    # the lineality basis is the oracle's scaled to primitive integer rows
    rays, lin = xl.extreme_rays_of_halfspaces(*system)
    want_rays, want_lin = cone_oracle.extreme_rays_of_halfspaces(*system)
    assert rays == want_rays
    assert lin == [xl.scale_to_integer(v) for v in want_lin]


# --- the integer-pivoting simplex against the Fraction oracle of lp_oracle ---

rational = st.one_of(small_ints, st.builds(Fraction, st.integers(-4, 4),
                                           st.integers(1, 3)))


@st.composite
def integer_systems(draw):
    """(A, b) with small integer entries; about half are feasible by
    construction (b = A z for some z >= 0), and zero entries are common."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    A = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.booleans()):
        z = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        b = [sum(a * c for a, c in zip(row, z)) for row in A]
    else:
        b = draw(st.lists(entry, min_size=m, max_size=m))
    return A, b


@given(integer_systems())
@example(([[1, 0], [0, 1]], [-1, 0]))  # infeasible: an artificial stays positive
@example(([[0, 0, 0]], [0]))  # zero row, zero target
@example(([[0]], [1]))  # zero row, nonzero target
@example(([[1, 1], [1, 1]], [0, 0]))  # degenerate: every ratio is 0
@example(([[1, 1, 2], [2, 2, 4], [1, -1, 0]], [2, 4, 0]))  # dependent rows
@example(([[1, -1], [-1, 1]], [1, 1]))  # inconsistent
@settings(max_examples=400, deadline=None)
def test_phase1_matches_fraction_oracle_on_integer_systems(system):
    # integer pivoting follows the rational pivots: same verdict, and the
    # numerators over D are the oracle's z
    A, b = system
    want = lp_oracle._phase1(A, b)
    A_frac = [[Fraction(a) for a in row] for row in A]  # integral Fractions
    for rows in (A, A_frac):
        got = xl._phase1(rows, b, len(A[0]))
        assert (got is None) == (want is None)
        if got is not None:
            z, D = got
            assert type(D) is int and D > 0
            assert all(type(x) is int for x in z)
            assert tuple(Fraction(x, D) for x in z) == want


@given(st.integers(1, 4).flatmap(lambda m: st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(rational, min_size=n, max_size=n), min_size=m, max_size=m),
        st.lists(rational, min_size=m, max_size=m)))))
@example(([[Fraction(1, 2), Fraction(1, 3)]], [Fraction(1, 6)]))
@example(([[Fraction(1, 2), 0], [0, Fraction(-1, 3)]], [1, 1]))
@settings(max_examples=300, deadline=None)
def test_phase1_certified_witness_on_rational_systems(system):
    # rows with true fractions are scaled first, which may change the pivots,
    # so only the verdict has to agree; the witness is checked exactly
    A, b = system
    got, want = xl._phase1(A, b, len(A[0])), lp_oracle._phase1(A, b)
    assert (got is None) == (want is None)
    if got is not None:
        z, D = got
        assert D > 0 and all(x >= 0 for x in z)
        assert xl.mat_vec(A, [Fraction(x, D) for x in z]) == tuple(b)


def test_lp_witnesses_are_certified(monkeypatch):
    # a kernel handing back a wrong witness (z, D) is caught, not passed on
    def kernel(z, D):
        monkeypatch.setattr(xl, "_phase1", lambda A, b, n: (z, D))

    kernel((1, 1), 1)
    with pytest.raises(InvariantBreach):
        xl.solve_nonneg([(1, 0), (0, 1)], (1, 2))
    kernel((1, 1, 1), 1)
    with pytest.raises(InvariantBreach):
        xl.feasible_point([((1,), Fraction(2))])
    kernel((-1, -1), 1)
    with pytest.raises(InvariantBreach):
        xl.solve_nonneg([(1, 0), (0, 1)], (-1, -1))
    # right numerators over the wrong denominator: A z = b, but z / 2 is
    # no solution, and a check that ignored D would pass both
    kernel((1, 2), 2)
    with pytest.raises(InvariantBreach):
        xl.solve_nonneg([(1, 0), (0, 1)], (1, 2))
    kernel((1, 0, 0), 2)  # x = 1/2 against x >= 1
    with pytest.raises(InvariantBreach):
        xl.feasible_point([((1,), 1)])
    # a denominator that is not positive, and a witness of the wrong length
    kernel((0, 0), 0)
    with pytest.raises(InvariantBreach):
        xl.solve_nonneg([(1, 0), (0, 1)], (0, 0))
    kernel((0, 0, 0), -1)
    with pytest.raises(InvariantBreach):
        xl.feasible_point([((1,), 0)])
    kernel((0,), 1)
    with pytest.raises(InvariantBreach):
        xl.solve_nonneg([(1, 0), (0, 1)], (0, 0))
    with pytest.raises(InvariantBreach):
        xl.solve_nonneg([(), ()], ())
    with pytest.raises(InvariantBreach):
        xl.feasible_point([((1,), 0)])
