from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import cone_oracle
import lp_oracle
from toricmmp import exactlin as xl
from toricmmp.errors import InputError, InvariantBreach, PreconditionError


def test_primitive():
    assert xl.primitive((2, 4)) == (1, 2)
    assert xl.primitive((-6, 9)) == (-2, 3)
    assert xl.primitive((0, 5, 0)) == (0, 1, 0)
    with pytest.raises(InputError):
        xl.primitive((0, 0))


def test_integer_kernel_quadric():
    A = [[0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 1, 1]]
    assert xl.integer_kernel(A) == [(1, -1, -1, 1)]


def test_integer_kernel_is_kernel_and_primitive():
    A = [[2, 4, 6], [1, 2, 3]]
    for k in xl.integer_kernel(A):
        assert all(xl.dot(row, k) == 0 for row in A)
        assert xl.primitive(k) == k or xl.primitive(tuple(-c for c in k)) == k


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
    for k in xl.integer_kernel(A):
        assert all(xl.dot(row, k) == 0 for row in A)


def test_solve_nonneg():
    sol = xl.solve_nonneg([(1, 0), (0, 1), (1, 1)], (3, 2))
    assert sol is not None
    combo = [sum(c * col[i] for c, col in zip(sol, [(1, 0), (0, 1), (1, 1)]))
             for i in range(2)]
    assert combo == [3, 2]
    assert all(c >= 0 for c in sol)
    assert xl.solve_nonneg([(1, 0), (0, 1)], (-1, 0)) is None


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
    assert len(xl.lattice_points(H, bounded=False, box=[(0, 2), (0, 2)])) == 9


def test_extreme_rays_of_halfspaces():
    rays, lin = xl.extreme_rays_of_halfspaces([(1, 0), (0, 1)], [], 2)
    assert sorted(rays) == [(0, 1), (1, 0)] and not lin
    # halfplane: one lineality direction plus one genuine ray
    rays, lin = xl.extreme_rays_of_halfspaces([(1, 1)], [], 2)
    assert len(lin) == 1 and len(rays) == 1
    assert xl.dot((1, 1), rays[0]) > 0


def test_smith_examples():
    D, U, V = xl.smith_normal_form([[2, 4], [6, 8]])
    assert (D[0][0], D[1][1]) == (2, 4)
    assert xl.smith_invariants([[1, 0], [0, 1]]) == [1, 1]


def test_quotient_projection():
    P = xl.quotient_projection([(1, 1)], 2)
    assert len(P) == 1 and xl.dot(P[0], (1, 1)) == 0


def test_integer_multiple_for_solvability():
    # index-2 lattice situation
    assert xl.integer_multiple_for_solvability([(1, 0), (1, 2)], (-1, 0)) == 2
    assert xl.integer_multiple_for_solvability([(1, 0), (0, 1)], (3, 5)) == 1


def test_feasible_point_strict():
    # x - y >= 1 and y >= 0
    sol = xl.feasible_point([((1, -1), Fraction(1)), ((0, 1), Fraction(0))])
    assert sol is not None
    assert sol[0] - sol[1] >= 1 and sol[1] >= 0
    # x >= 1 and -x >= 0 impossible
    assert xl.feasible_point([((1,), Fraction(1)), ((-1,), Fraction(0))]) is None


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
@settings(max_examples=300, deadline=None)
def test_extreme_rays_of_halfspaces_matches_fraction_oracle(system):
    # signed integer minors against one Fraction nullspace per row subset
    got = xl.extreme_rays_of_halfspaces(*system)
    assert got == cone_oracle.extreme_rays_of_halfspaces(*system)


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
    # integer pivoting follows the rational pivots: same verdict, same z
    A, b = system
    assert xl._phase1(A, b) == lp_oracle._phase1(A, b)
    A_frac = [[Fraction(a) for a in row] for row in A]  # integral Fractions
    assert xl._phase1(A_frac, b) == lp_oracle._phase1(A, b)


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
    got, want = xl._phase1(A, b), lp_oracle._phase1(A, b)
    assert (got is None) == (want is None)
    if got is not None:
        assert all(c >= 0 for c in got)
        assert xl.mat_vec(A, got) == tuple(b)


def test_lp_witnesses_are_certified(monkeypatch):
    # a kernel handing back a wrong witness is caught, not passed on
    monkeypatch.setattr(xl, "_phase1", lambda A, b: tuple(Fraction(1) for _ in A[0]))
    with pytest.raises(InvariantBreach):
        xl.solve_nonneg([(1, 0), (0, 1)], (1, 2))
    with pytest.raises(InvariantBreach):
        xl.feasible_point([((1,), Fraction(2))])
    monkeypatch.setattr(xl, "_phase1", lambda A, b: tuple(Fraction(-1) for _ in A[0]))
    with pytest.raises(InvariantBreach):
        xl.solve_nonneg([(1, 0), (0, 1)], (-1, -1))
