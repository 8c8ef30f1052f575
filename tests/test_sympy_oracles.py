"""Independent oracles: exactlin's linear algebra against sympy.

sympy is optional; without it these tests are skipped.  The expected values
come from sympy alone: nothing here calls exactlin to build an expectation.
The Hermite kernel of `lattice_oracle` is checked against sympy first and
then gives `exactlin.primitive_kernel` its generator up to sign.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

import lattice_oracle  # noqa: E402
from toricmmp import exactlin as xl  # noqa: E402

entries = st.integers(min_value=-6, max_value=6)


@st.composite
def int_matrices(draw, max_rows=4, max_cols=4):
    m = draw(st.integers(min_value=1, max_value=max_rows))
    n = draw(st.integers(min_value=1, max_value=max_cols))
    return [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]


@st.composite
def square_matrices(draw, max_n=5):
    n = draw(st.integers(min_value=0, max_value=max_n))
    return [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]


def _primitive(vec):
    """sympy's rational vector scaled by a positive rational to a primitive
    integer vector."""
    den = math.lcm(*(int(x.q) for x in vec))
    ints = [int(x.p) * (den // int(x.q)) for x in vec]
    return tuple(a // math.gcd(*ints) for a in ints)


@given(int_matrices())
@settings(max_examples=150, deadline=None)
def test_rank_and_nullspace_match_sympy(A):
    M = sympy.Matrix(A)
    assert xl.rank(A) == M.rank()
    # both vanish at all free columns but one, where they are positive, so
    # the bases agree up to a positive scale
    assert xl.nullspace(A) == [_primitive(v) for v in M.nullspace()]


@given(int_matrices())
@settings(max_examples=150, deadline=None)
def test_smith_normal_form_matches_sympy(A):
    D, U, V = xl.smith_normal_form(A)
    M = sympy.Matrix(A)
    assert sympy.Matrix(U) * M * sympy.Matrix(V) == sympy.Matrix(D)
    assert abs(sympy.Matrix(U).det()) == 1 and abs(sympy.Matrix(V).det()) == 1
    k = min(len(A), len(A[0]))
    assert all(D[i][j] == 0 for i in range(len(D)) for j in range(len(D[0]))
               if i != j)
    expected = [abs(int(f)) for f in invariant_factors(M, domain=sympy.ZZ)]
    assert [D[i][i] for i in range(k)] == expected + [0] * (k - len(expected))


@given(int_matrices())
@settings(max_examples=150, deadline=None)
def test_integer_kernel_spans_sympy_kernel(A):
    M = sympy.Matrix(A)
    K = lattice_oracle.integer_kernel(A)
    assert len(K) == len(M.nullspace())
    if not K:
        return
    KM = sympy.Matrix(K).T  # columns are the kernel vectors
    assert M * KM == sympy.zeros(len(A), len(K))
    assert KM.rank() == len(K)
    # a lattice basis of the kernel is saturated: its invariant factors are 1
    assert all(abs(int(f)) == 1 for f in invariant_factors(KM, domain=sympy.ZZ))
    if len(K) == 1 and len(A) == len(A[0]) - 1:
        # corank one: the signed maximal minors give the same generator
        assert xl.primitive_kernel(A, len(A[0])) in (K[0], tuple(-c for c in K[0]))


@given(square_matrices())
# zero leading pivots: a row swap in the cofactor range and in Bareiss's
@example([[0, 1], [1, 0]])
@example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
@example([[0, 2, 0], [1, 0, 0], [0, 0, 3]])
@example([[0, 1, 2, 3], [1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1]])
@example([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
@example([[0, 2, 1, 0], [0, 1, 3, 1], [0, 4, 1, 2], [0, 1, 1, 1]])  # zero column
@example([[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 2, 0],
          [0, 0, 3, 0, 0], [0, 0, 0, 0, -1]])
@settings(max_examples=200, deadline=None)
def test_integer_det_matches_sympy(A):
    assert xl.integer_det(A) == sympy.Matrix(len(A), len(A), sum(A, [])).det()
