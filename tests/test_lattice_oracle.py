"""Seeded cross-checks of the integer-lattice layer against `lattice_oracle`:
the signed-minor kernel against the Hermite kernel, the gcd of maximal
minors against the product of the Smith invariants (and the simplicial
facet normals against the `Fraction` double description of `cone_oracle`),
and the one-Smith-form section against one integer solve per column."""

import random

import pytest

import cone_oracle
import lattice_oracle
from toricmmp import exactlin as xl
from toricmmp import fan as fn
from toricmmp.errors import InvariantBreach
from toricmmp.mmp import _section_of_projection


def _matrix(rng, rows, cols):
    # zero entries are common, so rank deficits and unit columns occur
    return [tuple(rng.choice((0, 0, 0, 1, -1, 2, -2, 3, -4)) for _ in range(cols))
            for _ in range(rows)]


def test_primitive_kernel_matches_hermite_kernel():
    rng = random.Random(20261018)
    lines = deficient = 0
    assert xl.primitive_kernel([], 1) == (1,)  # the oracle needs a row
    for _ in range(600):
        s = rng.randint(2, 6)
        M = _matrix(rng, s - 1, s)
        K = lattice_oracle.integer_kernel(M)
        if len(K) == 1:
            assert xl.primitive_kernel(M, s) in (K[0], tuple(-c for c in K[0]))
            lines += 1
        else:
            with pytest.raises(InvariantBreach):
                xl.primitive_kernel(M, s)
            deficient += 1
    assert (lines, deficient) == (554, 46)
    for _ in range(50):
        s = rng.randint(1, 5)
        rows = rng.choice((s - 2, s)) if s > 1 else s
        with pytest.raises(InvariantBreach):
            xl.primitive_kernel(_matrix(rng, rows, s), s)


def test_simplicial_cones_match_oracles():
    rng = random.Random(20261019)
    checked = 0
    for n in range(1, 6):
        for d in range(1, n + 1):
            for _ in range(60):
                gens = tuple(_matrix(rng, d, n))
                while xl.rank(gens) != d:
                    gens = tuple(_matrix(rng, d, n))
                assert fn.cone_lattice_multiplicity(gens) == \
                    lattice_oracle.lattice_multiplicity(gens)
                rays, lin = cone_oracle.extreme_rays_of_halfspaces(
                    list(gens), fn.cone_span_perp(gens), n)
                assert not lin and fn.cone_facets(gens) == tuple(rays)
                checked += 1
    assert checked == 900


def test_section_matches_per_column_solve():
    rng = random.Random(20261020)
    checked = 0
    for _ in range(400):
        n = rng.randint(2, 5)
        vectors = [v for v in _matrix(rng, rng.randint(1, n - 1), n) if any(v)]
        P = xl.quotient_projection(vectors, n)
        if not P:
            continue
        s = _section_of_projection(P)
        assert s == lattice_oracle.section_of_projection(P)
        assert [tuple(xl.dot(row, col) for col in zip(*s)) for row in P] == \
            [tuple(int(i == j) for j in range(len(P))) for i in range(len(P))]
        checked += 1
    assert checked == 400
