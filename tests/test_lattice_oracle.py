"""Seeded cross-checks of the integer-lattice layer against `lattice_oracle`:
the signed-minor kernel against the Hermite kernel, the gcd of maximal
minors against the product of the Smith invariants (and the simplicial
facet normals against the `Fraction` double description of `cone_oracle`),
the one-Smith-form section against one integer solve per column, and the
one-Smith-form support function against a `Fraction` solve plus a Smith
form per cone, and the parallelepiped points of simplicial cones, most of
them not full-dimensional, against a box scan on the oracles' own solve;
and the lattice-emptiness test behind the degree-by-degree Zariski
oracle."""

import random
from fractions import Fraction

import pytest

import cone_oracle
import lattice_oracle
from toricmmp import corpus
from toricmmp import divisor as dv
from toricmmp import exactlin as xl
from toricmmp import fan as fn
from toricmmp.divisor import InvariantDivisor, NotQCartier
from toricmmp.errors import InvariantBreach, PreconditionError
from toricmmp.fan import Fan
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


def _lower_dimensional_fans(rng, count):
    """Seeded fans with lower-dimensional maximal cones: random faces of the
    cones of an affine chain, and single cones of dimension d in Z^n on up
    to d + 2 generators (often not simplicial), mapped in by a random
    integer matrix of rank d."""
    out = []
    while len(out) < count:
        if len(out) % 2:
            F = corpus.random_affine_instance(rng, rng.randint(2, 3),
                                              rng.randint(1, 3)).source
            faces = {tuple(sorted(rng.sample(c, rng.randint(1, len(c)))))
                     for c in F.max_cones}
            faces = [f for f in faces if not any(set(f) < set(g) for g in faces)]
            used = sorted(set().union(*faces))
            idx = {i: k for k, i in enumerate(used)}
            out.append(Fan(F.rank, tuple(F.rays[i] for i in used),
                           tuple(tuple(idx[i] for i in f) for f in faces)))
            continue
        n = rng.randint(2, 4)
        d = rng.randint(1, n)
        M = _matrix(rng, n, d)
        while xl.rank(M) != d:
            M = _matrix(rng, n, d)
        gens = set()
        for _ in range(rng.randint(d, d + 2)):
            v = tuple(rng.randint(-2, 2) for _ in range(d - 1)) + (rng.randint(1, 3),)
            gens.add(xl.primitive(xl.mat_vec(M, v)))
        out.append(Fan(n, tuple(sorted(gens)), (tuple(range(len(gens))),)))
    return out


def test_support_function_matches_two_eliminations():
    # covector values on each cone's generators, the Cartier index and the
    # NotQCartier witness; the divisor is random or a fraction of a
    # principal one, so non-simplicial cones give both verdicts
    rng = random.Random(20261021)
    mismatches = []
    lower = witnesses = 0
    for F in _lower_dimensional_fans(rng, 400):
        if rng.randrange(2):
            D = corpus.random_divisor(rng, F)
        else:
            u = tuple(rng.randint(-3, 3) for _ in range(F.rank))
            D = InvariantDivisor(tuple(xl.dot(u, v) for v in F.rays)).scale(
                Fraction(1, rng.randint(1, 6)))
        try:
            want = lattice_oracle.support_function(F, D)
        except NotQCartier as e:
            with pytest.raises(NotQCartier) as got:
                dv.support_function(F, D)
            if got.value.cone != e.cone:
                mismatches.append((F, D))
            witnesses += 1
            continue
        got = dv.support_function(F, D)
        if got.cartier_index != want.cartier_index or any(
                xl.dot(m, F.rays[i]) != xl.dot(u, F.rays[i])
                for cone, m, u in zip(F.max_cones, got.covectors, want.covectors)
                for i in cone):
            mismatches.append((F, D))
        lower += sum(fn.cone_dim(F.cone_gens(c)) < F.rank for c in F.max_cones)
        # one Smith form gives covectors that the index makes integral
        assert all((c * got.cartier_index).denominator == 1
                   for m in got.covectors for c in m)
    assert mismatches == []
    assert (lower, witnesses) == (299, 35)


def test_lattice_free_of_bounded_regions():
    # 1/3 <= u <= 2/3: rational points, no lattice point
    assert lattice_oracle.lattice_free_of([(3,), (-3,)], [-1, 2]) == \
        (True, None)
    # 1/2 <= u1 <= 3/2, -1/2 <= u2 <= 1/2 holds exactly (1, 0)
    empty, point = lattice_oracle.lattice_free_of(
        [(2, 0), (-2, 0), (0, 2), (0, -2)], [-1, 3, 1, 1])
    assert not empty and tuple(point) == (1, 0)
    # the half-line u >= 1/2 is feasible and unbounded: no finite certificate
    with pytest.raises(PreconditionError):
        lattice_oracle.lattice_free_of([(2,)], [-1])


def _simplicial_cones(seed, count, bound):
    """Seeded generator lists of simplicial cones: k = 1..d independent
    integer vectors of Z^d, d = 2..4, entries in [-bound, bound], not
    always primitive; most have k < d and so are not full-dimensional."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(2, 4)
        k = rng.randint(1, d)
        gens = [tuple(rng.randint(-bound, bound) for _ in range(d)) for _ in range(k)]
        if xl.rank(gens) == k:
            out.append(tuple(gens))
    return out


@pytest.mark.parametrize("seed, count, bound, lower, points", [
    (20261021, 60, 2, 32, 220),
    pytest.param(2026, 400, 3, 267, 2694, marks=pytest.mark.slow),
])
def test_parallelepiped_points_match_box_scan(seed, count, bound, lower, points):
    # the Smith-form solve per box point against the oracle's own solve,
    # on full-dimensional cones and on cones whose box mostly lies off
    # their span; the same points in the same order, with the same t
    cones = _simplicial_cones(seed, count, bound)
    found = [fn.parallelepiped_points(gens) for gens in cones]
    assert found == [lattice_oracle.parallelepiped_points(gens) for gens in cones]
    assert sum(len(gens) < len(gens[0]) for gens in cones) == lower
    assert sum(map(len, found)) == points
