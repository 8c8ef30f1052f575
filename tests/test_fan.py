import itertools
import random
from fractions import Fraction

import pytest

import cone_oracle
import covering_oracle
import fan_oracle
import mmp_oracle
from conftest import termination_instances
from toricmmp import curves as cv
from toricmmp import exactlin as xl
from toricmmp import fan as fn
from toricmmp import newton as nt
from toricmmp import singularities as sg
from toricmmp.curves import contracted_walls
from toricmmp.divisor import InvariantDivisor, zero_divisor
from toricmmp.errors import InputError, InvariantBreach, PreconditionError
from toricmmp.fan import Fan, FanMap, identity_map, map_to_point
from toricmmp.mmp import contract, run_mmp

ORTHANT2 = Fan(2, ((1, 0), (0, 1)), ((0, 1),))


@pytest.mark.parametrize("build, args", [
    pytest.param(Fan, (2.0, ((1, 0), (0, 1)), ((0, 1),)), id="fan-float-rank"),
    pytest.param(Fan, (2, ((1.5, 0), (0, 1)), ((0, 1),)), id="fan-float-ray"),
    pytest.param(Fan, (2, ((1.0, 0), (0, 1)), ((0, 1),)), id="fan-float-one"),
    pytest.param(Fan, (2, ((Fraction(3, 2), 0), (0, 1)), ((0, 1),)),
                 id="fan-fraction-ray"),
    pytest.param(Fan, (2, ((True, 0), (0, 1)), ((0, 1),)), id="fan-bool-ray"),
    pytest.param(Fan, (2, ((1, 0), (0, 1)), ((0.7, 1),)),
                 id="fan-float-index"),
    pytest.param(FanMap, (((1.9, 0), (0, 1)), ORTHANT2, ORTHANT2),
                 id="map-float-entry"),
    pytest.param(FanMap, (((1, False), (0, 1)), ORTHANT2, ORTHANT2),
                 id="map-bool-entry"),
    pytest.param(InvariantDivisor, ((0.1,),), id="divisor-float"),
    pytest.param(InvariantDivisor, ((True,),), id="divisor-bool"),
    pytest.param(InvariantDivisor, (("1/0",),), id="divisor-bad-string"),
])
def test_constructors_refuse_inexact_entries(build, args):
    # no entry is truncated or read off a binary float
    with pytest.raises(InputError):
        build(*args)


@pytest.mark.parametrize("routine, args", [
    pytest.param(fn.star_subdivision, (ORTHANT2, (1.5, 1)),
                 id="subdivide-float"),
    pytest.param(fn.star_subdivision, (ORTHANT2, (Fraction(3, 2), 1)),
                 id="subdivide-fraction"),
    pytest.param(sg.discrepancy, (ORTHANT2, zero_divisor(ORTHANT2), (1.9, 1)),
                 id="discrepancy-float"),
    pytest.param(nt.check_exponents, ([(2.7, 0), (0, 3)],),
                 id="exponent-float"),
    pytest.param(nt.check_exponents, ([(True, 0), (0, 3)],),
                 id="exponent-bool"),
    pytest.param(xl.primitive, ((Fraction(3, 2), 3),), id="primitive-fraction"),
    pytest.param(xl.smith_normal_form, ([[1.5]],), id="smith-float"),
    pytest.param(xl.smith_solve, ([[Fraction(3, 2)]], [3]),
                 id="smith-solve-fraction"),
    pytest.param(xl.quotient_projection, ([(Fraction(1, 2), 0)], 2),
                 id="quotient-fraction"),
])
def test_routines_refuse_inexact_vectors(routine, args):
    # a lattice coordinate is read by exactlin.integer, never truncated by int()
    with pytest.raises(InputError, match="expected an integer"):
        routine(*args)


def test_fan_refuses_a_negative_rank():
    # no lattice has rank -1; `io.load_fan` names the file in its own check
    with pytest.raises(InputError, match="negative rank -1"):
        Fan(-1, (), ())


def test_constructors_take_integral_fractions():
    F = Fan(2, ((Fraction(2, 2), 0), (0, 1)), ((Fraction(0), 1),))
    assert F == ORTHANT2 and type(F.rays[0][0]) is int
    m = FanMap(((Fraction(1), 0), (0, 1)), F, F)
    assert m.matrix == ((1, 0), (0, 1)) and type(m.matrix[0][0]) is int
    v = xl.primitive((Fraction(4, 2), 2))
    assert v == (1, 1) and {type(c) for c in v} == {int}
    assert InvariantDivisor(("1/3", -2)).coeffs == (Fraction(1, 3), -2)


def test_validate_good(p2, f1, quadric_cone_fan):
    assert fn.validate_fan(p2) == []
    assert fn.validate_fan(f1) == []
    assert fn.validate_fan(quadric_cone_fan) == []
    assert fn.certify_fan(p2, "plane") is p2


def test_validate_line():
    F = Fan(2, ((1, 0), (-1, 0)), ((0, 1),))
    assert any("strongly convex" in v for v in fn.validate_fan(F))


def test_validate_overlap():
    F = Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1), (1, 2), (0, 2)))
    assert fn.validate_fan(F)  # overlapping cones
    with pytest.raises(InvariantBreach):
        fn.certify_fan(F, "overlapping fan")


def test_validate_bad_ray():
    F = Fan(2, ((2, 0), (0, 1)), ((0, 1),))
    assert any("primitive" in v for v in fn.validate_fan(F))
    F = Fan(2, ((1, 0), (0, 1)), ((0,),))
    assert any("no maximal cone" in v for v in fn.validate_fan(F))


def test_star_subdivision(orthant2, blowup2):
    S = fn.star_subdivision(orthant2, (1, 1))
    assert S.canonical() == blowup2.canonical()
    with pytest.raises(PreconditionError):
        fn.star_subdivision(orthant2, (-1, 0))
    with pytest.raises(InputError):
        fn.star_subdivision(orthant2, (2, 2))


def test_star_subdivision_boundary_point():
    orth3 = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 2),))
    S = fn.star_subdivision(orth3, (1, 1, 0))
    assert fn.validate_fan(S) == []
    assert len(S.max_cones) == 2


def test_qfactorialize(quadric_cone_fan, quadric_tri_a, quadric_tri_b):
    Q, m = fn.qfactorialize(quadric_cone_fan)
    assert Q.is_simplicial()
    assert set(Q.rays) == set(quadric_cone_fan.rays)  # smallness
    assert Q.canonical() in (quadric_tri_a.canonical(), quadric_tri_b.canonical())
    assert fn.validate_fan(Q) == []
    # identity on simplicial input
    Q2, _ = fn.qfactorialize(quadric_tri_a)
    assert Q2 is quadric_tri_a


def test_qfactorialize_certificate(quadric_cone_fan):
    Q, _ = fn.qfactorialize(quadric_cone_fan)
    I = xl.identity_matrix(3)
    flags = fn.check_morphism(FanMap(I, Q, quadric_cone_fan))
    assert flags.ample_certificate is not None


def test_qfactorialize_cube_cone():
    cube = tuple((x, y, z, 1) for x in (0, 1) for y in (0, 1) for z in (0, 1))
    C = Fan(4, cube, (tuple(range(8)),))
    Q, _ = fn.qfactorialize(C)
    assert Q.is_simplicial()
    assert set(Q.rays) == set(cube)
    assert fn.validate_fan(Q) == []
    flags = fn.check_morphism(FanMap(xl.identity_matrix(4), Q, C))
    assert flags.ample_certificate is not None


def _random_gens(rng, rank, pointed):
    """rank + 1 or rank + 2 distinct primitive vectors with entries in
    [-3, 3], the last one positive when `pointed`."""
    n = rng.randint(rank + 1, rank + 2)
    gens = set()
    while len(gens) < n:
        v = [rng.randint(-3, 3) for _ in range(rank)]
        if pointed:
            v[-1] = rng.randint(1, 3)
        if not xl.is_zero(v):
            gens.add(tuple(xl.primitive(v)))
    return sorted(gens)


def _subdivision_configurations(count):
    """Seeded generator lists, cycling through three kinds over ranks 2-4:
    positively spanning ray sets, pointed cones, and pointed cones of rank
    2 or 3 mapped into one or two more dimensions by an integer matrix."""
    rng = random.Random(2010)
    out = []
    while len(out) < count:
        kind, rank = len(out) % 3, 2 + len(out) // 3 % 3
        if kind == 2:
            rank = min(rank, 3)
        gens = _random_gens(rng, rank, kind > 0)
        if kind == 0 and not xl.recession_cone_trivial(
                xl.HalfspaceSystem(tuple(gens), (0,) * len(gens))):
            continue
        if kind == 2:
            A = [[rng.randint(-2, 2) for _ in range(rank)]
                 for _ in range(rank + rng.randint(1, 2))]
            if xl.rank(A) < rank:
                continue
            gens = sorted(tuple(xl.primitive(xl.mat_vec(A, g))) for g in gens)
        out.append(tuple(gens))
    return out


@pytest.mark.parametrize("count", [1000, pytest.param(5000, marks=pytest.mark.slow)])
def test_regular_cells_match_solve_oracle(count):
    # the lifted signed minors against the Fraction solve per subset, for
    # the heights c^(i+1) of qfactorialize: equal cells, equal None verdicts
    mismatches, verdicts = [], []
    for gens in _subdivision_configurations(count):
        n = len(gens)
        perp = fn.cone_span_perp(gens)
        F = Fan(len(gens[0]), gens, (tuple(range(n)),))
        for c in (2, 3):
            heights = [c ** (i + 1) for i in range(n)]
            cells = fn.regular_cells(gens, heights, perp)
            oracle = fan_oracle.regular_cells(F, tuple(range(n)), dict(enumerate(heights)))
            if cells != oracle:
                mismatches.append((gens, c))
            verdicts.append(cells is None)
    assert mismatches == []
    assert 0 < sum(verdicts) < len(verdicts)


def test_qfactorialize_retries_the_next_prime_on_degenerate_heights():
    # -2 v0 + 5 v1 - 4 v2 + v3 = 0, and the heights 2, 4, 8, 16 satisfy
    # the same relation, so c = 2 lifts all four rays onto one hyperplane
    rays = ((-2, -1, 1), (-2, 0, 1), (-1, 0, 1), (2, -2, 1))
    assert fn.regular_cells(rays, [2, 4, 8, 16]) is None
    assert fn.regular_cells(rays, [3, 9, 27, 81]) == [(0, 1, 2), (0, 2, 3)]
    Q, _ = fn.qfactorialize(Fan(3, rays, ((0, 1, 2, 3),)))
    assert Q == Fan(3, rays, ((0, 1, 2), (0, 2, 3)))


def test_resolve_smooth_fixed_point(p2):
    R, _ = fn.resolve(p2)
    assert R.canonical() == p2.canonical()


def test_resolve_a1(a1_cone_fan):
    R, _ = fn.resolve(a1_cone_fan)
    assert (1, 1) in R.rays
    assert all(fn.cone_lattice_multiplicity(R.cone_gens(c)) == 1
               for c in R.max_cones)


def test_resolve_one_third():
    F = Fan(2, ((1, 0), (-1, 3)), ((0, 1),))
    R, _ = fn.resolve(F)
    assert (0, 1) in R.rays
    for c in R.max_cones:
        gens = R.cone_gens(c)
        assert fn.cone_lattice_multiplicity(gens) == 1


def test_resolve_preserves_support(quadric_cone_fan):
    R, _ = fn.resolve(quadric_cone_fan)
    assert set(quadric_cone_fan.rays) <= set(R.rays)
    assert fn.cone_covered_by_gens(
        quadric_cone_fan.cone_gens(quadric_cone_fan.max_cones[0]),
        [R.cone_gens(c) for c in R.max_cones])
    assert all(fn.cone_lattice_multiplicity(R.cone_gens(c)) == 1
               for c in R.max_cones)


def total_multiplicity(F: Fan) -> int:
    return sum(fn.cone_lattice_multiplicity(F.cone_gens(c))
               for c in F.max_cones)


def test_multiplicity_decreases(a1_cone_fan):
    before = total_multiplicity(a1_cone_fan)
    R, _ = fn.resolve(a1_cone_fan)
    assert total_multiplicity(R) < before + len(R.max_cones)


def test_common_refinement_self(p2):
    R, m1, m2 = fn.common_refinement(p2, p2)
    assert R.canonical() == p2.canonical()


def test_common_refinement_quadric(quadric_tri_a, quadric_tri_b):
    R, _, _ = fn.common_refinement(quadric_tri_a, quadric_tri_b)
    assert (1, 1, 2) in R.rays
    assert len(R.max_cones) == 4
    assert fn.validate_fan(R) == []
    # every output cone sits inside one cone of each input
    for c in R.max_cones:
        gens = R.cone_gens(c)
        for F in (quadric_tri_a, quadric_tri_b):
            hits = [mc for mc in F.max_cones
                    if all(fn.cone_contains(F.cone_gens(mc), g) for g in gens)]
            assert len(hits) == 1


def test_common_refinement_blowup(blowup2, orthant2):
    R, _, _ = fn.common_refinement(blowup2, orthant2)
    assert R.canonical() == blowup2.canonical()


def test_common_refinement_support_mismatch(orthant2, p2):
    with pytest.raises(PreconditionError):
        fn.common_refinement(orthant2, p2)


def test_check_morphism_projective(p2, blowup_map):
    flags = fn.check_morphism(map_to_point(p2))
    assert flags.toric and flags.proper and flags.ample_certificate is not None
    flags = fn.check_morphism(blowup_map)
    assert flags.toric and flags.proper and flags.ample_certificate is not None


def test_check_morphism_not_proper(orthant2):
    half = Fan(2, ((1, 0),), ((0,),))
    flags = fn.check_morphism(FanMap(((1, 0), (0, 1)), half, orthant2))
    assert flags.toric and not flags.proper
    # only a proper map is certified projective
    assert flags.ample_certificate is None


def test_check_morphism_not_toric(p2, orthant2):
    assert not fn.is_toric_morphism(FanMap(((1, 0), (0, 1)), p2, orthant2))


def test_check_morphism_relative(a1xp1_over_a1):
    flags = fn.check_morphism(a1xp1_over_a1)
    assert flags.toric and flags.proper and flags.ample_certificate is not None


def _support_contains(F, v):
    return any(fn.cone_contains(F.cone_gens(c), v) for c in F.max_cones)


@pytest.mark.parametrize("mk", ["blowup", "halfray", "relative"])
def test_properness_grid_oracle(mk, blowup2, orthant2, a1xp1_over_a1):
    if mk == "blowup":
        m = FanMap(((1, 0), (0, 1)), blowup2, orthant2)
    elif mk == "halfray":
        m = FanMap(((1, 0), (0, 1)), Fan(2, ((1, 0),), ((0,),)), orthant2)
    else:
        m = a1xp1_over_a1
    proper = fn.check_morphism(m).proper
    grid_ok = True
    n = m.source.rank
    for p in itertools.product(range(-3, 4), repeat=n):
        img = m.apply(p)
        if _support_contains(m.target, img) and not _support_contains(m.source, p):
            grid_ok = False
            break
    assert proper == grid_ok


def test_covering_matches_splitter_oracle(quadric_tri_a, quadric_tri_b,
                                          quadric_cone_fan, corpus65_map):
    # facet pairing against recursive splitting, on every sub-collection of
    # maximal cones, for convexity and for properness onto a flipping target
    pairs = contracted_walls(corpus65_map)
    (cls,) = [c for w, c in pairs if w.rays == (0, 3)]
    flipping = contract(corpus65_map, [w for w, c in pairs if c == cls]).target
    cases = ((quadric_tri_a, quadric_cone_fan),
             (quadric_tri_b, quadric_cone_fan),
             (quadric_cone_fan, quadric_cone_fan),
             (corpus65_map.source, flipping))
    verdicts = set()
    for source, target in cases:
        for k in range(1, len(source.max_cones) + 1):
            for cones in itertools.combinations(source.max_cones, k):
                F = Fan(source.rank, source.rays, cones)
                m = identity_map(F, target)
                got = (F.support_convex(),
                       fn.is_toric_morphism(m) and fn._covers_preimages(m))
                want = (covering_oracle.support_convex(F),
                        covering_oracle.is_proper(m))
                assert got == want, cones
                verdicts.add(got)
    # both answers occur for both questions
    assert {v[0] for v in verdicts} == {v[1] for v in verdicts} == {True, False}


def test_cone_contains_matches_lp_oracle(p2, quadric_tri_a, quadric_tri_b,
                                        quadric_cone_fan, corpus65_map):
    # facet normals against the phase-1 simplex on the cone spanned by every
    # nonempty subset of the rays of each maximal cone (lower-dimensional
    # ones too), probed with the rays, their pairwise sums and random
    # integer vectors
    rng = random.Random(4)
    fans = (p2, quadric_tri_a, quadric_tri_b, quadric_cone_fan,
            corpus65_map.source, corpus65_map.target)
    verdicts, mismatches = set(), []
    for F in fans:
        probes = list(F.rays) + [tuple(a + b for a, b in zip(r, s))
                                 for r, s in itertools.combinations(F.rays, 2)]
        probes += [tuple(rng.randint(-4, 4) for _ in range(F.rank))
                   for _ in range(40)]
        subsets = {sub for c in F.max_cones for k in range(1, len(c) + 1)
                   for sub in itertools.combinations(c, k)}
        for sub in sorted(subsets):
            gens = F.cone_gens(sub)
            for v in probes:
                got = fn.cone_contains(gens, v)
                if got != cone_oracle.cone_contains(gens, v):
                    mismatches.append((gens, v))
                verdicts.add(got)
    assert mismatches == []
    assert verdicts == {True, False}
    assert fn.cone_contains((), (0, 0, 0)) and not fn.cone_contains((), (1, 0, 0))


def test_cone_covered_implicit_equalities_and_repeats(orthant2):
    # x1 >= 0 and -x1 >= 0 cut out the line x1 = 0: both half-lines are
    # needed, although the lone origin facet of one lies on both rows' zero set
    rows = [(1, 0), (-1, 0)]
    up, down = ((0, 1),), ((0, -1),)
    assert fn.cone_covered(rows, 1, [up, down])
    assert not fn.cone_covered(rows, 1, [up])
    assert not covering_oracle.cone_covered(rows, [], 2, [up])
    # the same line as the preimage of the orthant under x -> (x1, -x1)
    line = Fan(2, ((0, 1), (0, -1)), ((0,), (1,)))
    half = Fan(2, ((0, 1),), ((0,),))
    A = ((1, 0), (-1, 0))
    m = FanMap(A, line, orthant2)
    assert fn.is_toric_morphism(m) and fn._covers_preimages(m)
    m = FanMap(A, half, orthant2)
    assert fn.is_toric_morphism(m) and not fn._covers_preimages(m)
    # a cone listed twice counts once: cone(e1, e2) leaves part of the wedge
    # between e1 and (-1, 1, 0) uncovered
    wedge = ((1, 0, 0), (-1, 1, 0))
    cell = ((1, 0, 0), (0, 1, 0))
    assert not fn.cone_covered_by_gens(wedge, [cell, cell])


def test_ample_certificate_is_strictly_convex(p2):
    flags = fn.check_morphism(map_to_point(p2))
    d = flags.ample_certificate
    # strictly positive against the single curve class (1,1,1)
    assert sum(d) > 0


# De Loera-Rambau-Santos's "mother of all examples" (Triangulations, 2010):
# the triangle with corners 0, 1, 2 and the three inner points 3, 4, 5, at
# height one.  Its eight triangulations that use every point, mapped onto
# the cone of the triangle; the two rotational ones are not regular, so
# their maps are proper and not projective.
MOTHER_RAYS = ((0, 0, 1), (4, 0, 1), (0, 4, 1), (1, 1, 1), (2, 1, 1),
               (1, 2, 1))
MOTHER_ROTATIONAL = (
    ((0, 1, 3), (0, 2, 5), (0, 3, 5), (1, 2, 4), (1, 3, 4), (2, 4, 5),
     (3, 4, 5)),
    ((0, 1, 4), (0, 2, 3), (0, 3, 4), (1, 2, 5), (1, 4, 5), (2, 3, 5),
     (3, 4, 5)))
MOTHER_REGULAR = (
    ((0, 1, 3), (0, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 5), (2, 4, 5),
     (3, 4, 5)),
    ((0, 1, 3), (0, 2, 3), (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 5),
     (3, 4, 5)),
    ((0, 1, 3), (0, 2, 5), (0, 3, 5), (1, 2, 5), (1, 3, 4), (1, 4, 5),
     (3, 4, 5)),
    ((0, 1, 4), (0, 2, 3), (0, 3, 4), (1, 2, 4), (2, 3, 5), (2, 4, 5),
     (3, 4, 5)),
    ((0, 1, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5), (1, 2, 4), (2, 4, 5),
     (3, 4, 5)),
    ((0, 1, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5), (1, 2, 5), (1, 4, 5),
     (3, 4, 5)))


def _mother_map(cells):
    triangle = Fan(3, MOTHER_RAYS[:3], ((0, 1, 2),))
    return FanMap(xl.identity_matrix(3), Fan(3, MOTHER_RAYS, cells), triangle)


@pytest.mark.parametrize("cells", MOTHER_ROTATIONAL + MOTHER_REGULAR)
def test_mother_of_all_examples(cells):
    m = _mother_map(cells)
    assert fn.validate_fan(m.source) == []
    flags = fn.check_morphism(m)
    projective = cells in MOTHER_REGULAR
    assert flags.toric and flags.proper
    assert (flags.ample_certificate is not None) == projective
    assert (fan_oracle.projectivity_certificate(m) is not None) == projective
    if projective:
        assert cv.ne_cone(m).rho > 0
    else:
        assert flags.ample_certificate is None
        with pytest.raises(PreconditionError):
            cv.ne_cone(m)


def test_projectivity_matches_covector_oracle(p2, blowup_map, a1xp1_over_a1,
                                              quadric_map_a, corpus65_map):
    # the wall LP on the facet map against the covector LP, on the desk
    # maps, the eight triangulations of the mother of all examples and
    # every map an MMP of a corpus slice passes through
    maps = [map_to_point(p2), blowup_map, a1xp1_over_a1, quadric_map_a,
            corpus65_map]
    maps += [_mother_map(c) for c in MOTHER_ROTATIONAL + MOTHER_REGULAR]
    for m, D in termination_instances(seed=20240801, count=24):
        maps += [cur for cur, _ in
                 mmp_oracle.step_maps(m, run_mmp(m, D))]
    mismatches = [m for m in maps
                  if (fn.check_morphism(m).ample_certificate is None)
                  != (fan_oracle.projectivity_certificate(m) is None)]
    assert mismatches == []
    assert sum(fn.check_morphism(m).ample_certificate is None
               for m in maps) == 2
