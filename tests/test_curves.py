import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import fan_oracle
import mmp_oracle
from conftest import clear_package_caches, termination_instances
from test_acceptance import _check_flip_steps
from toricmmp import corpus
from toricmmp import curves as cv
from toricmmp import divisor as dv
from toricmmp import exactlin as xl
from toricmmp import fan as fn
from toricmmp.divisor import InvariantDivisor
from toricmmp.errors import InvariantBreach, PreconditionError
from toricmmp.fan import Fan, FanMap, check_morphism, identity_map, \
    map_to_point
from toricmmp.mmp import contract, contract_face, run_mmp


def test_walls_p2(p2):
    ws = cv.walls(p2)
    assert len(ws) == 3
    assert {w.rays for w in ws} == {(0,), (1,), (2,)}


def test_walls_f1(f1):
    assert len(cv.walls(f1)) == 4


def test_walls_quadric_triangulation(quadric_tri_a):
    ws = cv.walls(quadric_tri_a)
    assert len(ws) == 1 and ws[0].rays == (0, 3)


def _sorted(ws):
    """Walls by their cones and facet: `walls` lists them in facet-map
    order, the oracle by pairs of cones."""
    return sorted(ws, key=lambda w: (w.side_a, w.side_b, w.rays))


def test_walls_match_intersection_oracle(p2, f1, blowup2, orthant2,
                                        quadric_tri_a, quadric_cone_fan,
                                        corpus65_map, a1xp1_over_a1):
    # the desk fans, a fan with maximal cones of dimensions 2 and 3 that
    # share a ray, the fan over the faces of a cube (no simplicial cone),
    # then every fan an MMP of a corpus slice passes through, with its
    # contraction targets and ample models; the same walls, in any order
    mixed = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)),
                ((0, 1), (0, 2, 3)))
    corners = [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]
    cube = Fan(3, corners, [[i for i, v in enumerate(corners) if v[k] == s]
                            for k in range(3) for s in (1, -1)])
    fans = [p2, f1, blowup2, orthant2, quadric_tri_a, quadric_cone_fan,
            corpus65_map.source, a1xp1_over_a1.source, mixed, cube]
    for m, D in termination_instances(seed=20240801, count=24):
        trace = run_mmp(m, D)
        fans.append(m.source)
        fans.extend(s.fan_after for s in trace.steps)
        for cur, cls in mmp_oracle.step_maps(m, trace):
            wall_set = [w for w, c in cv.contracted_walls(cur) if c == cls]
            fans.append(contract(cur, wall_set).target)
        if trace.outcome == "minimal":
            fans.append(contract_face(trace.final_map, trace.final_divisor)[0])
    assert sum(not F.is_simplicial() for F in fans) >= 6
    assert len(cv.walls(cube)) == 12
    for F in fans:
        assert _sorted(cv.walls(F)) == _sorted(mmp_oracle.walls(F)), F


def test_wall_relation_p2(p2):
    (w,) = [w for w in cv.walls(p2) if w.rays == (0,)]
    assert fn.wall_coefficients(p2, w.rays, w.side_a, w.side_b) == (1, 1, 1)


def test_wall_relations_f1(f1):
    rels = {fn.wall_coefficients(f1, w.rays, w.side_a, w.side_b)
            for w in cv.walls(f1)}
    # fiber class twice, exceptional class, and the strict transform class
    assert rels == {(0, 1, 0, 1), (1, -1, 1, 0), (1, 0, 1, 1)}


def test_wall_relation_quadric(quadric_tri_a):
    (w,) = cv.walls(quadric_tri_a)
    assert fn.wall_coefficients(quadric_tri_a, w.rays, w.side_a,
                                w.side_b) == (-1, 1, 1, -1)


def _stress_instances():
    """The Tier-1-sized stress fans of rank 4 and 5 (`test_stress.CASES`),
    seeds 0-2, mapped to a point, with their divisors."""
    out = []
    for rank, nrays in ((4, 6), (4, 7), (5, 7), (5, 8)):
        for seed in range(3):
            rng = random.Random(1000 * seed + 10 * rank + nrays)
            F = corpus.random_complete_fan(rng, rank, nrays)
            out.append((map_to_point(F), corpus.random_divisor(rng, F)))
    return out


def test_wall_coefficients_match_kernel_oracle(monkeypatch):
    # every relation `check_morphism` and `swap_cells` take by Cramer's rule,
    # in the runs and the flip replays of corpus seeds 20240801 and 0-2 and
    # of the stress fans, equals the primitive kernel of the cones' union
    runs = [inst for seed in (20240801, 0, 1, 2)
            for inst in termination_instances(seed, 100)]
    runs += _stress_instances()
    callers, ranks, mismatches = Counter(), Counter(), []
    orig = fn.wall_coefficients

    def checked(F, facet, ca, cb):
        got = orig(F, facet, ca, cb)
        caller = sys._getframe(1)
        if caller.f_code.co_name == "<genexpr>":
            caller = caller.f_back
        callers[caller.f_code.co_name] += 1
        ranks[F.rank] += 1
        if got != fan_oracle.wall_coefficients(F, facet, ca, cb):
            mismatches.append((F, facet, ca, cb))
        return got

    monkeypatch.setattr(fn, "wall_coefficients", checked)
    clear_package_caches()
    for m, D in runs:
        _check_flip_steps(m, D, run_mmp(m, D))
    assert mismatches == []
    assert callers.keys() == {"check_morphism", "swap_cells"}
    assert callers["check_morphism"] >= 2000 and callers["swap_cells"] >= 1000
    assert ranks[4] >= 100 and ranks[5] >= 100, ranks


@pytest.mark.parametrize("rays,facet,ca,cb,message", [
    # the facet is not the cones' common facet
    (((1, 0), (0, 1), (-1, -1)), (), (0, 1), (1, 2), "exactly two off-wall"),
    (((1, 0), (0, 1), (-1, -1)), (0, 1), (0, 1), (1, 2), "exactly two off-wall"),
    (((1, 0), (0, 1), (-1, -1)), (0, 2), (0, 1), (1, 2), "exactly two off-wall"),
    # the cones lie on one side of the facet: (0, 2) inside (0, 1)
    (((1, 0), (0, 1), (1, 1)), (0,), (0, 1), (0, 2), "not positive"),
    # a cone whose rays are dependent: no relation is positive on ray 2
    (((1, 0), (2, 0), (0, 1)), (0,), (0, 1), (0, 2), "not positive"),
])
def test_wall_coefficients_refuse_what_the_oracle_refuses(rays, facet, ca, cb,
                                                          message):
    F = Fan(2, rays, (ca, cb))
    for wall_coefficients in (fn.wall_coefficients,
                              fan_oracle.wall_coefficients):
        with pytest.raises(InvariantBreach, match=message):
            wall_coefficients(F, facet, ca, cb)


def test_pairing(f1):
    K = dv.canonical_divisor(f1)
    fiber = cv.CurveClass((0, 1, 0, 1))
    exc = cv.CurveClass((1, -1, 1, 0))
    assert fiber.pair(K) == -2
    assert exc.pair(K) == -1


def test_pairing_principal_is_zero(f1):
    for u in ((1, 0), (0, 1), (2, -3)):
        P = InvariantDivisor(tuple(xl.dot(u, v) for v in f1.rays))
        for w in cv.walls(f1):
            rel = fn.wall_coefficients(f1, w.rays, w.side_a, w.side_b)
            assert cv.CurveClass(rel).pair(P) == 0


def test_ne_cone_p2(p2):
    ne = cv.ne_cone(map_to_point(p2))
    assert ne.rho == 1
    assert [c.coeffs for c in ne.extremal_rays] == [(1, 1, 1)]


def test_ne_cone_f1(f1):
    ne = cv.ne_cone(map_to_point(f1))
    assert ne.rho == 2
    assert {c.coeffs for c in ne.extremal_rays} == {(0, 1, 0, 1), (1, -1, 1, 0)}
    # strict transform class is interior, not extremal
    assert cv.CurveClass((1, 0, 1, 1)) in ne.generators


def test_rho_smooth_complete(p2, f1):
    # for a smooth complete surface, rho = #rays - rank
    assert cv.ne_cone(map_to_point(p2)).rho == 3 - 2
    assert cv.ne_cone(map_to_point(f1)).rho == 4 - 2


def test_ne_cone_relative(a1xp1_over_a1):
    ne = cv.ne_cone(a1xp1_over_a1)
    assert ne.rho == 1
    assert [c.coeffs for c in ne.extremal_rays] == [(0, 1, 1)]


def test_ne_cone_affine_is_empty(orthant2):
    # an affine variety over itself carries no complete curves
    ident = FanMap(((1, 0), (0, 1)), orthant2, orthant2)
    ne = cv.ne_cone(ident)
    assert ne.generators == () and ne.rho == 0


def test_contracted_walls_blowup(blowup_map, blowup2):
    pairs = cv.contracted_walls(blowup_map)
    assert len(pairs) == 1
    w, c = pairs[0]
    assert w.rays == (2,)
    assert c.coeffs == (1, 1, -1)


def test_p1_has_one_wall_and_contracts_to_a_point():
    # in rank 1 the origin is the wall between the two rays
    P1 = Fan(1, ((1,), (-1,)), ((0,), (1,)))
    assert _sorted(cv.walls(P1)) == _sorted(mmp_oracle.walls(P1)) != []
    ne = cv.ne_cone(map_to_point(P1))
    assert [c.coeffs for c in ne.generators] == [(1, 1)] and ne.rho == 1
    trace = run_mmp(map_to_point(P1), dv.canonical_divisor(P1))
    assert trace.outcome == "fano"
    assert [(s.kind, s.chosen_class.coeffs) for s in trace.steps] == \
        [("fano", (1, 1))]


def test_contracted_walls_match_replaced_paths(p2, f1, blowup_map,
                                               a1xp1_over_a1, quadric_map_a,
                                               corpus65_map):
    # walls, classes and ample certificates against the walk over `walls`
    # and the wall LP that placed every union again, on the desk maps and
    # every map an MMP of a corpus slice passes through
    maps = [map_to_point(p2), map_to_point(f1), blowup_map, a1xp1_over_a1,
            quadric_map_a, corpus65_map]
    for m, D in termination_instances(seed=20240801, count=24):
        trace = run_mmp(m, D)
        maps += [cur for cur, _ in mmp_oracle.step_maps(m, trace)]
        maps.append(trace.final_map)
    mismatches = []
    for m in maps:
        try:
            fan_oracle.check_contracted(m)
        except AssertionError:
            mismatches.append(m)
    assert mismatches == []
    assert sum(len(cv.contracted_walls(m)) for m in maps) > len(maps)


def test_convexity_from_the_base_keeps_verdicts(orthant2):
    # the base's support (three quadrants) is not convex, so the source's
    # own support decides, with the old verdicts and messages
    quadrants = ((1, 0), (0, 1), (-1, 0), (0, -1))
    L = Fan(2, quadrants, ((0, 1), (1, 2), (2, 3)))
    P1xP1 = Fan(2, quadrants, ((0, 1), (1, 2), (2, 3), (0, 3)))
    line = FanMap(((1, 0), (0, 0)), P1xP1, L)  # P1 x P1 -> the x-axis
    assert not L.support_convex() and P1xP1.support_convex()
    assert check_morphism(line).proper
    assert [w.rays for w, _ in cv.contracted_walls(line)] == [(0,), (2,)]
    # not convex, proper over itself; and maps that are not proper
    wedge = Fan(2, ((1, 0), (1, 1)), ((0, 1),))
    cases = {identity_map(L, L): "source support must be convex",
             identity_map(L, P1xP1): "source support must be convex",
             FanMap(((1, 0), (0, 1)), wedge, orthant2):
                 "map must be a proper toric morphism"}
    for m, message in cases.items():
        with pytest.raises(PreconditionError, match=message):
            cv.contracted_walls(m)
    for m in [line, *cases]:
        fan_oracle.check_contracted(m)


def test_contracted_walls_needs_simplicial(quadric_cone_fan):
    with pytest.raises(PreconditionError):
        cv.contracted_walls(map_to_point(quadric_cone_fan))


def test_nefness(f1):
    m = map_to_point(f1)
    K = dv.canonical_divisor(f1)
    v = cv.nefness(K, m)
    assert not v.nef and v.value < 0
    # -K on F1 is nef but not ample (pairs 0 with nothing? it is ample)
    v = cv.nefness(K.scale(-1), m, strict=True)
    assert v.nef and v.strict
    # the pullback of a point divisor class: nef, not strictly
    E = InvariantDivisor((0, 1, 0, 0))  # D_{rho_1}, the -1 curve itself
    v = cv.nefness(E, m)
    assert not v.nef
    assert v.violating_class.pair(E) == v.value


def test_nefness_zero_divisor(p2):
    v = cv.nefness(dv.zero_divisor(p2), map_to_point(p2), strict=True)
    assert v.nef and not v.strict


def test_strict_nefness_of_a_divisor_that_is_not_nef():
    # corpus seed 0, instance 31: D pairs to 0 with the wall (0,) before it
    # pairs negatively with the wall (3,); a zero wall ends no strict check,
    # so strict and plain nefness give one verdict, whatever the wall order
    F = Fan(2, ((-4, -1), (1, 3), (2, -1), (4, 1)),
            ((0, 1), (0, 2), (1, 3), (2, 3)))
    D = InvariantDivisor((Fraction(1, 3), Fraction(5, 6), Fraction(-2, 3), 0))
    m = map_to_point(F)
    values = [c.pair(D) for _, c in cv.contracted_walls(m)]
    assert values.index(0) < values.index(Fraction(-7, 3))
    v = cv.nefness(D, m, strict=True)
    assert v == cv.nefness(D, m)
    assert (v.nef, v.strict, v.violating_wall.rays, v.value) == (
        False, False, (3,), Fraction(-7, 3))
