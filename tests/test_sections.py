import itertools
from fractions import Fraction

import pytest

import lattice_oracle
import mmp_oracle
from conftest import affine_instances, termination_instances
from toricmmp import divisor as dv
from toricmmp import exactlin as xl
from toricmmp import sections as sc
from toricmmp.curves import nefness
from toricmmp.divisor import InvariantDivisor
from toricmmp.errors import PreconditionError
from toricmmp.fan import (Fan, FanMap, common_refinement, cone_contains,
                          map_to_point, parallelepiped_points)
from toricmmp.mmp import run_mmp


A1_EXPECTED = sorted([(-2, 1, 2), (-1, 1, 1), (0, 0, 1),
                      (0, 1, 0), (1, 0, 0), (2, -1, 0)])


def test_hilbert_basis_a1(a1_cone_fan):
    m = map_to_point(a1_cone_fan)  # rank-0 target means affine global sections
    D = InvariantDivisor((1, 0))
    gens = sc.algebra_generators(m, D)
    assert sorted(gens) == A1_EXPECTED


def test_hilbert_basis_smooth_orthant(orthant2):
    m = map_to_point(orthant2)
    gens = sc.algebra_generators(m, dv.zero_divisor(orthant2))
    assert sorted(gens) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_hilbert_basis_half_integral(orthant2):
    m = map_to_point(orthant2)
    D = InvariantDivisor((Fraction(1, 2), 0))
    gens = sc.algebra_generators(m, D)
    # degree-2 sections reach exponent -1
    C = sc.section_cone(orthant2, D)
    assert all(C.contains(g) for g in gens)
    assert any(g[-1] == 2 and g[0] == -1 for g in gens)


def test_hilbert_basis_prunes_reducible_candidates():
    # the cone of (2, 1) and (1, 3): its parallelepiped holds (1, 1),
    # (1, 2), (2, 2) = (1, 1) + (1, 1) and (2, 3) = (1, 1) + (1, 2), and the
    # last two must be pruned
    C = xl.HalfspaceSystem(((-1, 2), (3, -1)), (0, 0))
    points = [p for p, _t in parallelepiped_points(((2, 1), (1, 3)))]
    assert sorted(points) == [(1, 1), (1, 2), (2, 2), (2, 3)]
    basis = sc.hilbert_basis(C)
    assert basis == [(1, 1), (1, 2), (1, 3), (2, 1)]
    # brute force: the nonzero lattice points of C in a box that are no sum
    # of two of them (C lies in the first quadrant, so a summand of a box
    # point is in the box)
    box = [p for p in itertools.product(range(9), repeat=2)
           if p != (0, 0) and C.contains(p)]
    irreducible = [x for x in box if not any(
        y != x and C.contains(xl.vsub(x, y)) for y in box)]
    assert irreducible == basis


def _generates(C, gens, target, memo):
    """Greedy reachability: target is a nonneg integer combination of gens."""
    target = tuple(target)
    if target in memo:
        return memo[target]
    if all(c == 0 for c in target):
        return True
    memo[target] = False
    for g in gens:
        diff = tuple(t - a for t, a in zip(target, g))
        if diff[-1] < 0 or not C.contains(diff):
            continue
        if diff == target:
            continue
        if _generates(C, gens, diff, memo):
            memo[target] = True
            return True
    return False


def test_generation_up_to_degree_8_a1(a1_cone_fan):
    F = a1_cone_fan
    D = InvariantDivisor((1, 0))
    C = sc.section_cone(F, D)
    gens = sc.hilbert_basis(C)
    memo = {}
    for deg in range(1, 9):
        pts = sc.graded_lattice_points(F, D, deg,
                                       box=[(-20, 20), (-20, 20)])
        assert pts  # sanity
        for p in pts:
            assert C.contains(p)
            assert _generates(C, gens, p, memo), p
    # minimality: no generator is a sum of the others
    for g in gens:
        rest = [h for h in gens if h != g]
        assert not _generates(C, rest, g, {})


def test_graded_points_match_cone(a1_cone_fan):
    F = a1_cone_fan
    D = InvariantDivisor((1, 0))
    C = sc.section_cone(F, D)
    pts = sc.graded_lattice_points(F, D, 3, box=[(-10, 10), (-10, 10)])
    # graded slice = cone section at degree 3 (integral slice, no rounding)
    for p in pts:
        assert C.contains(p)


def test_pseudo_effective_lp(orthant2, blowup2):
    # an affine base takes the LP route
    m = map_to_point(orthant2)
    assert sc.is_pseudo_effective(m, dv.zero_divisor(orthant2))
    assert sc.is_pseudo_effective(m, InvariantDivisor((-1, 2)))
    m2 = map_to_point(blowup2)
    assert sc.is_pseudo_effective(m2, InvariantDivisor((0, 0, 1)))
    # a principal shift makes even very negative divisors effective here
    assert sc.is_pseudo_effective(m2, InvariantDivisor((-1, -1, -3)))


def test_pseudo_effective_mmp_refutes(p2, f1):
    m = map_to_point(p2)
    K = dv.canonical_divisor(p2)
    assert run_mmp(m, K).outcome == "fano"
    assert not sc.is_pseudo_effective(m, K)
    assert run_mmp(m, K.scale(-1)).outcome == "minimal"
    assert sc.is_pseudo_effective(m, K.scale(-1))
    # over the ruling F1 -> P^1, not an affine base, the MMP decides: K is
    # negative on the fibres, which cover F1
    ruling = FanMap(((1, 0),), f1, Fan(1, ((1,), (-1,)), ((0,), (1,))))
    K = dv.canonical_divisor(f1)
    assert not sc.is_pseudo_effective(ruling, K)
    assert sc.is_pseudo_effective(ruling, K.scale(-1))
    assert sc.is_pseudo_effective(ruling, dv.zero_divisor(f1))


def test_pseudo_effective_routes_agree(blowup2, blowup_map):
    for coeffs in [(0, 0, 1), (1, 1, 0), (0, 0, -1), (-1, -1, -3),
                   (Fraction(1, 2), 0, 0)]:
        D = InvariantDivisor(coeffs)
        via_mmp = run_mmp(blowup_map, D).outcome == "minimal"
        assert sc.is_pseudo_effective(blowup_map, D) == via_mmp, coeffs


def test_zariski_exceptional(blowup2, blowup_map):
    # D = E: P = 0, N = E
    E = InvariantDivisor((0, 0, 1))
    R = sc.zariski_decompose(blowup_map, E)
    assert R.P.is_zero()
    assert R.N.coeffs == pullback_coeffs(R, blowup2, E)
    assert sc.verify_ckm(R, E).ok


def pullback_coeffs(R, X, D):
    from toricmmp.divisor import pullback
    return pullback(R.to_source, D).coeffs


def test_zariski_nef_input(blowup2, blowup_map):
    # a pullback from the base is already nef: N = 0
    D = InvariantDivisor((1, 1, 2))  # pullback of x=0 + y=0 downstairs
    R = sc.zariski_decompose(blowup_map, D)
    assert R.N.is_zero()
    assert sc.verify_ckm(R, D).ok


def test_zariski_mixed(blowup2, blowup_map):
    # D = pullback + E splits as P = pullback part, N = E
    D = InvariantDivisor((1, 1, 3))
    R = sc.zariski_decompose(blowup_map, D)
    assert dict(zip(R.model.rays, R.N.coeffs)) == \
        {(1, 0): 0, (0, 1): 0, (1, 1): 1}
    assert sc.verify_ckm(R, D).ok


def test_zariski_not_pseudo_effective(p2):
    with pytest.raises(PreconditionError):
        sc.zariski_decompose(map_to_point(p2), dv.canonical_divisor(p2))


def test_zariski_on_a_small_complete_fan():
    # rank 3, 4 rays over a point: the D-MMP on X ends in a fano fibration,
    # so D is not pseudo-effective
    m, D = termination_instances(20240801, 40)[3]
    with pytest.raises(PreconditionError,
                       match="pseudo-effectivity failed: the MMP ends in a "
                             "fano fibration with D negative on its fibers"):
        sc.zariski_decompose(m, D)


def _decompose(zariski, m, D):
    """`zariski(m, D)`, or None when it refuses D as not pseudo-effective."""
    try:
        return zariski(m, D)
    except PreconditionError:
        return None


def _split_on_a_common_refinement(new, old):
    """(P, N) of two decompositions, each pulled back to one common
    refinement of their models."""
    _, a, b = common_refinement(new.model, old.model)
    return ((dv.pullback(a, new.P), dv.pullback(a, new.N)),
            (dv.pullback(b, old.P), dv.pullback(b, old.N)))


def test_zariski_matches_the_resolution_oracle():
    # the D-MMP on X against the resolve-first route it replaced: equal
    # verdicts, and equal P and N on a common refinement; the model fans
    # differ only at index 18 (8 rays against 9), where the MMP on X ends on
    # a coarser fan than the MMP on the resolution
    differ = []
    for i, (m, D) in enumerate(affine_instances(77, 40)):
        new = _decompose(sc.zariski_decompose, m, D)
        old = _decompose(mmp_oracle.zariski_on_resolution, m, D)
        assert (new is None) == (old is None), i
        if new is None:
            continue
        if new.model != old.model:
            differ.append(i)
        new_split, old_split = _split_on_a_common_refinement(new, old)
        assert new_split == old_split, i
        assert sc.verify_ckm(new, D).ok, i
    assert differ == [18]


def test_zariski_runs_the_mmp_on_x(monkeypatch):
    # the source of affine_instances(77, 40)[0] is not smooth: the MMP runs
    # on it, and the resolution is built once the MMP has ended minimal
    m, D = affine_instances(77, 40)[0]
    calls = []

    def traced(name, fn):
        def wrapper(*args):
            calls.append((name, args[0]))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(sc, "run_mmp", traced("run_mmp", sc.run_mmp))
    monkeypatch.setattr(sc, "resolve", traced("resolve", sc.resolve))
    R = sc.zariski_decompose(m, D)
    assert calls == [("run_mmp", m), ("resolve", m.source)]
    assert calls[0][1] is m
    assert R.nef_end_fan == run_mmp(m, D).final_fan


# the degree oracle's default on termination_instances(20240801, 40)[27] is
# 4 x 32,802 (the Cartier index of P): 131,208 degrees, about a minute
CKM_DEGREES = {27: 1000}


@pytest.mark.slow
def test_zariski_on_the_termination_instances():
    # every base here is affine, so `is_pseudo_effective` is one LP, and it
    # must give the verdict of the D-MMP on X; the oracle's MMP on the
    # resolution takes half a minute on a refused instance such as [3], so
    # it runs on the accepted ones only, where the model fans differ only
    # at index 17 (10 rays against 13); every base is affine, so the degree
    # oracle's global sections give the same verdict as the Farkas check
    differ = []
    for i, (m, D) in enumerate(termination_instances(20240801, 40)):
        new = _decompose(sc.zariski_decompose, m, D)
        assert sc.is_pseudo_effective(m, D) == (new is not None), i
        if new is None:
            continue
        old = mmp_oracle.zariski_on_resolution(m, D)
        if new.model != old.model:
            differ.append(i)
        new_split, old_split = _split_on_a_common_refinement(new, old)
        assert new_split == old_split, i
        assert sc.verify_ckm(new, D).ok, i
        assert lattice_oracle.ckm_by_degrees(new, D, CKM_DEGREES.get(i)).ok, i
    assert differ == [17]


def test_ckm_detects_corruption(blowup2, blowup_map):
    E = InvariantDivisor((0, 0, 1))
    R = sc.zariski_decompose(blowup_map, E)
    # corrupt N with a negative coefficient: condition 2
    badN = sc.ZariskiResult(R.model, R.to_source, R.base_map, R.P,
                            InvariantDivisor((0, 0, -1)), R.nef_end_fan,
                            R.p_cartier_index)
    v = sc.verify_ckm(badN, E)
    assert not v.ok and v.failed_condition == 2
    # corrupt P to something non-nef: condition 1; the model's rays are
    # (1, 0), (1, 1), (0, 1), so P is the exceptional ray's divisor
    badP = sc.ZariskiResult(R.model, R.to_source, R.base_map,
                            InvariantDivisor((0, 1, 0)), R.N, R.nef_end_fan,
                            R.p_cartier_index)
    v = sc.verify_ckm(badP, E)
    assert not v.ok and v.failed_condition == 1


def test_ckm_detects_a_p_that_is_not_nef(blowup_map):
    # P and N of the decomposition of E swapped: N = 0 is effective, and
    # P = E pairs negatively with the exceptional curve, condition (1)
    E = InvariantDivisor((0, 0, 1))
    R = sc.zariski_decompose(blowup_map, E)
    swapped = sc.ZariskiResult(R.model, R.to_source, R.base_map, R.N, R.P,
                               R.nef_end_fan, R.p_cartier_index)
    assert sc.verify_ckm(swapped, E) == sc.CKMVerdict(False,
                                                     failed_condition=1)


def test_ckm_detects_wrong_split(blowup2, blowup_map):
    # move mass from N to P so the degree-1 sections grow: condition 3
    D = InvariantDivisor((1, 1, 3))
    R = sc.zariski_decompose(blowup_map, D)
    shifted = sc.ZariskiResult(R.model, R.to_source, R.base_map,
                               R.P + InvariantDivisor((1, 1, 1)),
                               R.N - InvariantDivisor((1, 1, 1)),
                               R.nef_end_fan, R.p_cartier_index)
    v = sc.verify_ckm(shifted, D)
    assert not v.ok


def _mutants(R, eps):
    """The decompositions P - eps E_k, N + eps E_k, one per model ray k,
    that keep P nef over the base: conditions (1) and (2) hold, (3) fails."""
    n = len(R.model.rays)
    for k in range(n):
        E = InvariantDivisor(tuple(eps if j == k else 0 for j in range(n)))
        if nefness(R.P - E, R.base_map).nef:
            yield sc.ZariskiResult(R.model, R.to_source, R.base_map, R.P - E,
                                   R.N + E, R.nef_end_fan, R.p_cartier_index)


def _witness_breaks_a_chart(R, D, verdict):
    """Does the integral witness of degree q meet every row of
    floor(q mu*D) over some maximal base cone, and break a row of floor(qP)
    there?  Read on integers, with the rays over each cone placed by
    `cone_contains`."""
    q, w = verdict.failed_degree, verdict.witness
    Z, base = R.model, R.base_map
    T = dv.round_down(dv.pullback(R.to_source, D).scale(q)).coeffs
    P = dv.round_down(R.P.scale(q)).coeffs
    for tau in base.target.max_cones:
        over = [k for k, v in enumerate(Z.rays)
                if cone_contains(base.target.cone_gens(tau), base.apply(v))]
        pair = [sum(a * b for a, b in zip(w, Z.rays[k])) for k in over]
        if all(x >= -T[k] for x, k in zip(pair, over)) and \
                any(x < -P[k] for x, k in zip(pair, over)):
            return True
    return False


def test_ckm_reads_each_chart_of_a_non_affine_base():
    # F1 blown up at a fixed point, over P^1 by the first coordinate: moving
    # E/2 from P to N, E the ray (-1, 1), the whole fibre over infinity,
    # keeps P nef and the global sections equal, but not the sections over
    # the chart at infinity
    X = Fan(2, ((1, 0), (0, 1), (-1, 1), (0, -1), (1, -1)),
            ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    m = FanMap(((1, 0),), X, Fan(1, ((1,), (-1,)), ((0,), (1,))))
    D = InvariantDivisor((-2, -2, -2, 2, -2))
    R = sc.zariski_decompose(m, D)
    assert sc.verify_ckm(R, D).ok
    k = R.model.rays.index((-1, 1))
    (bad,) = [M for M in _mutants(R, Fraction(1, 2))
              if M.N.coeffs[k] != R.N.coeffs[k]]
    v = sc.verify_ckm(bad, D)
    assert (v.ok, v.failed_condition) == (False, 3)
    assert _witness_breaks_a_chart(bad, D, v)
    assert lattice_oracle.ckm_by_degrees(bad, D, 12).ok  # global sections


def test_ckm_rejects_every_mutant_with_a_verdict():
    # the 186 nef mutants of affine_instances(77, 40); the degree loop up to
    # degree 60 rejects the same ones where it finishes, and raises
    # PreconditionError ("pass a box") on the 153 whose violation regions
    # are unbounded
    count = raised = 0
    for m, D in affine_instances(77, 40):
        R = sc.zariski_decompose(m, D)
        for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(2)):
            for bad in _mutants(R, eps):
                v = sc.verify_ckm(bad, D)
                assert (v.ok, v.failed_condition) == (False, 3)
                assert _witness_breaks_a_chart(bad, D, v)
                count += 1
                try:
                    assert not lattice_oracle.ckm_by_degrees(bad, D, 60).ok
                except PreconditionError:
                    raised += 1
    assert (count, raised) == (186, 153)


def test_ckm_matches_the_degree_oracle():
    # every base here is affine: the Farkas check and the degree loop up to
    # 4 x the Cartier index of P give the same verdict on all 40
    for i, (m, D) in enumerate(affine_instances(77, 40)):
        R = sc.zariski_decompose(m, D)
        assert sc.verify_ckm(R, D) == lattice_oracle.ckm_by_degrees(R, D), i
