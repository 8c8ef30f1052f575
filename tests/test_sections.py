from fractions import Fraction

import pytest

import mmp_oracle
from toricmmp import corpus
from toricmmp import divisor as dv
from toricmmp import sections as sc
from toricmmp.divisor import InvariantDivisor
from toricmmp.errors import PreconditionError
from toricmmp.fan import Fan, FanMap, common_refinement, map_to_point
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
    v = sc.verify_ckm(R, E, m_max=12)
    assert v.ok


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
    assert sc.verify_ckm(R, D, m_max=8).ok


def test_zariski_not_pseudo_effective(p2):
    with pytest.raises(PreconditionError):
        sc.zariski_decompose(map_to_point(p2), dv.canonical_divisor(p2))


def test_zariski_on_a_small_complete_fan():
    # rank 3, 4 rays over a point: the D-MMP on X ends in a fano fibration,
    # so D is not pseudo-effective
    m, D = corpus.termination_instances(20240801, 40)[3]
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
    for i, (m, D) in enumerate(corpus.affine_instances(77, 40)):
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
    m, D = corpus.affine_instances(77, 40)[0]
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


# verify_ckm's default m_max on termination_instances(20240801, 40)[27] is
# 4 x 32,802 (the Cartier index of P): 131,208 degrees, about a minute
CKM_DEGREES = {27: 1000}


@pytest.mark.slow
def test_zariski_on_the_termination_instances():
    # every base here is affine, so `is_pseudo_effective` is one LP, and it
    # must give the verdict of the D-MMP on X; the oracle's MMP on the
    # resolution takes half a minute on a refused instance such as [3], so
    # it runs on the accepted ones only, where the model fans differ only
    # at index 17 (10 rays against 13)
    differ = []
    for i, (m, D) in enumerate(corpus.termination_instances(20240801, 40)):
        new = _decompose(sc.zariski_decompose, m, D)
        assert sc.is_pseudo_effective(m, D) == (new is not None), i
        if new is None:
            continue
        old = mmp_oracle.zariski_on_resolution(m, D)
        if new.model != old.model:
            differ.append(i)
        new_split, old_split = _split_on_a_common_refinement(new, old)
        assert new_split == old_split, i
        assert sc.verify_ckm(new, D, m_max=CKM_DEGREES.get(i)).ok, i
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
    # corrupt P to something non-nef: condition 1
    badP = sc.ZariskiResult(R.model, R.to_source, R.base_map,
                            InvariantDivisor((0, 0, 1)), R.N, R.nef_end_fan,
                            R.p_cartier_index)
    v = sc.verify_ckm(badP, E)
    assert not v.ok and v.failed_condition in (1, 3)


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


def test_lattice_free_of_bounded_regions():
    # 1/3 <= u <= 2/3: rational points, no lattice point
    assert sc._lattice_free_of([(3,), (-3,)], [-1, 2]) == (True, None)
    # 1/2 <= u1 <= 3/2, -1/2 <= u2 <= 1/2 holds exactly (1, 0)
    empty, point = sc._lattice_free_of([(2, 0), (-2, 0), (0, 2), (0, -2)],
                                       [-1, 3, 1, 1])
    assert not empty and tuple(point) == (1, 0)
    # the half-line u >= 1/2 is feasible and unbounded: no finite certificate
    with pytest.raises(PreconditionError):
        sc._lattice_free_of([(2,)], [-1])
