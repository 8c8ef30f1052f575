"""End-to-end acceptance gate.

Ten exact checks covering the cone theorem, the contraction trichotomy,
flips with negativity certificates, MMP termination on a random corpus,
Zariski decomposition with section-set equality, pseudo-effectivity by the
LP against the D-MMP's verdict, Hilbert-basis generation, the singularity table, the Newton-polytope
pipeline, and the freeness witness for nef Cartier divisors.  Everything is
integer / rational arithmetic with tolerance zero.
"""

import hashlib
import itertools
import math
import time
from fractions import Fraction

import pytest

import fan_oracle
from conftest import affine_instances, termination_instances
from toricmmp import mmp, sections as sc
from toricmmp import divisor as dv
from toricmmp import singularities as sg
from toricmmp import newton as nt
from toricmmp.curves import CurveClass, contracted_walls, ne_cone, nefness
from toricmmp.divisor import InvariantDivisor, support_function
from toricmmp.fan import (Fan, FanMap, Wall, check_morphism, map_to_point,
                          wall_coefficients)
from toricmmp.mmp import contract, run_mmp, verify_negativity


# -- 1: cone theorem at desk scale ------------------------------------------

def test_acceptance_1_relative_mori_cone_is_a_half_line(a1xp1_over_a1):
    ne = ne_cone(a1xp1_over_a1)
    assert ne.rho == 1
    assert len(ne.extremal_rays) == 1
    assert ne.extremal_rays[0].coeffs == (0, 1, 1)


# -- 2: contraction trichotomy ----------------------------------------------

def test_acceptance_2_hirzebruch_k_mmp_trace(f1):
    trace = run_mmp(map_to_point(f1), dv.canonical_divisor(f1))
    assert trace.outcome == "fano"
    assert [s.kind for s in trace.steps] == ["divisorial", "fano"]
    div_step = trace.steps[0]
    assert div_step.removed_ray == (0, 1)
    assert (div_step.rho_before, div_step.rho_after) == (2, 1)
    # the divisorial step drops the relative Picard rank by exactly one
    assert div_step.rho_after == div_step.rho_before - 1


def test_acceptance_2_plane_k_mmp_trace(p2):
    trace = run_mmp(map_to_point(p2), dv.canonical_divisor(p2))
    assert trace.outcome == "fano"
    assert [s.kind for s in trace.steps] == ["fano"]


# -- 3: flip correctness ------------------------------------------------------

def test_acceptance_3_quadric_flip(quadric_tri_a, quadric_tri_b,
                                   quadric_cone_fan, quadric_map_a):
    D = InvariantDivisor((1, 0, 0, 0))
    trace = run_mmp(quadric_map_a, D)
    assert [s.kind for s in trace.steps] == ["flipping"]
    step = trace.steps[0]
    # small: ray sets agree on both sides of the flip
    assert set(step.fan_after.rays) == set(quadric_tri_a.rays)
    assert step.fan_after.canonical() == quadric_tri_b.canonical()
    # class values -1 before, +1 after
    assert step.value == -1
    assert step.flip_positive_value == 1
    # negativity oracle across the flip
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    f = FanMap(ident, quadric_tri_a, quadric_cone_fan)
    g = FanMap(ident, step.fan_after, quadric_cone_fan)
    E = verify_negativity((quadric_tri_a, f, D),
                          (step.fan_after, g, step.divisor_after))
    assert E.is_effective() and not E.is_zero()


# -- 4: termination corpus ----------------------------------------------------

def _check_flip_steps(m, D, trace):
    """Re-derive every flipping step and pass it through the negativity
    oracle; recompute the relation of every new internal wall on the
    flipped fan, which `mmp` reads off the circuit instead."""
    F0, D0 = m.source, D
    for s in trace.steps:
        if s.kind == "fano":
            return
        if s.kind == "flipping":
            cur = FanMap(m.matrix, F0, m.target)
            wall_set = [w for w, c in contracted_walls(cur)
                        if c == s.chosen_class]
            # looked up at call time, so that a cross-check sees the call
            res = mmp.contract(cur, wall_set)
            assert res.kind == "flipping"
            ident = tuple(tuple(1 if j == i else 0 for j in range(F0.rank))
                          for i in range(F0.rank))
            f = FanMap(ident, F0, res.target)
            g = FanMap(ident, s.fan_after, res.target)
            E = verify_negativity((F0, f, D0),
                                  (s.fan_after, g, s.divisor_after))
            assert E.is_effective() and not E.is_zero()
            # the new walls carry the circuit relation with the other sign
            flipped = CurveClass(tuple(-a for a in s.chosen_class.coeffs))
            j_minus = [i for i, a in enumerate(s.chosen_class.coeffs) if a < 0]
            for rayset in res.merged_cones:
                for j, k in itertools.combinations(j_minus, 2):
                    wall = Wall(tuple(i for i in rayset if i not in (j, k)),
                                tuple(i for i in rayset if i != j),
                                tuple(i for i in rayset if i != k))
                    rel = CurveClass(wall_coefficients(
                        s.fan_after, wall.rays, wall.side_a, wall.side_b))
                    assert rel == flipped
                    assert s.flip_positive_value == rel.pair(s.divisor_after)
            assert s.flip_positive_value == -s.value
        F0, D0 = s.fan_after, s.divisor_after


def test_acceptance_4_termination_corpus():
    instances = termination_instances(seed=20240801, count=100)
    assert len(instances) == 100
    start = time.monotonic()
    outcomes = set()
    for m, D in instances:
        trace = run_mmp(m, D)  # raises on any repeated fan
        assert trace.outcome in ("minimal", "fano")
        outcomes.add(trace.outcome)
        if trace.outcome == "minimal":
            assert nefness(trace.final_divisor, trace.final_map).nef
        _check_flip_steps(m, D, trace)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"corpus took {elapsed:.1f}s"
    assert outcomes == {"minimal", "fano"}  # both endings are exercised


# sha256 of the repr of each MMP trace of the acceptance corpus, in order
TRACE_DIGEST = \
    "9b84da80de35a09fff7708cf5c855c12c86afe08c9b2e800cb7361f0d06c72b7"


def test_acceptance_traces_are_pinned():
    # the MMP traces of the acceptance corpus, byte for byte: repr of each
    # run, in order, into one sha256
    digest = hashlib.sha256()
    for m, D in termination_instances(seed=20240801, count=100):
        digest.update(repr(run_mmp(m, D)).encode())
    assert digest.hexdigest() == TRACE_DIGEST


def test_acceptance_certificates_are_pinned():
    # the exact certificates, byte for byte: repr of the ample certificate
    # (an LP) of each starting map and of the supporting divisor of each
    # flip, re-derived by `contract`, in order, into one sha256; a flip's L
    # is `run_mmp`'s ratio-test certificate when it made one, so the caches
    # start empty, and each L must certify its target
    check_morphism.cache_clear()
    contracted_walls.cache_clear()
    digest = hashlib.sha256()
    for seed in (20240801, 0):
        for m, D in termination_instances(seed=seed, count=100):
            digest.update(repr(check_morphism(m).ample_certificate).encode())
            F0 = m.source
            for s in run_mmp(m, D).steps:
                if s.kind == "flipping":
                    cur = FanMap(m.matrix, F0, m.target)
                    res = contract(cur, [w for w, c in contracted_walls(cur)
                                         if c == s.chosen_class])
                    assert fan_oracle.supports(cur, s.chosen_class,
                                               res.supporting, res.target)
                    digest.update(repr(res.supporting).encode())
                F0 = s.fan_after
    assert digest.hexdigest() == \
        "ff9b26ba908e86d773d1e97e5c1622df17073e17ef18bd8c270ae85808dacc03"


# -- 5: Zariski decomposition -------------------------------------------------

def test_acceptance_5_blowup_exceptional(blowup2, blowup_map):
    E = InvariantDivisor((0, 0, 1))
    R = sc.zariski_decompose(blowup_map, E)
    assert R.P.is_zero()
    assert dict(zip(R.model.rays, R.N.coeffs)) == \
        {(1, 0): 0, (0, 1): 0, (1, 1): 1}
    assert sc.verify_ckm(R, E).ok
    # independent oracle: the monomial sections of floor(mP) and floor(mE)
    # coincide exactly for every m = 1..12
    box = [(0, 40), (0, 40)]
    muD = InvariantDivisor((0, 0, 1))  # pullback of E to the model (= E)
    for m in range(1, 13):
        pts_p = dv.sections_basis(R.model, dv.round_down(R.P.scale(m)),
                                  box=box)
        pts_d = dv.sections_basis(R.model, dv.round_down(muD.scale(m)),
                                  box=box)
        assert pts_p == pts_d


# -- 6: pseudo-effectivity equivalence ---------------------------------------

def test_acceptance_6_pseudo_effectivity_routes_agree():
    for m, D in affine_instances(seed=77, count=40):
        via_mmp = run_mmp(m, D).outcome == "minimal"
        assert sc.is_pseudo_effective(m, D) == via_mmp


# -- 7: Hilbert bases generate all sections up to grading 8 -------------------

def _generates(C, gens, target, memo):
    target = tuple(target)
    if target in memo:
        return memo[target]
    if all(c == 0 for c in target):
        return True
    memo[target] = False
    for g in gens:
        diff = tuple(t - a for t, a in zip(target, g))
        if diff[-1] < 0 or not C.contains(diff) or diff == target:
            continue
        if _generates(C, gens, diff, memo):
            memo[target] = True
            return True
    return False


@pytest.mark.parametrize("name,fan,coeffs,box", [
    ("a1", Fan(2, ((1, 0), (1, 2)), ((0, 1),)), (1, 0),
     [(-20, 20), (-20, 20)]),
    ("quadric", Fan(3, ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)),
                    ((0, 1, 2, 3),)), (1, 0, 0, 0),
     [(-10, 10), (-10, 10), (-10, 10)]),
])
def test_acceptance_7_hilbert_generation(name, fan, coeffs, box):
    D = InvariantDivisor(coeffs)
    C = sc.section_cone(fan, D)
    gens = sc.algebra_generators(map_to_point(fan), D)
    assert gens == sc.hilbert_basis(C)
    memo = {}
    total = 0
    for deg in range(0, 9):
        for p in sc.graded_lattice_points(fan, D, deg, box=box):
            assert C.contains(p)
            assert _generates(C, gens, p, memo), (deg, p)
            total += 1
    assert total > 0
    # minimality: no generator is generated by the others
    for g in gens:
        rest = [h for h in gens if h != g]
        assert not _generates(C, rest, g, {})


# -- 8: singularity table ------------------------------------------------------

def test_acceptance_8_singularity_table(orthant2):
    zero = dv.zero_divisor
    # smooth cone
    assert sg.classify_pair(orthant2, zero(orthant2)).verdict == "terminal"
    # A1: canonical, crepant point (1,1)
    a1 = Fan(2, ((1, 0), (1, 2)), ((0, 1),))
    c = sg.classify_pair(a1, zero(a1))
    assert (c.verdict, c.witness, c.min_discrepancy) == ("canonical", (1, 1), 0)
    # A2: canonical, crepant points (1,1) and (1,2)
    a2 = Fan(2, ((1, 0), (1, 3)), ((0, 1),))
    c = sg.classify_pair(a2, zero(a2))
    assert c.verdict == "canonical"
    for v in ((1, 1), (1, 2)):
        assert sg.discrepancy(a2, zero(a2), v) == 0
    # 1/3(1,1): klt with min discrepancy -1/3
    third = Fan(2, ((1, 0), (-1, 3)), ((0, 1),))
    c = sg.classify_pair(third, zero(third))
    assert (c.verdict, c.min_discrepancy) == ("klt", Fraction(-1, 3))
    # 1/2(1,1,1): terminal with discrepancy +1/2 at (1,1,1)
    half = Fan(3, ((1, 0, 0), (0, 1, 0), (1, 1, 2)), ((0, 1, 2),))
    assert sg.classify_pair(half, zero(half)).verdict == "terminal"
    assert sg.discrepancy(half, zero(half), (1, 1, 1)) == Fraction(1, 2)


# -- 9: Newton application -----------------------------------------------------

def test_acceptance_9_newton_a1_pipeline():
    E = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    rep = nt.model(E, "minimal")
    assert set(rep.model_fan.rays) == \
        {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)}
    # crepant: every wall value of K + X' is zero on the minimal model
    assert rep.nef_certificate.nef and not rep.nef_certificate.strict
    for w, c in contracted_walls(rep.trace.final_map):
        assert c.pair(rep.trace.final_divisor) == 0
    assert dict(rep.discrepancies) == {(1, 1, 1): 0}
    # canonical model: everything contracts back to the orthant
    rep_c = nt.model(E, "canonical")
    assert set(rep_c.model_fan.rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert len(rep_c.model_fan.max_cones) == 1
    # dlt run: the exceptional ray is contracted divisorially
    rep_d = nt.model(E, "dlt")
    assert [s.kind for s in rep_d.trace.steps] == ["divisorial"]
    assert rep_d.trace.steps[0].removed_ray == (1, 1, 1)
    assert set(rep_d.model_fan.rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


# -- 10: freeness witness for nef Cartier divisors -----------------------------

def _freeness_witness_ok(F, D):
    """Every maximal cone's covector must be an integral point of the
    section polyhedron P_D (base-point-freeness witness for nef Cartier)."""
    psi = support_function(F, D)
    assert psi.cartier_index == 1
    for cone, u in zip(F.max_cones, psi.covectors):
        if any(Fraction(c).denominator != 1 for c in u):
            return False
        for v, d in zip(F.rays, D.coeffs):
            if xl_dot(u, v) + d < 0:
                return False
    return True


def xl_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def test_acceptance_10_freeness_on_corpus():
    checked = 0
    for m, _ in termination_instances(seed=5150, count=30):
        F = m.source
        if m.target.rank == 0:
            flags = check_morphism(m)
            assert flags.ample_certificate is not None
            amp = InvariantDivisor(flags.ample_certificate)
            lam = math.lcm(*[c.denominator for c in amp.coeffs])
            D = amp.scale(lam)
            D = D.scale(support_function(F, D).cartier_index)
        else:
            # pullback of an integral base divisor: nef and Cartier upstairs
            base_D = InvariantDivisor((1,) * len(m.target.rays))
            D = dv.pullback(m, base_D)
            D = D.scale(support_function(F, D).cartier_index)
        assert nefness(D, m).nef
        assert _freeness_witness_ok(F, D)
        checked += 1
    assert checked == 30
