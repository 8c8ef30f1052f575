"""Local fan certification against the whole-fan oracles.

`validate_fan` proves full-dimensional simplicial fans by the triangulation
criterion, `contract` certifies a flipping target by the supporting divisor
of its ray, `common_refinement` intersects only unshared cones and
`_covers_preimages` cuts no cone under an onto map.  Each is checked here
against the routine it replaced (`fan_oracle`, `covering_oracle`) on a
slice of the acceptance corpus and on mutated fans; so is the criterion
itself, whose boundary and one-point tests are now `fan._on_boundary` and
Cramer's rule on its own determinants (`fan_oracle.triangulates`, and
`fan_oracle.triangulates_by_membership` for the one-point test by
`cone_contains`), and whose owners are read off `walls` and, given a base,
its changed cells handed over by `validate_fan`
(`fan_oracle.triangulates_by_facet_map`).  `walls` lists the facet
pairs in the facet map's order.  A guard makes sure the MMP
never falls back to the pairwise check on the fans the fast paths cover,
nor builds the whole Mori cone.  Another guard counts the projectivity LPs of
`run_mmp`: one per run, as every later model is certified by the ample
class its step carries, and a corrupted carried class falls back to the LP.
"""

import collections
import itertools
import random

import pytest

import covering_oracle
import fan_oracle
import mmp_oracle
import replay_oracle
from conftest import (affine_instances, clear_package_caches,
                      termination_instances)
from toricmmp import corpus
from toricmmp import curves as cv
from toricmmp import exactlin as xl
from toricmmp import fan as fn
from toricmmp import mmp
from toricmmp.curves import contracted_walls
from toricmmp.divisor import InvariantDivisor
from toricmmp.errors import InvariantBreach
from toricmmp.fan import Fan, FanMap
from test_acceptance import _check_flip_steps

# every sixth instance of the corpus is a complete 3-fold; the slice holds
# four of them, the first flips and every kind of instance
SLICE = range(24)


@pytest.fixture(scope="module")
def instances():
    return termination_instances(seed=20240801, count=100)


def _full_dim_simplicial(F):
    return F.rank > 0 and bool(F.max_cones) and fn._full_dim_simplicial(F)


def mutate(rng, F):
    """A random small change of F, often leaving it no fan: a cone dropped,
    added or widened, two cones merged, a ray of a cone swapped or a ray
    vector moved."""
    cones = list(F.max_cones)
    rays = list(F.rays)
    kind = rng.randrange(6)
    if kind == 0 and len(cones) > 1:
        cones.pop(rng.randrange(len(cones)))
    elif kind == 1:
        cones.append(tuple(rng.sample(range(len(rays)), min(F.rank, len(rays)))))
    elif kind == 2:
        k = rng.randrange(len(cones))
        cones[k] = tuple(set(cones[k]) | {rng.randrange(len(rays))})
    elif kind == 3 and len(cones) > 1:
        a, b = rng.sample(range(len(cones)), 2)
        cones[a] = tuple(set(cones[a]) | set(cones[b]))
        cones.pop(b)
    elif kind == 4:
        k = rng.randrange(len(cones))
        c = list(cones[k])
        if c:
            c[rng.randrange(len(c))] = rng.randrange(len(rays))
        cones[k] = tuple(c)
    else:
        i = rng.randrange(len(rays))
        v = list(rays[i])
        v[rng.randrange(F.rank)] += rng.choice((-1, 1))
        rays[i] = tuple(v)
    return Fan(F.rank, tuple(rays), tuple(cones))


def _flip_contractions(instances, indices):
    """(map, ContractionResult) of every flipping step of the MMP runs."""
    out = []
    for k in indices:
        m, D = instances[k]
        trace = mmp.run_mmp(m, D)
        for cur, cls in mmp_oracle.step_maps(m, trace):
            wall_set = [w for w, c in contracted_walls(cur) if c == cls]
            res = mmp.contract(cur, wall_set)
            if res.kind == "flipping":
                out.append((cur, res, trace))
    return out


# -- the triangulation criterion ----------------------------------------------

# five rays winding twice around the origin: every facet is paired with
# opposite orientation, but every point is covered twice
PENTAGRAM = Fan(2, ((1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)),
                ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
# a fold: the cones at ray 2 lie on the same side of it, the first cone's
# ray sum is covered once, and the sector between rays 3 and 2 three times
FOLD = Fan(2, ((1, 0), (-1, 2), (-1, -2), (-3, -1), (1, -2)),
           ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
# two cones overlapping between (1, 2) and (0, 1): no facet is shared, the
# ray sum (1, 1) of the first lies outside the second, but the facet (0, 1)
# lies inside the upper half-plane C
OVERLAP = Fan(2, ((1, 0), (0, 1), (1, 2), (-1, 0)), ((0, 1), (2, 3)))
# a valid fan whose support (three quarters of the plane) is not convex
THREE_QUARTERS = Fan(2, ((1, 0), (0, 1), (-1, 0), (0, -1)),
                     ((0, 1), (1, 2), (2, 3)))


def test_criterion_rejects_double_cover_fold_and_inner_facet():
    for F in (PENTAGRAM, FOLD, OVERLAP):
        assert fn._ray_violations(F) == []
        assert not fn._triangulates(F)
        bad = fn.validate_fan(F)
        assert bad and bad == fan_oracle.validate_fan(F)


def test_criterion_leaves_nonconvex_support_to_the_pairwise_check():
    assert not fn._triangulates(THREE_QUARTERS)
    assert fn.validate_fan(THREE_QUARTERS) == []


def test_criterion_proves_valid_fans(p2, f1, quadric_tri_a, quadric_tri_b,
                                     orthant2, blowup2):
    # the rank-1 fans' facet is empty: one ray on the boundary, or two
    # rays on opposite sides of the origin
    for F in (p2, f1, quadric_tri_a, quadric_tri_b, orthant2, blowup2,
              Fan(1, ((1,),), ((0,),)),
              Fan(1, ((1,), (-1,)), ((0,), (1,)))):
        assert fn._triangulates(F)
    # not full-dimensional or not simplicial: undecided
    assert not fn._triangulates(Fan(2, ((1, 0),), ((0,),)))
    assert not fn._triangulates(
        Fan(3, ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)), ((0, 1, 2, 3),)))


def test_cone_listed_twice_counts_once(p2):
    F = Fan(2, p2.rays, ((0, 1), (1, 2), (0, 2), (1, 0)))
    assert F.max_cones == ((0, 1), (1, 2), (0, 2))
    assert fn.validate_fan(F) == []


@pytest.fixture(scope="module")
def slice_fans(instances):
    """Every fan the slice's MMP runs reach, in the order of their steps,
    and six mutations of each.  (These are the fans `run_mmp` passed to
    `validate_fan` before `fan.swap_cells` certified a step's fan by the
    cells it changed; the fano quotients still go through it.)"""
    seen = {}
    for k in SLICE:
        for step in mmp.run_mmp(*instances[k]).steps:
            seen.setdefault(step.fan_after, None)
    rng = random.Random(7)
    return list(seen) + [mutate(rng, F) for F in seen if F.rays
                         for _ in range(6)]


def test_validate_matches_pairwise_oracle(slice_fans):
    fast = invalid = 0
    for F in slice_fans:
        got = fn.validate_fan(F)
        assert got == fan_oracle.validate_fan(F), F
        invalid += bool(got)
        fast += not fn._ray_violations(F) and fn._triangulates(F)
    # 218 fans: 82 invalid, 89 proved by the criterion
    assert invalid >= 60 and fast >= 60


def test_criterion_matches_its_oracle(slice_fans):
    # the criterion with `_on_boundary` and its determinants against its
    # own hull and Cramer's rule, against its one-point test by
    # `cone_contains`, and against its owners off its own facet map: the
    # fans above, 300 seeded complete fans and affine chains, each of the
    # last two with a mutation
    rng = random.Random(16)
    fans = list(slice_fans) + [PENTAGRAM, FOLD, OVERLAP, THREE_QUARTERS]
    for s in range(300):
        rank = 2 + s % 3
        F = corpus.random_complete_fan(random.Random(s), rank, rank + 2 + s % 5)
        fans += [F, mutate(rng, F)]
    for m, _ in affine_instances(seed=16, count=60):
        fans += [m.source, mutate(rng, m.source)]
    mismatches = []
    verdicts = {True: 0, False: 0}  # fans with an unpaired facet, by verdict
    proved = 0
    for F in fans:
        if fn._ray_violations(F):
            continue
        got = fn._triangulates(F)
        if got != fan_oracle.triangulates(F) \
                or got != fan_oracle.triangulates_by_membership(F) \
                or got != fan_oracle.triangulates_by_facet_map(F):
            mismatches.append(F)
        proved += got
        if _full_dim_simplicial(F) and any(
                len(o) == 1 for o in fn._facet_map(F).values()):
            verdicts[got] += 1
    assert mismatches == []
    assert (len(fans), proved, verdicts) == (942, 569, {True: 105, False: 150})


def test_criterion_matches_membership_oracle_on_generated_fans(monkeypatch):
    # every fan the generator of corpus seeds 20240801 and 0-2 certifies:
    # the one-point test by the criterion's determinants against
    # `cone_contains`
    fans = []
    orig = fn.validate_fan
    monkeypatch.setattr(fn, "validate_fan",
                        lambda F, base=None: fans.append(F) or orig(F, base))
    for seed in (20240801, 0, 1, 2):
        corpus.termination_instances(seed, 100)
    monkeypatch.undo()
    proved = [F for F in fans if fn._triangulates(F)]
    assert [F for F in fans if fn._triangulates(F)
            != fan_oracle.triangulates_by_membership(F)] == []
    # 272 fans, 68 a seed, every one proved by the criterion
    assert len(fans) == len(proved) == 272


def test_walls_keep_facet_map_order(corpus_fans, replay_refinements):
    # `walls` lists the two-owner facets in the order of the facet map, so
    # the projectivity LP's rows and its witness do not change
    rng = random.Random(28)
    fans = [F for F in corpus_fans if _full_dim_simplicial(F)]
    for F1, F2 in replay_refinements:
        fans += [F1, F2, fn.common_refinement(F1, F2)[0]]
    for s in range(100):
        rank = 2 + s % 3
        fans.append(corpus.random_complete_fan(random.Random(s), rank,
                                               rank + 2 + s % 5))
    fans += [mutate(rng, F) for F in list(fans)]
    checked = 0
    for F in fans:
        owned = fn._facet_map(F)
        if any(len(owners) > 2 for owners in owned.values()):
            continue
        assert fn.walls(F) == tuple(
            fn.Wall(facet, *(F.max_cones[k] for k in owners))
            for facet, owners in owned.items() if len(owners) == 2), F
        checked += 1
    assert checked >= 500


# -- the flipping target --------------------------------------------------------

def test_flipping_target_matches_validate_fan(instances):
    flips = _flip_contractions(instances, SLICE)
    assert len(flips) >= 3
    rng = random.Random(11)
    verdicts = set()
    corrupted = 0
    for cur, res, _ in flips:
        Z, cls, L = res.target, res.relation, res.supporting
        assert fan_oracle.validate_fan(Z) == []
        assert fan_oracle.supports(cur, cls, L, Z)
        # move one coefficient of L so that another class pairs to 0
        for other in cv.mori_classes(cur)[0]:
            if other != cls:
                i = next(i for i, a in enumerate(other.coeffs) if a)
                coeffs = list(L.coeffs)
                coeffs[i] -= other.pair(L) / other.coeffs[i]
                bad = InvariantDivisor(coeffs)
                assert other.pair(bad) == 0
                assert not fan_oracle.supports(cur, cls, bad, Z)
                corrupted += 1
                break
        # widen a merged cone by a ray of a cone next to it
        for rayset in res.merged_cones:
            near = sorted({i for c in Z.max_cones if set(c) & set(rayset)
                           for i in c} - set(rayset))
            for extra in rng.sample(near, min(2, len(near))):
                wide = tuple(sorted(rayset + (extra,)))
                cones = [wide if c == rayset else c for c in Z.max_cones]
                W = Fan(Z.rank, Z.rays, tuple(sorted(set(cones))))
                if wide not in W.max_cones:
                    continue
                try:
                    fan_oracle.certify_local(W, [wide], "widened target")
                    ok = True
                except InvariantBreach:
                    ok = False
                assert ok == (fan_oracle.validate_fan(W) == []), W
                # the widened cone is no linearity domain of L
                assert not fan_oracle.supports(cur, cls, L, W)
                verdicts.add(ok)
        # put a cell of the source back next to the merged cone holding it
        cell = next(c for c in cur.source.max_cones
                    if set(c) <= set(res.merged_cones[0]))
        W = Fan(Z.rank, Z.rays, Z.max_cones + (cell,))
        with pytest.raises(InvariantBreach, match="contained"):
            fan_oracle.certify_local(W, res.merged_cones, "target with a cell")
        assert not fan_oracle.supports(cur, cls, L, W)
    assert False in verdicts and corrupted >= 3


def test_supporting_divisor_matches_oracles(instances):
    # every step of the slice: L exists exactly for ne_cone's extremal
    # classes, and on a flip L and certify_local both accept the target
    kinds = []
    for k in SLICE:
        m, D = instances[k]
        for cur, cls in mmp_oracle.step_maps(m, mmp.run_mmp(m, D)):
            kinds.append(fan_oracle.check_supporting(cur, cls).kind)
    assert kinds.count("flipping") >= 3 and "divisorial" in kinds


# -- common refinement ----------------------------------------------------------

def _refinement_calls(instances, indices):
    """The (X, X') pairs `verify_negativity` refines when every flipping step
    of the slice's MMP runs is re-derived, as the acceptance gate does."""
    seen = []
    orig = mmp.common_refinement

    def record(F1, F2):
        seen.append((F1, F2))
        return orig(F1, F2)

    try:
        mmp.common_refinement = record
        for k in indices:
            m, D = instances[k]
            _check_flip_steps(m, D, mmp.run_mmp(m, D))
    finally:
        mmp.common_refinement = orig
    return seen


def test_common_refinement_matches_full_table(instances, monkeypatch):
    pairs = _refinement_calls(instances, SLICE)
    assert len(pairs) >= 3
    for F1, F2 in pairs:
        assert fn.common_refinement(F1, F2) == fan_oracle.common_refinement(F1, F2)
    # cones the two fans share are not intersected; a fan refined with
    # itself intersects nothing
    calls = []
    orig = fn.cone_intersection
    monkeypatch.setattr(fn, "cone_intersection",
                        lambda a, b: calls.append(1) or orig(a, b))
    for F1, F2 in pairs:
        calls.clear()
        fn.common_refinement(F1, F2)
        shared = ({frozenset(F1.cone_gens(c)) for c in F1.max_cones}
                  & {frozenset(F2.cone_gens(c)) for c in F2.max_cones})
        assert len(calls) == ((len(F1.max_cones) - len(shared))
                              * (len(F2.max_cones) - len(shared)))
    F = instances[3][0].source
    calls.clear()
    R, _, _ = fn.common_refinement(F, F)
    assert calls == [] and R.canonical() == F.canonical()
    # a shared cone is a piece with its generators sorted, so the rays of
    # the refinement come in the same order as from the whole table
    G = Fan(2, ((1, 1), (1, 0), (0, 1)), ((0, 1), (0, 2)))
    H = Fan(2, G.rays + ((1, 2),), ((0, 1), (0, 3), (2, 3)))
    for F1, F2 in ((G, G), (G, H), (H, G)):
        assert fn.common_refinement(F1, F2) == \
            fan_oracle.common_refinement(F1, F2)


# -- intersections and the convexity test against their double descriptions ---

CROSS_SEEDS = (20240801, 0, 1, 2)


@pytest.fixture(scope="module")
def corpus_fans(instances):
    """The sources and targets of the corpus's starting maps, seeds
    `CROSS_SEEDS`, each once, in first-seen order."""
    fans = {}
    for seed in CROSS_SEEDS:
        insts = instances if seed == 20240801 else \
            termination_instances(seed=seed, count=100)
        for m, _ in insts:
            fans.setdefault(m.source)
            fans.setdefault(m.target)
    return list(fans)


@pytest.fixture(scope="module")
def replay_refinements(instances):
    """The (X, X') pairs the flip replay refines, over the whole corpus."""
    return _refinement_calls(instances, range(100))


def test_criterion_given_a_base_matches_its_oracle(replay_refinements):
    # each flip replay's refinement Z and six mutations of it, given either
    # fan Z refines as the base: the criterion handed the changed cells by
    # `validate_fan` decides as the oracle that re-derives them from the
    # base (`replay_oracle.cross_checked`), and the verdict lists equal the
    # whole check's
    rng = random.Random(29)
    proved = 0
    with replay_oracle.cross_checked() as (calls, mismatches):
        for X, Xp in replay_refinements:
            Z = fn.common_refinement(X, Xp)[0]
            for M in [Z] + [mutate(rng, Z) for _ in range(6)]:
                for base in (X, Xp):
                    proved += not fn._ray_violations(M) and \
                        fan_oracle.triangulates_by_facet_map(M, base)
                    fn.validate_fan(M, base)
    assert mismatches == []
    # 8 refinements: 112 fans with a base, 110 passing the ray checks, 28
    # proved; each refinement certifies itself once more
    assert (calls["certificate"], calls["criterion"], proved) == (120, 118, 28)


def test_cone_intersection_matches_both_sided_oracle(corpus_fans,
                                                     replay_refinements):
    # dropping the first cone's normals that the second cone's generators
    # satisfy against one double description over both cones' normals:
    # every ordered pair of maximal cones of each corpus fan, and every
    # ordered pair of cones a flip replay's refinement intersects
    pairs = [(F.cone_gens(a), F.cone_gens(b)) for F in corpus_fans
             for a, b in itertools.permutations(F.max_cones, 2)]
    for F1, F2 in replay_refinements:
        for a in F1.max_cones:
            for b in F2.max_cones:
                ga, gb = F1.cone_gens(a), F2.cone_gens(b)
                pairs += [(ga, gb), (gb, ga)]
    mismatches, dropped, meets = [], 0, set()
    for ga, gb in pairs:
        got = fn.cone_intersection(ga, gb)
        if got != fan_oracle.cone_intersection(ga, gb):
            mismatches.append((ga, gb))
        dropped += any(all(xl.dot(n, g) >= 0 for g in gb)
                       for n in fn.cone_facets(ga))
        meets.add(fn.cone_dim(got) if got else 0)
    assert mismatches == []
    # 5,990 pairs from 369 corpus fans and 918 from the 8 replayed flips;
    # half of them drop a normal, and the intersections have every
    # dimension from 0 to 3
    assert (len(pairs), dropped, meets) == (6908, 3488, {0, 1, 2, 3})


def _embedded(F, a):
    """F in the hyperplane x_{n+1} = <a, x> of the lattice of rank n + 1:
    a fan whose support is not full-dimensional."""
    return Fan(F.rank + 1, tuple(r + (xl.dot(a, r),) for r in F.rays),
               F.max_cones)


def test_support_convex_matches_hull_oracle(corpus_fans, replay_refinements):
    # the boundary test on the unpaired facets against every facet normal
    # of the hull and against the unpaired facets' one-sided normals, both
    # handed to the covering test: the corpus fans, each with one cone
    # dropped, the replay's fans and refinements, all of these in a
    # hyperplane of the next rank (a support that is not full-dimensional),
    # and mutations
    rng = random.Random(25)
    base = list(corpus_fans)
    for F in corpus_fans:
        if len(F.max_cones) > 1:
            k = rng.randrange(len(F.max_cones))
            base.append(Fan(F.rank, F.rays,
                            F.max_cones[:k] + F.max_cones[k + 1:]))
    for F1, F2 in replay_refinements:
        base += [F1, F2, fn.common_refinement(F1, F2)[0]]
    fans = base + [_embedded(F, tuple(rng.randint(-2, 2) for _ in range(F.rank)))
                   for F in base]
    fans += [mutate(rng, F) for F in base if F.rays]
    mismatches, verdicts = [], collections.Counter()
    for F in fans:
        got = F.support_convex()
        if got != covering_oracle.hull_support_convex(F) \
                or got != covering_oracle.paired_support_convex(F):
            mismatches.append(F)
        if F.rays and any(len(o) == 1 for o in fn._facet_map(F).values()):
            verdicts[got, xl.rank(F.rays) == F.rank] += 1
    assert mismatches == []
    # 2,108 fans; both verdicts on fans with an unpaired facet, by
    # (verdict, support full-dimensional)
    assert len(fans) == 2108
    assert verdicts == {(True, True): 106, (False, True): 864,
                        (True, False): 72, (False, False): 338}


# -- properness -------------------------------------------------------------------

def test_is_proper_matches_covering_oracle(instances, blowup_map, orthant2,
                                           a1xp1_over_a1):
    maps = [blowup_map, a1xp1_over_a1,
            FanMap(((1, 0), (0, 1)), Fan(2, ((1, 0),), ((0,),)), orthant2)]
    for k in SLICE[:12]:
        m = instances[k][0]
        maps.append(m)
        # a source with one cone missing is no longer proper over the base
        if len(m.source.max_cones) > 1:
            maps.append(FanMap(m.matrix, Fan(m.source.rank, m.source.rays,
                                             m.source.max_cones[1:]), m.target))
    for cur, res, _ in _flip_contractions(instances, SLICE):
        maps.append(res.contraction)
        maps.append(res.base_map)
    verdicts = []
    for m in maps:
        got = fn.is_toric_morphism(m) and fn._covers_preimages(m)
        assert got == covering_oracle.is_proper(m), m
        verdicts.append(got)
    assert set(verdicts) == {True, False}


def test_is_proper_cuts_under_a_map_that_is_not_onto():
    # x -> (x1, 0) from the plane onto a line of the Hirzebruch fan.  The
    # preimage of cone((0, 1), (-1, 1)) is the x2-axis; no source cone maps
    # into that cone, but their cuts cover the axis, so the map is proper
    plane = Fan(2, ((1, 0), (0, 1), (-1, 0), (0, -1)),
                ((0, 1), (1, 2), (2, 3), (0, 3)))
    hirzebruch = Fan(2, ((1, 0), (0, 1), (-1, 1), (0, -1)),
                     ((0, 1), (1, 2), (2, 3), (0, 3)))
    m = FanMap(((1, 0), (0, 0)), plane, hirzebruch)
    assert fn.is_toric_morphism(m) and fn._covers_preimages(m)
    assert covering_oracle.is_proper(m)
    half = FanMap(m.matrix, Fan(2, plane.rays[:3], ((0, 1), (1, 2))), hirzebruch)
    assert fn.is_toric_morphism(half) and not fn._covers_preimages(half)
    assert not covering_oracle.is_proper(half)


# -- no silent fallback to the pairwise check -------------------------------------

def test_no_pairwise_check_on_simplicial_fans_or_flipping_targets(
        instances, monkeypatch):
    violations, intersections, ne_calls = [], [], []
    orig = fn._cone_violations
    orig_inter = fn.cone_intersection
    orig_ne = cv.ne_cone

    def spy(F, cones, pairs):
        violations.append(F)
        return orig(F, cones, pairs)

    def spy_inter(gens_a, gens_b):
        intersections.append((gens_a, gens_b))
        return orig_inter(gens_a, gens_b)

    def spy_ne(m):
        ne_calls.append(m)
        return orig_ne(m)

    monkeypatch.setattr(fn, "_cone_violations", spy)
    monkeypatch.setattr(fn, "cone_intersection", spy_inter)
    monkeypatch.setattr(cv, "ne_cone", spy_ne)
    monkeypatch.setattr(mmp, "ne_cone", spy_ne, raising=False)
    targets = {}
    orig_contract = mmp.contract

    def record(m, wall_set):
        res = orig_contract(m, wall_set)
        if res.kind == "flipping":
            targets[res.target] = res
        return res

    monkeypatch.setattr(mmp, "contract", record)
    traces = [(instances[k], mmp.run_mmp(*instances[k])) for k in SLICE]
    # run_mmp intersects no cones and does not build the Mori cone
    assert intersections == [] and ne_calls == []
    for (m, D), trace in traces:
        _check_flip_steps(m, D, trace)
    # nor does the flip replay touch a flipping target: no pairwise check
    # of it and no intersection with one of its merged cones
    merged = {frozenset(Z.cone_gens(r))
              for Z, res in targets.items() for r in res.merged_cones}
    for F in violations:
        assert not _full_dim_simplicial(F), F
        assert F not in targets, F
    for pair in intersections:
        assert not merged & {frozenset(g) for g in pair}, pair
    # the guard is not vacuous: flipping targets were built, each with its
    # supporting divisor
    assert len(targets) >= 3
    assert all(res.supporting is not None for res in targets.values())


# -- the carried ample certificate --------------------------------------------------

def _projectivity_lps(instances, monkeypatch, carried=None):
    """Run the slice's MMPs, each with fresh morphism caches, counting per
    run the projectivity LPs (calls into `fan.positive_on` with no zero
    rows; a supporting divisor's LP, `MorphismFlags.supporting`, passes its
    class as one and is not counted) and the fallbacks (a step's carried
    certificate that
    `mori_classes` did not return).  `carried` replaces `mmp._carried`.
    Returns (traces, LPs per run, fallbacks per run, certificates
    carried)."""
    lps, fallbacks, seen = [0], [0], [0]
    orig_lp, orig_classes = fn.positive_on, mmp.mori_classes

    def count_lp(relations, nrays, zero=()):
        lps[0] += not zero
        return orig_lp(relations, nrays, zero)

    def classes(m, ample=None):
        out = orig_classes(m, ample)
        if ample is not None:
            seen[0] += 1
            fallbacks[0] += out[2] != ample
        return out

    monkeypatch.setattr(fn, "positive_on", count_lp)
    monkeypatch.setattr(mmp, "mori_classes", classes)
    if carried is not None:
        monkeypatch.setattr(mmp, "_carried", carried)
    traces, lp_counts, fallback_counts = [], [], []
    for k in SLICE:
        # a map met in an earlier run would answer from the cache
        fn.check_morphism.cache_clear()
        cv.contracted_walls.cache_clear()
        lps[0] = fallbacks[0] = 0
        traces.append(mmp.run_mmp(*instances[k]))
        lp_counts.append(lps[0])
        fallback_counts.append(fallbacks[0])
    return traces, lp_counts, fallback_counts, seen[0]


def test_run_mmp_solves_one_projectivity_lp(instances, monkeypatch):
    # only the first map's projectivity is an LP; each step's model gets a
    # carried certificate that the dot-product check accepts
    traces, lps, fallbacks, carried = _projectivity_lps(instances, monkeypatch)
    assert lps == [1] * len(SLICE)
    assert fallbacks == [0] * len(SLICE)
    assert carried >= 20
    assert sum(s.kind == "flipping" for t in traces for s in t.steps) >= 3


def test_carried_certificates_need_no_fallback(monkeypatch):
    # a divisorial step whose class the ratio test certified carries the
    # pushforward of its supporting divisor L, which descends to an ample
    # class of the target; every carried certificate on these seeds passes
    # the dot-product check (pushing the source's ample class forward
    # failed on 1 of the 282 divisorial steps of seeds 0-2)
    carried, fallbacks = [], []
    orig = mmp.mori_classes

    def classes(m, ample=None):
        out = orig(m, ample)
        if ample is not None:
            carried.append(m)
            if out[2] != ample:
                fallbacks.append(m)
        return out

    instances = [inst for seed in (20240801, 0, 1, 2)
                 for inst in termination_instances(seed=seed, count=100)]
    clear_package_caches()
    monkeypatch.setattr(mmp, "mori_classes", classes)
    for m, D in instances:
        mmp.run_mmp(m, D)
    assert fallbacks == [] and len(carried) >= 400


def _corrupted_ray_certificate(kind, c, L, others):
    """L moved off zero on its class c (L + c), or made zero on the first
    other class c2 too: (u . c2) L - (L . c2) u, with u = c_j e_i - c_i e_j
    zero on c and not on c2.  None when there is no c2."""
    if kind == "off zero":
        return tuple(x + a for x, a in zip(L, c))
    if not others:
        return None
    c2 = others[0]
    i, j = next((i, j) for i, j in itertools.combinations(range(len(c)), 2)
                if c2[i] * c[j] != c2[j] * c[i])
    u = [0] * len(c)
    u[i], u[j] = c[j], -c[i]
    a, b = xl.dot(u, c2), xl.dot(L, c2)
    return tuple(a * x - b * y for x, y in zip(L, u))


@pytest.mark.parametrize("kind", ["off zero", "second zero"])
def test_corrupted_ray_certificate_is_refused(kind, instances, monkeypatch):
    # `run_mmp` hands `certify_ray` a corrupted ratio-test certificate:
    # it is refused and nothing is kept, the LPs decide as they did before
    # the ratio test (the ray is extremal), the traces are the uncorrupted
    # ones, and every step's contraction equals the LP oracle's
    want = [mmp.run_mmp(*instances[k]) for k in SLICE]
    orig = fn.MorphismFlags.certify_ray
    refused = []

    def certify(flags, c, L):
        bad = _corrupted_ray_certificate(kind, c.coeffs, L, flags._others(c))
        if bad is None:  # c is the map's one class
            return orig(flags, c, L)
        assert not orig(flags, c, bad)
        assert not any(key[1] == c for key in flags._verdicts)
        refused.append((flags, c))
        return False

    got = []
    for k in SLICE:
        # a map met in an earlier run would answer from the cache
        fn.check_morphism.cache_clear()
        cv.contracted_walls.cache_clear()
        monkeypatch.setattr(fn.MorphismFlags, "certify_ray", certify)
        got.append(mmp.run_mmp(*instances[k]))
        monkeypatch.undo()
        for cur, cls in mmp_oracle.step_maps(instances[k][0], got[-1]):
            mmp_oracle.check_contraction(cur, cls)
    assert got == want
    assert len(refused) >= 30
    assert all(flags.is_extreme(c) for flags, c in refused)


def test_corrupted_certificate_falls_back_to_the_lp(instances, monkeypatch):
    # a carried certificate negative on every class fails the check: the LP
    # decides instead, once per step whose model has a class, and the
    # traces are those of the uncorrupted run
    want = [mmp.run_mmp(*instances[k]) for k in SLICE]
    orig = mmp._carried

    def corrupted(res, ample, new_map, new_D):
        return tuple(-a - 1 for a in orig(res, ample, new_map, new_D))

    got, lps, fallbacks, carried = _projectivity_lps(instances, monkeypatch,
                                                     corrupted)
    assert got == want
    assert lps == [1 + f for f in fallbacks]
    # 29 of 30 carried: a model with no contracted class accepts any class
    assert sum(fallbacks) >= carried - 1 and carried >= 20
