import itertools
from collections import Counter
from fractions import Fraction

import pytest

import lp_oracle
import mmp_oracle
from conftest import termination_instances
from covering_oracle import cone_covered_by_gens
from toricmmp import curves as cv
from toricmmp import divisor as dv
from toricmmp import fan as fn
from toricmmp import mmp
from toricmmp.curves import (CurveClass, contracted_walls, ne_cone,
                             nefness, walls)
from toricmmp.divisor import InvariantDivisor
from toricmmp.errors import InputError, InvariantBreach, PreconditionError
from toricmmp.fan import (Fan, FanMap, cone_dim, cone_eq, cone_intersection,
                          identity_map, map_to_point)
from toricmmp.mmp import contract, contract_face, flip, run_mmp, verify_negativity


def _wall_set_for(m, cls):
    return [w for w, c in contracted_walls(m) if c.coeffs == cls]


def test_contract_fano_p2(p2):
    m = map_to_point(p2)
    res = contract(m, _wall_set_for(m, (1, 1, 1)))
    assert res.kind == "fano"
    assert res.target.rank == 0


def test_contract_divisorial_blowdown(blowup2, orthant2, blowup_map):
    m = blowup_map
    res = contract(m, _wall_set_for(m, (1, 1, -1)))
    assert res.kind == "divisorial"
    assert res.removed_ray == (1, 1)
    assert res.target.canonical() == orthant2.canonical()


def test_contract_fano_fiber_f1(f1):
    m = map_to_point(f1)
    res = contract(m, _wall_set_for(m, (0, 1, 0, 1)))
    assert res.kind == "fano"
    # base is P^1
    assert res.target.rank == 1
    assert sorted(res.target.rays) == [(-1,), (1,)]


def test_contract_divisorial_f1(f1, p2):
    m = map_to_point(f1)
    res = contract(m, _wall_set_for(m, (1, -1, 1, 0)))
    assert res.kind == "divisorial"
    assert res.removed_ray == (0, 1)
    # the blow-down of the (0,1) ray is again a projective plane
    assert set(res.target.rays) == {(1, 0), (-1, 1), (0, -1)}
    assert len(res.target.max_cones) == 3


def test_contract_flipping_quadric(quadric_tri_a, quadric_cone_fan, quadric_map_a):
    wall_set = [w for w, _ in contracted_walls(quadric_map_a)]
    res = contract(quadric_map_a, wall_set)
    assert res.kind == "flipping"
    assert res.target.canonical() == quadric_cone_fan.canonical()


def test_contract_matches_lp_oracle(quadric_map_a, f1, p2, blowup_map,
                                    corpus65_map):
    # every extremal ray of each start map and every MMP step of a slice of
    # the acceptance corpus, plus the desk examples
    kinds = []
    instances = termination_instances(seed=20240801, count=24)
    starts = [quadric_map_a, map_to_point(f1), map_to_point(p2), blowup_map,
              corpus65_map] + [m for m, _ in instances]
    for m in starts:
        for cls in ne_cone(m).extremal_rays:
            kinds.append(mmp_oracle.check_contraction(m, cls))
    for m, D in instances:
        for cur, cls in mmp_oracle.step_maps(m, run_mmp(m, D)):
            kinds.append(mmp_oracle.check_contraction(cur, cls))
    assert set(kinds) == {"fano", "divisorial", "flipping"}


def test_contract_requires_one_relation(f1):
    m = map_to_point(f1)
    with pytest.raises(PreconditionError):
        contract(m, [w for w, _ in contracted_walls(m)])
    with pytest.raises(PreconditionError):
        contract(m, [])
    # the identity contracts no wall of F1
    with pytest.raises(PreconditionError):
        contract(identity_map(f1, f1), [walls(f1)[0]])
    # a divisorial ray with two walls: either wall alone is a caller error
    m, D = termination_instances(seed=20240801, count=18)[17]
    cls = run_mmp(m, D).steps[0].chosen_class
    wall_set = [w for w, c in contracted_walls(m) if c == cls]
    assert len(wall_set) == 2
    assert contract(m, wall_set).kind == "divisorial"
    for w in wall_set:
        with pytest.raises(PreconditionError, match="misses a contracted wall"):
            contract(m, [w])


def _kind_of_signs(cls):
    """The kind Reid's signs give: no, one or several negative a_i."""
    negatives = sum(a < 0 for a in cls.coeffs)
    return ("fano", "divisorial", "flipping")[min(negatives, 2)]


def _contract_every_class(m, tally):
    """`contract` on the walls of every contracted class of m: an extremal
    class (by the `Fraction` LP oracle) gives the kind its signs give, a
    non-extremal one raises PreconditionError, never InvariantBreach and
    never a result."""
    pairs = contracted_walls(m)
    classes = sorted({c for _, c in pairs}, key=lambda c: c.coeffs)
    for c in classes:
        wall_set = [w for w, d in pairs if d == c]
        others = [d.coeffs for d in classes if d != c]
        if lp_oracle.solve_nonneg(others, c.coeffs) is None:
            assert contract(m, wall_set).kind == _kind_of_signs(c), (m, c)
            tally[_kind_of_signs(c)] += 1
        else:
            try:
                res = contract(m, wall_set)
            except InvariantBreach as err:
                pytest.fail(f"non-extremal {c} raised InvariantBreach: {err}")
            except PreconditionError:
                tally["refused " + _kind_of_signs(c)] += 1
            else:
                pytest.fail(f"non-extremal {c} gave a {res.kind} contraction")


def test_contract_refuses_non_extremal_classes(f1):
    tally = Counter()
    for m, D in termination_instances(seed=20240801, count=40):
        trace = run_mmp(m, D)
        maps = [cur for cur, _ in mmp_oracle.step_maps(m, trace)]
        if trace.outcome == "minimal":
            maps.append(trace.final_map)
        for cur in maps:
            _contract_every_class(cur, tally)
    assert {"fano", "divisorial", "flipping", "refused fano",
            "refused divisorial"} <= set(tally)
    # one small non-extremal class of each sign pattern: on F1 the section
    # at infinity (1, 0, 1, 1) is the fibre plus the (-1)-curve; a 3-fold
    # over the orthant and a complete 3-fold carry the other two
    orthant3 = Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 2),))
    over_orthant = FanMap(
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 2, 1), (2, 4, 3)),
            ((0, 1, 4), (0, 2, 4), (1, 3, 4), (2, 3, 4))), orthant3)
    complete = map_to_point(Fan(
        3, ((-4, -2, -3), (-4, 1, -2), (-3, -4, -4), (0, -3, 2), (0, 0, -1),
            (2, 2, 3)),
        ((0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4), (1, 3, 5), (1, 4, 5),
         (2, 3, 4), (3, 4, 5))))
    cases = ((map_to_point(f1), (1, 0, 1, 1), "fano"),
             (over_orthant, (2, 0, 1, 2, -1), "divisorial"),
             (complete, (0, 0, 6, -2, -1, 9), "flipping"))
    for m, cls, kind in cases:
        assert kind == _kind_of_signs(CurveClass(cls))
        with pytest.raises(mmp.NotExtremal):
            contract(m, _wall_set_for(m, cls))
        _contract_every_class(m, Counter())


def test_flip_quadric(quadric_map_a, quadric_tri_b):
    # D_{rho_0} is negative on the contracted class (-1,1,1,-1)
    D = InvariantDivisor((1, 0, 0, 0))
    wall_set = [w for w, _ in contracted_walls(quadric_map_a)]
    Xp, to_w, Dp = flip(quadric_map_a, wall_set, D)
    assert Xp.canonical() == quadric_tri_b.canonical()
    assert Dp.coeffs == D.coeffs
    # the class changes sign across the flip
    mp = FanMap(quadric_map_a.matrix, Xp, quadric_map_a.target)
    (w, c), = contracted_walls(mp)
    assert c.pair(Dp) > 0
    # doubling D gives the same flip
    Xp2, _, _ = flip(quadric_map_a, wall_set, D.scale(2))
    assert Xp2.canonical() == Xp.canonical()


def test_flip_wrong_sign(quadric_map_a):
    # D positive on the class is not a flipping divisor for this wall: a
    # caller's precondition, read off -D.c before any fan is built
    D = InvariantDivisor((0, 1, 0, 0))
    wall_set = [w for w, _ in contracted_walls(quadric_map_a)]
    with pytest.raises(PreconditionError, match="not negative"):
        flip(quadric_map_a, wall_set, D)


def test_flip_requires_flipping_contraction(blowup_map):
    m = blowup_map
    ws = _wall_set_for(m, (1, 1, -1))
    with pytest.raises(PreconditionError):
        flip(m, ws, InvariantDivisor((0, 0, 1)))


# -- test oracle: flips by exhaustive triangulation search ----------------------

def _triangulations(F: Fan, rayset):
    """All simplicial triangulations of cone(rayset) using exactly its own
    rays, as sorted tuples of cells."""
    gens = F.cone_gens(rayset)
    d = cone_dim(gens)
    cells = [sub for sub in itertools.combinations(rayset, d)
             if cone_dim(F.cone_gens(sub)) == d]
    results = []

    def compatible(c1, c2):
        g1, g2 = F.cone_gens(c1), F.cone_gens(c2)
        inter = cone_intersection(g1, g2)
        shared = F.cone_gens(tuple(sorted(set(c1) & set(c2))))
        return cone_eq(inter, shared) if (inter or shared) else True

    def search(chosen, rest):
        if cone_covered_by_gens(gens, [F.cone_gens(c) for c in chosen]):
            t = tuple(sorted(chosen))
            if t not in results:
                results.append(t)
            return
        if not rest:
            return
        head, tail = rest[0], rest[1:]
        if all(compatible(head, c) for c in chosen):
            search(chosen + [head], tail)
        search(chosen, tail)

    search([], cells)
    # keep only irredundant ones (every cell needed)
    return [t for t in results if not any(set(s) < set(t) for s in results)]


def _ample_on_merged(F, D, rayset):
    """Q-Cartier and strictly positive on every wall of F interior to
    cone(rayset), found by scanning all walls of F."""
    try:
        dv.support_function(F, D)
    except dv.NotQCartier:
        return False
    return all(CurveClass(fn.wall_coefficients(F, w.rays, w.side_a, w.side_b))
               .pair(D) > 0 for w in walls(F)
               if set(w.side_a) | set(w.side_b) <= set(rayset))


def _replace_cones(F, replacement):
    """F with the cells inside each merged cone `rayset` replaced by the
    cells `replacement[rayset]`."""
    kept = [c for c in F.max_cones
            if not any(set(c) <= set(r) for r in replacement)]
    cells = [c for t in replacement.values() for c in t]
    return Fan(F.rank, F.rays, tuple(sorted(set(kept + cells))))


def _ample_triangulation_flip(m, wall_set, D):
    """The flipped fan found by search: for each merged cone, the unique
    triangulation other than the original on which D is ample."""
    res = contract(m, wall_set)
    assert res.kind == "flipping"
    F = m.source
    replacement = {}
    for rayset in res.merged_cones:
        original = tuple(sorted(c for c in F.max_cones if set(c) <= set(rayset)))
        choices = [t for t in _triangulations(F, rayset) if t != original
                   and _ample_on_merged(_replace_cones(F, {rayset: t}),
                                        D, rayset)]
        assert len(choices) == 1, f"{len(choices)} ample triangulations"
        replacement[rayset] = choices[0]
    return _replace_cones(F, replacement)


# the divisor of corpus instance 65 on its pre-flip fan (`corpus65_map`)
CORPUS_65_DIVISOR = InvariantDivisor(
    (Fraction(-4), Fraction(-5, 2), Fraction(1), Fraction(3), Fraction(-1, 6)))


def test_flip_matches_triangulation_oracle(quadric_map_a, corpus65_map):
    cases = ((quadric_map_a, InvariantDivisor((1, 0, 0, 0)), (0, 3)),
             (corpus65_map, CORPUS_65_DIVISOR, (0, 3)))
    for m, D, wall_rays in cases:
        (cls,) = [c for w, c in contracted_walls(m) if w.rays == wall_rays]
        assert cls.pair(D) < 0
        wall_set = _wall_set_for(m, cls.coeffs)
        Xp, _, _ = flip(m, wall_set, D)
        assert Xp.canonical() != m.source.canonical()
        assert Xp.canonical() == _ample_triangulation_flip(m, wall_set, D).canonical()


def test_run_mmp_p2(p2):
    trace = run_mmp(map_to_point(p2), dv.canonical_divisor(p2))
    assert trace.outcome == "fano"
    assert [s.kind for s in trace.steps] == ["fano"]
    assert trace.steps[0].chosen_class.coeffs == (1, 1, 1)
    assert trace.steps[0].value == -3


def test_run_mmp_f1(f1):
    trace = run_mmp(map_to_point(f1), dv.canonical_divisor(f1))
    assert trace.outcome == "fano"
    kinds = [s.kind for s in trace.steps]
    assert kinds == ["divisorial", "fano"]
    s0, s1 = trace.steps
    assert s0.chosen_class.coeffs == (1, -1, 1, 0)
    assert s0.removed_ray == (0, 1)
    assert (s0.rho_before, s0.rho_after) == (2, 1)
    assert s1.chosen_class.coeffs == (1, 1, 1)
    assert s1.rho_before == 1


def test_run_mmp_nef_input(f1):
    K = dv.canonical_divisor(f1)
    trace = run_mmp(map_to_point(f1), K.scale(-1))
    assert trace.outcome == "minimal" and trace.steps == ()
    assert trace.final_fan.canonical() == f1.canonical()


def test_run_mmp_checks_the_divisor_after_the_scope(f1, quadric_cone_fan):
    # the scope errors of `mori_classes` come first, then a divisor of the
    # wrong length is bad input
    with pytest.raises(InputError):
        run_mmp(map_to_point(f1), InvariantDivisor((1, 2)))
    with pytest.raises(PreconditionError, match="simplicial"):
        run_mmp(map_to_point(quadric_cone_fan), InvariantDivisor((1, 2)))


def test_run_mmp_flip(quadric_map_a, quadric_tri_b):
    D = InvariantDivisor((1, 0, 0, 0))
    trace = run_mmp(quadric_map_a, D)
    assert trace.outcome == "minimal"
    assert [s.kind for s in trace.steps] == ["flipping"]
    s = trace.steps[0]
    assert s.value == -1 and s.flip_positive_value == 1
    assert s.rho_before == s.rho_after == 1
    assert trace.final_fan.canonical() == quadric_tri_b.canonical()


def test_run_mmp_contracts_once_per_step(monkeypatch):
    # the relation's signs pick the ray, so no fano contraction is built
    # and then dropped: `contract` is asked once per tested candidate, and
    # builds once per step; a candidate it refuses is not extremal
    calls = []

    def counted(m, ws):
        try:
            res = contract(m, ws)
        except mmp.NotExtremal:
            calls.append("refused")
            raise
        calls.append(res.kind)
        return res

    monkeypatch.setattr(mmp, "contract", counted)
    instances = termination_instances(0, 100)
    for i, n_steps, n_refused in ((0, 4, 0), (85, 1, 1)):
        calls.clear()
        trace = run_mmp(*instances[i])
        assert len(trace.steps) == n_steps
        assert calls.count("refused") == n_refused
        assert [k for k in calls if k != "refused"] == [
            s.kind for s in trace.steps]


def test_run_mmp_relative(a1xp1_over_a1):
    D = dv.canonical_divisor(a1xp1_over_a1.source)
    trace = run_mmp(a1xp1_over_a1, D)
    assert trace.outcome == "fano"
    assert [s.kind for s in trace.steps] == ["fano"]
    # the fano base is the affine line again
    assert trace.final_fan.rank == 1
    assert trace.final_map.target.rank == 1


def test_contract_face_identity(f1):
    K = dv.canonical_divisor(f1)
    Z, q, Dz = contract_face(map_to_point(f1), K.scale(-1))
    # -K is ample on F1: nothing contracts
    assert Z.canonical() == f1.canonical()
    assert Dz.coeffs == K.scale(-1).coeffs


def test_contract_face_quadric(quadric_tri_a, quadric_cone_fan, quadric_map_a):
    m = quadric_map_a
    # pull back a divisor that is zero on the flipping class
    D = InvariantDivisor((1, 1, 1, 1))
    assert nefness(D, m).nef
    Z, q, Dz = contract_face(m, D)
    assert Z.canonical() == quadric_cone_fan.canonical()
    assert Dz.coeffs == (1, 1, 1, 1)


def test_contract_face_semiample_on_f1(f1):
    # D trivial on the fiber class contracts the ruling: model is a line
    D = InvariantDivisor((1, 0, 0, 0))
    m = map_to_point(f1)
    fiber = (0, 1, 0, 1)
    assert sum(a * d for a, d in zip(fiber, D.coeffs)) == 0
    Z, q, Dz = contract_face(m, D)
    assert Z.rank == 1
    assert sorted(Z.rays) == [(-1,), (1,)]
    # the descended divisor keeps degree 1
    assert sum(Dz.coeffs) == 1


def test_contract_face_not_nef(f1):
    with pytest.raises(PreconditionError):
        contract_face(map_to_point(f1), dv.canonical_divisor(f1))


def test_verify_negativity_flip(quadric_tri_a, quadric_tri_b,
                                quadric_cone_fan, quadric_map_a):
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    f = FanMap(ident, quadric_tri_a, quadric_cone_fan)
    g = FanMap(ident, quadric_tri_b, quadric_cone_fan)
    D = InvariantDivisor((1, 0, 0, 0))
    # -D strictly nef on side A, D strictly nef on side B
    E = verify_negativity((quadric_tri_a, f, D), (quadric_tri_b, g, D))
    # E lives on the common refinement: 1 at the interior ray (1,1,2)
    nz = [(r, e) for r, e in zip(_refined_rays(quadric_tri_a, quadric_tri_b),
                                 E.coeffs) if e != 0]
    assert nz == [((1, 1, 2), Fraction(1))]


def _refined_rays(A, B):
    from toricmmp.fan import common_refinement
    Z, _, _ = common_refinement(A, B)
    return Z.rays


def test_verify_negativity_resolution(blowup2, orthant2, blowup_map):
    # mu: blow-up -> plane with D = E (so -D is strictly nef over the plane),
    # versus the identity side with 0
    D = InvariantDivisor((0, 0, 1))
    ident = FanMap(((1, 0), (0, 1)), orthant2, orthant2)
    E = verify_negativity((blowup2, blowup_map, D),
                          (orthant2, ident, dv.zero_divisor(orthant2)))
    assert E.is_effective() and not E.is_zero()
    nz = [(r, e) for r, e in zip(_refined_rays(blowup2, orthant2), E.coeffs)
          if e != 0]
    assert nz == [((1, 1), Fraction(1))]


def test_verify_negativity_rejects_wrong_sign(blowup2, orthant2, blowup_map):
    D = InvariantDivisor((0, 0, -1))  # -(-E) = E is not nef over the plane
    ident = FanMap(((1, 0), (0, 1)), orthant2, orthant2)
    with pytest.raises(PreconditionError):
        verify_negativity((blowup2, blowup_map, D),
                          (orthant2, ident, dv.zero_divisor(orthant2)))


def test_verify_negativity_pushforward_mismatch(blowup2, orthant2, blowup_map):
    D = InvariantDivisor((1, 0, -1))
    ident = FanMap(((1, 0), (0, 1)), orthant2, orthant2)
    with pytest.raises(PreconditionError):
        verify_negativity((blowup2, blowup_map, D),
                          (orthant2, ident, dv.zero_divisor(orthant2)))


# -- the maps a step builds: flags and fan from the step (`fan.swap_cells`) ----

def _reached_maps(monkeypatch):
    """The list that collects every map `run_mmp` reaches, in order: each
    map it asks `mori_classes` about."""
    maps = []
    orig = mmp.mori_classes

    def classes(m, ample=None):
        maps.append(m)
        return orig(m, ample)

    monkeypatch.setattr(mmp, "mori_classes", classes)
    return maps


@pytest.mark.parametrize("seed", [20240801, 0, 1, 2,
                                  pytest.param(7, marks=pytest.mark.slow)])
def test_step_maps_match_the_whole_map_oracles(seed, monkeypatch):
    # every map a divisorial step or a flip builds carries the flags the
    # step derived: equal to the whole-map check_morphism, with the
    # whole-map contracted walls, and its fan passes validate_fan
    maps = _reached_maps(monkeypatch)
    kinds = Counter()
    for m, D in termination_instances(seed, 100):
        maps.clear()
        trace = run_mmp(m, D)
        assert maps[0] is m and m.step_flags is None
        assert len(maps) == 1 + sum(s.kind != "fano" for s in trace.steps)
        for cur in maps[1:]:
            mmp_oracle.check_successor(cur)
        kinds.update(s.kind for s in trace.steps)
    assert kinds["divisorial"] >= 50 and kinds["flipping"] >= 3


def test_new_internal_walls_of_a_flip_carry_the_negated_class(monkeypatch):
    # Reid 1983: in each circuit of a flip of class c, the new wall
    # rayset - {j, k}, j and k in J-, has the relation -c; the step map
    # derives it afresh (`fan.swap_cells`), and it must be -c
    flips = []
    orig = mmp._flip_contracted

    def flipped(m, D, res):
        out = orig(m, D, res)
        flips.append((res, out[0]))
        return out

    monkeypatch.setattr(mmp, "_flip_contracted", flipped)
    for seed in (20240801, 0, 1, 2):
        for m, D in termination_instances(seed, 100):
            run_mmp(m, D)
    walls = 0
    for res, new_map in flips:
        c = res.relation.coeffs
        j_minus = [i for i, a in enumerate(c) if a < 0]
        relations = {w.rays: c.coeffs
                     for w, c in new_map.step_flags.contracted}
        for rayset in res.merged_cones:
            for jk in itertools.combinations(j_minus, 2):
                facet = tuple(i for i in rayset if i not in jk)
                assert relations[facet] == tuple(-a for a in c), facet
                walls += 1
    assert walls == 45


def test_run_mmp_checks_the_whole_map_and_fan_only_at_the_ends(monkeypatch):
    # whole-map properness runs on the first map only and whole-fan
    # validation on the fano quotient only: each step's map and fan come
    # from the step
    instances = termination_instances(20240801, 100)
    covers, validated = [], []
    orig_covers, orig_validate = fn._covers_preimages, fn.validate_fan
    monkeypatch.setattr(fn, "_covers_preimages",
                        lambda m: covers.append(m) or orig_covers(m))
    monkeypatch.setattr(fn, "validate_fan",
                        lambda F: validated.append(F) or orig_validate(F))
    for k, kinds in ((15, ["flipping"] * 3 + ["divisorial"] * 2 + ["fano"]),
                     (21, ["divisorial"] * 3 + ["fano"])):
        # a map met in an earlier run would answer from the cache
        fn.check_morphism.cache_clear()
        cv.contracted_walls.cache_clear()
        covers.clear()
        validated.clear()
        m, D = instances[k]
        trace = run_mmp(m, D)
        assert [s.kind for s in trace.steps] == kinds
        assert covers == [m]
        assert validated == [trace.final_fan]


def _corrupted(kind):
    """`fan.swap_cells` with one kind of corrupted input: a new cell with
    one ray swapped for another, a new cell missing, or a removed cell
    kept."""
    def swap(m, survivors, removed, added):
        added = sorted(added)
        if kind == "cell":
            cell = added[0]
            other = next(i for i in survivors if i not in cell)
            added[0] = tuple(sorted(cell[1:] + (other,)))
        elif kind == "missing":
            added.pop()
        else:
            added.append(sorted(removed)[0])
        return fn.swap_cells(m, survivors, removed, added)
    return swap


def _negated_at_new_internal_walls(monkeypatch):
    """Make `fan.wall_coefficients` return the negated relation at the new
    internal walls rayset - {j, k}, j and k in J-, of each flip that
    `mmp._swap_circuits` builds, and the true one everywhere else."""
    internal = set()
    orig_wall, orig_swap = fn.wall_coefficients, mmp._swap_circuits

    def wall(F, facet, *sides):
        rel = orig_wall(F, facet, *sides)
        return tuple(-a for a in rel) if facet in internal else rel

    def swap(m, rel, raysets):
        j_minus = [i for i, a in enumerate(rel) if a < 0]
        internal.update(tuple(i for i in r if i not in jk) for r in raysets
                        for jk in itertools.combinations(j_minus, 2))
        try:
            return orig_swap(m, rel, raysets)
        finally:
            internal.clear()

    monkeypatch.setattr(fn, "wall_coefficients", wall)
    monkeypatch.setattr(mmp, "_swap_circuits", swap)


@pytest.mark.parametrize("kind", ["internal", "fresh", "cell", "missing",
                                  "removed"])
def test_corrupted_step_raises_invariant_breach(kind, monkeypatch):
    # a step whose derived relations or new cells are wrong is a bug that
    # the local certificate catches: [15] starts with a flip, [21] with a
    # divisorial step, which has no new internal walls; a wrong relation at
    # every wall through a new cell (fresh), or only at a flip's new
    # internal walls, is caught by the sign check of the step that derives
    # it
    instances = termination_instances(20240801, 100)
    if kind == "fresh":
        orig_wall, orig_swap = fn.wall_coefficients, mmp._swap_circuits

        def swap(*args):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fn, "wall_coefficients", lambda *a: tuple(
                    -x for x in orig_wall(*a)))
                return orig_swap(*args)

        monkeypatch.setattr(mmp, "_swap_circuits", swap)
    elif kind == "internal":
        _negated_at_new_internal_walls(monkeypatch)
    else:
        monkeypatch.setattr(mmp, "swap_cells", _corrupted(kind))
    match = "lie on one side" if kind in ("internal", "fresh") else None
    for k in ((15,) if kind == "internal" else (15, 21)):
        with pytest.raises(InvariantBreach, match=match):
            run_mmp(*instances[k])
