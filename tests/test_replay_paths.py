"""The checks of the flip replay against the paths they replaced
(`replay_oracle`): `fan._landing`, `fan._covers_preimages`,
`divisor.pullback`, `fan.common_refinement` and `CurveClass.pair` read
what the fans share by index or sum on integers, the refinement is
certified by the cells it changes, and a second `mmp.contract` of a class
reads the LP verdicts the first left on the map's flags.  The one local
triangulation criterion, handed the changed cells by `fan.swap_cells` and
by `fan.validate_fan` with a base, is checked against the two copies it
replaced (`fan_oracle.swap_cells`, `fan_oracle.triangulates_by_facet_map`).
The cross-check runs on every call that `run_mmp` and the re-derivation of
every flip (as the acceptance gate and the benchmark replay them) make on
the corpus; the other tests cover the fallbacks and the corrupted steps no
corpus instance reaches.  One pass of the acceptance corpus is also
counted: the replay's `contract` solves no LP, each fan's facets are
paired once outside `validate_fan`, a flip pair's refinement runs no
whole-fan `validate_fan`, and the class a step chooses solves no LP
when it is the unique minimiser of `run_mmp`'s ratio test.
"""

import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fan_oracle
import replay_oracle
from conftest import clear_package_caches, termination_instances
from test_acceptance import TRACE_DIGEST, _check_flip_steps
from toricmmp import curves as cv
from toricmmp import divisor as dv
from toricmmp import exactlin as xl
from toricmmp import fan as fn
from toricmmp import mmp
from toricmmp.curves import CurveClass, nefness
from toricmmp.divisor import InvariantDivisor, NotQCartier
from toricmmp.errors import InvariantBreach, PreconditionError
from toricmmp.fan import Fan, FanMap, identity_map, map_to_point


def test_replay_paths_match_their_oracles():
    # a map met in an earlier test would answer from the cache
    fn.check_morphism.cache_clear()
    cv.contracted_walls.cache_clear()
    with replay_oracle.cross_checked() as (calls, mismatches):
        for seed in (20240801, 0, 1, 2):
            for m, D in termination_instances(seed, 100):
                trace = mmp.run_mmp(m, D)
                if trace.outcome == "minimal":
                    assert nefness(trace.final_divisor, trace.final_map).nef
                _check_flip_steps(m, D, trace)
    assert mismatches == []
    # two pullbacks and one refinement with its certificate per replayed
    # flip, whose contraction is a second one; equal maps met again in
    # other runs add more
    assert calls["refinement"] >= 20
    assert calls["pullback"] == 2 * calls["refinement"]
    assert calls["certificate"] == calls["criterion"] == calls["refinement"]
    assert calls["swap"] >= 400
    # a second contraction is one whose verdicts the flags already hold: a
    # replayed flip's, or a step's whose class the ratio test certified
    assert calls["second contract"] >= 500
    assert calls["landing"] >= 400 and calls["covers"] >= 400
    assert calls["pair"] >= 3000


@pytest.fixture(scope="module")
def counted_pass():
    """One pass of the acceptance corpus as the benchmark runs it, caches
    cleared, counting: the LPs (`_phase1`) in all and those the replay's
    `contract` solves, the fans whose facet map is built outside
    `validate_fan`, the fans a refinement passes to the whole-fan
    `validate_fan`, and, for each step whose chosen class is the unique
    minimiser of A.c / (-D.c) over its map's D-negative classes (A the
    ample class `mori_classes` returned for the map), the chosen class and
    the classes that an `is_extreme` or supporting-divisor LP decided in
    its ray selection (`mmp._negative_contraction`); with the traces'
    digest."""
    instances = termination_instances(20240801, 100)
    clear_package_caches()
    where = {"replay": False, "contract": 0, "validate": 0, "refine": 0}
    counts = {"replay LPs": [], "facet maps": [], "whole in refinement": [],
              "flips": 0, "LPs": 0, "minimiser steps": []}
    step = {"ample": None, "decided": []}
    digest = hashlib.sha256()
    orig_phase1, orig_facet_map = xl._phase1, fn._facet_map
    orig_classes, orig_select = mmp.mori_classes, mmp._negative_contraction
    orig_extreme, orig_positive_on = xl.is_extreme, fn.positive_on

    def phase1(*args):
        counts["LPs"] += 1
        if where["replay"] and where["contract"]:
            counts["replay LPs"].append(args)
        return orig_phase1(*args)

    def facet_map(F):
        if not where["validate"]:
            counts["facet maps"].append(F)
        return orig_facet_map(F)

    def inside(key, f, record=None):
        def run(*args):
            if record is not None:
                record(args)
            where[key] += 1
            try:
                return f(*args)
            finally:
                where[key] -= 1
        return run

    def classes(m, ample=None):
        out = orig_classes(m, ample)
        step["ample"] = out[2]
        return out

    def extreme(p, others):
        step["decided"].append(tuple(p))
        return orig_extreme(p, others)

    def positive_on(relations, nrays, zero=()):
        step["decided"].extend(map(tuple, zero))
        return orig_positive_on(relations, nrays, zero)

    def select(m, negative):
        step["decided"] = []
        c, res = orig_select(m, negative)
        ratio = {d: Fraction(xl.dot(d.coeffs, step["ample"])) / -v
                 for d, v in negative.items()}
        least = min(ratio.values())
        if [d for d, t in ratio.items() if t == least] == [c]:
            counts["minimiser steps"].append((c.coeffs, step["decided"]))
        return c, res

    def whole(args):
        if where["refine"] and (len(args) < 2 or args[1] is None):
            counts["whole in refinement"].append(args[0])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(xl, "_phase1", phase1)
        mp.setattr(fn, "_facet_map", facet_map)
        mp.setattr(fn, "validate_fan",
                   inside("validate", fn.validate_fan, whole))
        mp.setattr(mmp, "common_refinement",
                   inside("refine", mmp.common_refinement))
        mp.setattr(mmp, "contract", inside("contract", mmp.contract))
        mp.setattr(mmp, "mori_classes", classes)
        mp.setattr(mmp, "_negative_contraction", select)
        mp.setattr(xl, "is_extreme", extreme)
        mp.setattr(fn, "positive_on", positive_on)
        for m, D in instances:
            trace = mmp.run_mmp(m, D)
            digest.update(repr(trace).encode())
            if trace.outcome == "minimal":
                assert nefness(trace.final_divisor, trace.final_map).nef
            where["replay"] = True
            _check_flip_steps(m, D, trace)
            where["replay"] = False
            counts["flips"] += sum(s.kind == "flipping" for s in trace.steps)
    assert counts["flips"] == 8
    counts["digest"] = digest.hexdigest()
    return counts


def test_replayed_contract_solves_no_lp(counted_pass):
    # its is_extreme and supporting-divisor verdicts are on the flags
    assert counted_pass["replay LPs"] == []


def test_ratio_certified_steps_solve_no_lp(counted_pass):
    # the ratio test's certificate decides `contract`'s extremality and
    # supporting divisor, so the LPs left are the first maps'
    # projectivity, the refused candidates tried before the chosen class,
    # and chosen classes that are no unique minimiser; the traces are the
    # pinned ones
    assert counted_pass["LPs"] <= 125
    steps = counted_pass["minimiser steps"]
    assert len(steps) >= 130
    assert all(c not in decided for c, decided in steps)
    assert counted_pass["digest"] == TRACE_DIGEST


def test_each_fan_is_paired_once_outside_validate_fan(counted_pass):
    # `walls` builds the facet map and caches it; `check_morphism` and
    # `swap_cells` read it there
    fans = counted_pass["facet maps"]
    assert len(fans) == len(set(fans)) >= 150


def test_flip_refinement_runs_no_whole_fan_check(counted_pass):
    assert counted_pass["whole in refinement"] == []


def test_local_certificate_rejects_what_the_whole_check_rejects():
    # every refinement of a flip pair over the corpus, with one piece (a
    # cell that is no cell of X) dropped or one ray of a piece moved: the
    # certificate given X as its base writes the whole check's verdicts
    rng = random.Random(28)
    pairs = []
    for m, D in termination_instances(20240801, 100):
        F0 = m.source
        for s in mmp.run_mmp(m, D).steps:
            if s.kind == "flipping":
                pairs.append((F0, s.fan_after))
            F0 = s.fan_after
    assert len(pairs) == 8
    tried, rejected = 0, 0
    for X, Xp in pairs:
        Z = fn.common_refinement(X, Xp)[0]
        assert fn.validate_fan(Z, X) == fn.validate_fan(Z) == []
        cells = {frozenset(X.cone_gens(c)) for c in X.max_cones}
        pieces = [c for c in Z.max_cones
                  if frozenset(Z.cone_gens(c)) not in cells]
        mutants = [Fan(Z.rank, Z.rays, tuple(c for c in Z.max_cones
                                             if c != piece))
                   for piece in pieces]
        for piece in pieces:
            for i in piece:
                rays = list(Z.rays)
                v = list(rays[i])
                v[rng.randrange(Z.rank)] += rng.choice((-1, 1))
                rays[i] = tuple(v)
                mutants.append(Fan(Z.rank, tuple(rays), Z.max_cones))
        for M in mutants:
            got = fn.validate_fan(M, X)
            assert got == fn.validate_fan(M), M
            tried += 1
            rejected += bool(got)
    assert tried >= 100 and rejected >= 20


def _corrupted_steps(m, survivors, removed, added, rng):
    """(kind, arguments) of `fan.swap_cells` for one step with its cells
    corrupted: a new cell missing (of two or more), one ray of the first new
    cell swapped for another ray (twice), a removed cell added back or kept,
    a kept cell added too (which changes no cell; when one is kept), and a
    divisorial step keeping the ray it drops."""
    F = m.source
    survivors, removed, added = list(survivors), sorted(removed), sorted(added)
    out = [("missing", added[:k] + added[k + 1:])
           for k in range(len(added) if len(added) > 1 else 0)]
    cell = added[0]
    others = [i for i in survivors if i not in cell]
    for _ in range(2 if others else 0):
        k = rng.randrange(len(cell))
        swapped = tuple(sorted(cell[:k] + cell[k + 1:] + (rng.choice(others),)))
        out.append(("cell", [swapped] + added[1:]))
    out.append(("removed", added + [removed[0]]))
    steps = [(kind, (m, survivors, removed, cells)) for kind, cells in out]
    steps.append(("kept", (m, survivors, removed[1:], added)))
    kept = [c for c in F.max_cones
            if c not in removed and all(i in survivors for i in c)]
    if kept:
        steps.append(("extra", (m, survivors, removed,
                                added + [rng.choice(kept)])))
    if len(survivors) < len(F.rays):
        steps.append(("undropped", (m, range(len(F.rays)), removed, added)))
    return steps


def test_step_certificate_rejects_what_its_oracle_rejects(monkeypatch):
    # every step of the acceptance corpus, corrupted (`_corrupted_steps`):
    # the local criterion handed the changed cells and the step's own copy
    # it replaced raise on the same ones, and build the same map otherwise;
    # a divisorial step keeping its dropped ray leaves that ray in no cell,
    # which the copy missed, and the whole-fan check rejects that fan too
    calls = []
    orig = mmp.swap_cells
    monkeypatch.setattr(mmp, "swap_cells",
                        lambda *args: calls.append(args) or orig(*args))
    for m, D in termination_instances(20240801, 100):
        mmp.run_mmp(m, D)
    monkeypatch.undo()
    rng = random.Random(29)
    kinds = Counter()
    for m, survivors, removed, added in calls:
        for kind, args in _corrupted_steps(m, survivors, removed, added, rng):
            new = replay_oracle._outcome(fn.swap_cells, *args,
                                         errors=InvariantBreach)
            old = replay_oracle._outcome(fan_oracle.swap_cells, *args,
                                         errors=InvariantBreach)
            kinds[kind, new[1] is not None] += 1
            if kind != "undropped":
                assert replay_oracle.same_swap(new, old), (kind, args)
                continue
            assert new[1] is not None and old[1] is None, args
            F = m.source
            cells = [c for c in F.max_cones if c not in removed]
            cells += added
            assert fan_oracle.validate_fan(Fan(F.rank, F.rays, cells)), args
    # the 100 steps of the corpus: 8 flips and 92 divisorial steps
    assert kinds == {("missing", True): 18, ("cell", True): 180,
                     ("removed", True): 100, ("kept", True): 100,
                     ("extra", False): 90, ("undropped", True): 92}


def test_pullback_to_a_non_simplicial_target(quadric_tri_a, quadric_cone_fan):
    m = identity_map(quadric_tri_a, quadric_cone_fan)
    D = InvariantDivisor((1, 0, 0, 0))
    with pytest.raises(NotQCartier) as new:
        dv.pullback(m, D)
    with pytest.raises(NotQCartier) as old:
        replay_oracle.pullback(m, D)
    assert new.value.cone == old.value.cone == (0, 1, 2, 3)
    # D = div(chi^(0, 0, -1)) is Cartier there
    cartier = InvariantDivisor((-1, -1, -1, -1))
    assert dv.pullback(m, cartier) == replay_oracle.pullback(m, cartier)


def test_pullback_of_a_ray_outside_the_support(orthant2, p2, quadric_cone_fan):
    simplicial = identity_map(p2, orthant2)
    beyond = Fan(3, ((0, 0, 1), (1, 0, 1), (0, 0, -1)), ((0, 1), (2,)))
    non_simplicial = identity_map(beyond, quadric_cone_fan)
    for m, D in ((simplicial, InvariantDivisor((1, 2))),
                 (non_simplicial, InvariantDivisor((-1, -1, -1, -1)))):
        for pull in (dv.pullback, replay_oracle.pullback):
            with pytest.raises(PreconditionError, match="outside the fan"):
                pull(m, D)


def test_pullback_reads_multiples_of_target_rays(orthant2, blowup2):
    # (1, 0) goes to 2 e_1 and (1, 1) to (2, 1), inside the orthant
    m = FanMap(((2, 0), (0, 1)), blowup2, orthant2)
    D = InvariantDivisor((Fraction(1, 3), -2))
    assert dv.pullback(m, D) == replay_oracle.pullback(m, D)
    assert dv.pullback(m, D).coeffs == (Fraction(2, 3), -2, Fraction(-4, 3))


def test_landing_under_other_lattice_maps(f1, orthant2, blowup2):
    # the fibration of F1 over P^1: two rays go to 0, two onto target rays
    P, base = mmp._fibration(map_to_point(f1), [(0, 1)])
    fibration = FanMap(P, f1, base)
    # (1, 0) goes to 2 e_1, a multiple of a target ray; (1, 1) inside
    doubling = FanMap(((2, 0), (0, 1)), blowup2, orthant2)
    for m in (fibration, doubling):
        assert replay_oracle.same_landing(m, fn._landing(m),
                                          replay_oracle.landing(m))
        assert fn.is_toric_morphism(m) and fn._covers_preimages(m) == \
            replay_oracle.covers_preimages(m)


def test_refinement_with_lower_dimensional_support():
    # two subdivisions of a quadrant in the plane z = 0 of a rank-3 lattice;
    # the cones (e1, e1 + e2) and (e1 + 2 e2, e2) meet in the ray e1 + e2,
    # a piece that lies in two others and must be dropped
    rays = ((1, 0, 0), (2, 1, 0), (1, 1, 0), (1, 2, 0), (0, 1, 0))
    coarse = Fan(3, rays, ((0, 2), (2, 4)))
    fine = Fan(3, rays, ((0, 1), (1, 2), (2, 3), (3, 4)))
    refined = fn.common_refinement(coarse, fine)
    assert refined == replay_oracle.common_refinement(coarse, fine) \
        == fan_oracle.common_refinement(coarse, fine)
    Z = refined[0]
    assert sorted(map(Z.cone_gens, Z.max_cones)) == \
        sorted(map(fine.cone_gens, fine.max_cones))


coefficient = st.integers(min_value=-6, max_value=6)
rational = st.one_of(
    st.integers(min_value=-9, max_value=9).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=12))


@given(st.integers(min_value=0, max_value=8).flatmap(lambda n: st.tuples(
    st.lists(coefficient, min_size=n, max_size=n),
    st.lists(rational, min_size=n, max_size=n))))
@settings(max_examples=100, deadline=None)
def test_pair_is_the_fraction_sum(case):
    # the empty class, zero coefficients, integral D and mixed denominators
    coeffs, values = case
    c, D = CurveClass(tuple(coeffs)), InvariantDivisor(tuple(values))
    value = c.pair(D)
    assert type(value) is Fraction
    assert value == replay_oracle.pair(c, D)
