"""Test oracles for the checks of the flip replay, which read what the fans
share by index.

`landing` places every ray's image by `cone_contains` over all target
cones, where `fan._landing` puts an image on a target ray into the cones
that list that ray.  `covers_preimages` tests every target cone, where
`fan._covers_preimages` skips, under the identity lattice map, a target
cone that is also a source cell.  `pullback` reads every coefficient off
the whole `divisor.support_function`, where `divisor.pullback` on a
simplicial target reads a shared ray's coefficient off D and solves only
the first cone holding each other image.  `common_refinement` tests every
pair of pieces for nesting and certifies the whole refinement, the fan of the
pieces by `certify_fan` and its Q-factorialization again, where
`fan.common_refinement` tests only the pieces of lower dimension than the
lattice and certifies only the cells in which its triangulated pieces
differ from the first fan (`fan.validate_fan` with that fan as its base,
whose verdicts are also compared with the whole-fan `validate_fan` on
every call).  `contract` solves its LPs afresh, on a copy of the map's
flags that holds no verdicts, where `mmp.contract` reads the verdicts an
earlier contraction of the same class on an equal map, or `run_mmp`'s
ratio test (`fan.MorphismFlags.certify_ray`), left on the flags; the two
supporting divisors may differ, and the kept one must certify the target
(`fan_oracle.supports`).
`pair` sums `Fraction` products, where `CurveClass.pair` sums integers
over one denominator.  (`fan_oracle.common_refinement`, which also
intersects every pair of cones, costs too much to run on every refinement
of the corpus.)

`cross_checked` runs each new path and its oracle side by side, on every
call the MMP and the flip replay make while it is open, and collects the
calls and the mismatches.
"""

import contextlib
from collections import Counter
from fractions import Fraction

import pytest

import fan_oracle
from toricmmp import curves as cv
from toricmmp import exactlin as xl
from toricmmp import fan as fn
from toricmmp import mmp
from toricmmp.curves import CurveClass
from toricmmp.divisor import InvariantDivisor, check_divisor, support_function
from toricmmp.errors import InvariantBreach, PreconditionError
from toricmmp.fan import (Fan, FanMap, certify_fan, cone_contains,
                          cone_covered_by_gens, cone_intersection,
                          identity_map, index_rays, qfactorialize)


def landing(m: FanMap):
    """`fan._landing` with every image placed by `cone_contains`."""
    T = m.target
    homes = [frozenset(tc for tc in T.max_cones
                       if cone_contains(T.cone_gens(tc), m.apply(r)))
             for r in m.source.rays]
    every = frozenset(T.max_cones)
    return lambda idx: every.intersection(*(homes[i] for i in idx))


def covers_preimages(m: FanMap) -> bool:
    """`fan._covers_preimages` with every target cone tested."""
    n = m.source.rank
    At = xl.transpose(m.matrix)
    onto = m.target.rank == 0 or xl.rank(m.matrix) == m.target.rank
    sources = [m.source.cone_gens(c) for c in m.source.max_cones]
    for tc in m.target.max_cones:
        tg = m.target.cone_gens(tc)
        ineqs = [tuple(xl.mat_vec(At, f)) for f in fn.cone_facets(tg)]
        eqs = [tuple(xl.mat_vec(At, z)) for z in fn.cone_span_perp(tg)]
        if onto:
            cells = [g for g in sources if fn._within(g, ineqs, eqs)]
            d = n - m.target.rank + fn.cone_dim(tg)
        else:
            cells = [fn._cut(g, ineqs, eqs, n) for g in sources]
            d = fn.cone_dim(fn._h_to_gens(ineqs, eqs, n))
        if not fn.cone_covered(ineqs, d, cells):
            return False
    return True


def pullback(m: FanMap, D: InvariantDivisor) -> InvariantDivisor:
    """`divisor.pullback` read off the whole `support_function`."""
    check_divisor(m.target, D)
    psi = support_function(m.target, D)
    return InvariantDivisor(tuple(-psi.value(m.apply(v))
                                  for v in m.source.rays))


def pair(c: CurveClass, D: InvariantDivisor) -> Fraction:
    """`CurveClass.pair` as a sum of `Fraction` products."""
    return sum((Fraction(a) * d for a, d in zip(c.coeffs, D.coeffs)),
               Fraction(0))


def common_refinement(F1: Fan, F2: Fan):
    """`fan.common_refinement` with the nesting test on every pair of
    pieces."""
    if F1.rank != F2.rank:
        raise PreconditionError("fans live in different lattices")
    cov1 = [F1.cone_gens(c) for c in F1.max_cones]
    cov2 = [F2.cone_gens(c) for c in F2.max_cones]
    in2 = {frozenset(g) for g in cov2}
    shared = in2.intersection(frozenset(g) for g in cov1)
    rest1 = [g for g in cov1 if frozenset(g) not in shared]
    rest2 = [g for g in cov2 if frozenset(g) not in shared]
    table = [[cone_intersection(g1, g2) for g2 in rest2] for g1 in rest1]
    for g1, row in zip(rest1, table):
        if g1 and not cone_covered_by_gens(g1, row):
            raise PreconditionError("fan supports differ")
    for j, g2 in enumerate(rest2):
        if g2 and not cone_covered_by_gens(g2, [row[j] for row in table]):
            raise PreconditionError("fan supports differ")
    rows = iter(table)
    pieces = []
    for g1 in cov1:
        row = [tuple(sorted(g1))] if frozenset(g1) in shared else next(rows)
        for inter in row:
            if inter and inter not in pieces:
                pieces.append(inter)
    maximal = []
    for p in pieces:
        if not any(q != p and all(cone_contains(q, g) for g in p)
                   for q in pieces):
            maximal.append(p)
    index: dict = {}
    cones = [index_rays(index, p) for p in maximal]
    if not maximal:
        out = Fan(F1.rank, (), ())
        return out, identity_map(out, F1), identity_map(out, F2)
    coarse = certify_fan(
        Fan(F1.rank, tuple(index), tuple(sorted(set(cones)))),
        "refinement fan")
    fine, _ = qfactorialize(coarse)
    return fine, identity_map(fine, F1), identity_map(fine, F2)


_contract = mmp.contract


def contract(m: FanMap, wall_set):
    """`mmp.contract` with its LPs solved afresh: on a copy of the map's
    flags that holds no verdicts."""
    flags = fn.check_morphism(m)
    fresh = fn.MorphismFlags(flags.toric, flags.proper, flags.contracted,
                             flags.nrays)
    with pytest.MonkeyPatch.context() as mp:
        for module in (mmp, cv):
            mp.setattr(module, "check_morphism", lambda _: fresh)
        return _contract(m, wall_set)


def decided(m: FanMap, wall_set) -> bool:
    """Do the flags of m already hold the extremality verdict on the class
    of `wall_set`: is this a second contraction of it, or one that
    `run_mmp`'s ratio test certified?"""
    try:
        cls = dict(cv.contracted_walls(m))[wall_set[0]]
    except (PreconditionError, KeyError, IndexError):
        return False
    return ("extreme", cls.coeffs) in fn.check_morphism(m)._verdicts


def same_landing(m: FanMap, new, old) -> bool:
    """Do two landing functions of m agree?  Each is the intersection of
    its rays' homes, so agreeing on every single ray suffices."""
    return all(new((i,)) == old((i,)) for i in range(len(m.source.rays)))


def same_contraction(m: FanMap, new, old) -> bool:
    """Do two outcomes (result, error) of `mmp.contract` on m agree: the
    same refusal, or every field equal but `supporting`, which on the new
    side must certify the target as the class's supporting divisor
    (`fan_oracle.supports`) when the old side has one?"""
    (out, err), (want, want_err) = new, old
    if err is not None or want_err is not None:
        return type(err) is type(want_err) and str(err) == str(want_err)
    if (out.supporting is None) != (want.supporting is None):
        return False
    return (mmp.ContractionResult(**{**vars(out), "supporting": None})
            == mmp.ContractionResult(**{**vars(want), "supporting": None})
            and (out.supporting is None or fan_oracle.supports(
                m, out.relation, out.supporting, out.target)))


def _outcome(f, *args, errors=PreconditionError):
    """(value, None) of f(*args), or (None, the error of type `errors` it
    raised)."""
    try:
        return f(*args), None
    except errors as e:
        return None, e


def same_swap(new, old) -> bool:
    """Do two outcomes (map, error) of `fan.swap_cells` agree: equal maps
    with equal step flags, or both an InvariantBreach?"""
    (out, err), (want, want_err) = new, old
    if err is not None or want_err is not None:
        return type(err) is type(want_err)
    return out == want and out.step_flags == want.step_flags


@contextlib.contextmanager
def cross_checked():
    """While open, each call of `fan._landing`, `fan._covers_preimages`,
    `mmp.pullback`, `mmp.common_refinement` and `CurveClass.pair` also runs
    its oracle, as do `fan.validate_fan` given a base (its oracle is the
    whole-fan check, and the verdict of the criterion it hands the changed
    cells, `fan_oracle.triangulates_by_facet_map`), `mmp.swap_cells` (its
    oracle is `fan_oracle.swap_cells`, and a refusal must be an
    InvariantBreach on both sides) and `mmp.contract` on a class the map's
    flags already decided (`decided`; its oracle is `contract`, compared by
    `same_contraction`).  Yields (calls, mismatches): a
    Counter of calls by name and a list of (name, arguments) where the two
    disagree."""
    calls, mismatches = Counter(), []

    def checked(name, new, oracle, same=lambda args, a, b: a == b):
        def run(*args):
            out = new(*args)
            calls[name] += 1
            if not same(args, out, oracle(*args)):
                mismatches.append((name, args))
            return out
        return run

    whole, criterion = fn.validate_fan, fn._triangulates
    verdicts = []  # the verdict of each run of the criterion

    def triangulates(*args):
        verdicts.append(criterion(*args))
        return verdicts[-1]

    def validate(F, base=None):
        start = len(verdicts)
        out = whole(F, base)
        # the criterion runs once the ray checks pass, and is handed the
        # changed cells when base has simplicial cells on rays of F
        proved = any(verdicts[start:])
        if base is not None:
            calls["certificate"] += 1
            if out != whole(F):
                mismatches.append(("certificate", (F, base)))
            if not fn._ray_violations(F):
                calls["criterion"] += 1
                if proved != fan_oracle.triangulates_by_facet_map(F, base):
                    mismatches.append(("criterion", (F, base)))
        return out

    def swap(*args):
        calls["swap"] += 1
        new = _outcome(fn.swap_cells, *args, errors=InvariantBreach)
        if not same_swap(new, _outcome(fan_oracle.swap_cells, *args,
                                       errors=InvariantBreach)):
            mismatches.append(("swap", args))
        out, err = new
        if err is not None:
            raise err
        return out

    def second_contract(m, wall_set):
        if not decided(m, wall_set):
            return _contract(m, wall_set)
        calls["second contract"] += 1
        new = _outcome(_contract, m, wall_set)
        if not same_contraction(m, new, _outcome(contract, m, wall_set)):
            mismatches.append(("second contract", (m, wall_set)))
        out, err = new
        if err is not None:
            raise err
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fn, "_landing", checked(
            "landing", fn._landing, landing,
            lambda args, a, b: same_landing(args[0], a, b)))
        mp.setattr(fn, "_covers_preimages", checked(
            "covers", fn._covers_preimages, covers_preimages))
        mp.setattr(mmp, "pullback", checked("pullback", mmp.pullback, pullback))
        mp.setattr(mmp, "common_refinement", checked(
            "refinement", mmp.common_refinement, common_refinement))
        mp.setattr(CurveClass, "pair", checked("pair", CurveClass.pair, pair))
        mp.setattr(fn, "validate_fan", validate)
        mp.setattr(fn, "_triangulates", triangulates)
        mp.setattr(mmp, "swap_cells", swap)
        mp.setattr(mmp, "contract", second_contract)
        yield calls, mismatches
