"""Test oracles for `fan.walls`, `mmp.contract`, the maps an MMP step
builds and `sections.zariski_decompose`.

`walls` finds the walls of a fan by intersecting each pair of maximal cones
(double description) and `contract` decides the contraction's kind by LPs:
a merged cone with a positive circuit is a fibration, a non-extreme
generator of a merged cone is the removed ray of a divisorial contraction,
and otherwise the contraction is flipping.  Both are the routines `fan` and
`mmp` ran before they read the same answers off the fan's combinatorics and
the extremal relation.  `check_contraction` compares the two contracts.
The fano base map takes its section from `lattice_oracle`, one integer
solve per column, so no section code is shared with `mmp`.
`check_successor` holds each map a divisorial step or a flip builds to
the paths `run_mmp` took for it before `fan.swap_cells` derived its flags
and walls from the step: the whole-map `fan.check_morphism` and
`curves.contracted_walls` of an equal map that carries no step flags, and
the whole-fan `fan.validate_fan` of its fan.
`zariski_on_resolution` is the Zariski decomposition `sections` ran
before it ran the D-MMP on X: it resolves X first and runs the whole MMP
on the resolution.
"""

import itertools

import lattice_oracle
from toricmmp import exactlin as xl
from toricmmp import fan as fn
from toricmmp import mmp
from toricmmp.curves import contracted_walls, nefness
from toricmmp.divisor import (InvariantDivisor, check_divisor, pullback,
                              support_function)
from toricmmp.errors import InvariantBreach, PreconditionError
from toricmmp.fan import (Fan, FanMap, Wall, common_refinement, cone_dim,
                          cone_eq, cone_intersection, identity_map,
                          quotient_fan, resolve, validate_fan)
from toricmmp.mmp import (ContractionResult, _merge_groups, contract_face,
                          run_mmp)
from toricmmp.sections import ZariskiResult


def walls(F: Fan) -> tuple:
    """Codimension-1 faces shared by exactly two maximal cones; the origin
    only between two full-dimensional cones (rays of a rank-1 fan)."""
    out = []
    for a, b in itertools.combinations(range(len(F.max_cones)), 2):
        ca, cb = F.max_cones[a], F.max_cones[b]
        ga, gb = F.cone_gens(ca), F.cone_gens(cb)
        if not ga or not gb:
            continue
        da = cone_dim(ga)
        if cone_dim(gb) != da:
            continue
        shared = tuple(sorted(set(ca) & set(cb)))
        sg = F.cone_gens(shared)
        if (shared or da == F.rank) and cone_dim(sg) == da - 1:
            inter = cone_intersection(ga, gb)
            if cone_eq(inter, sg):
                out.append(Wall(shared, ca, cb))
    return tuple(out)


def contract(m: FanMap, wall_set) -> ContractionResult:
    """Contract the extremal face spanned by the given walls.

    Maximal cones are merged transitively across the walls; the merged cone
    decides the trichotomy: a line inside means fano (quotient lattice), an
    interior ray means divisorial (ray removed), otherwise flipping (small,
    non-simplicial target cone).
    """
    F = m.source
    merged = [g for g in _merge_groups(F, wall_set) if len(g) > 1]
    if not merged:
        raise PreconditionError("wall set contracts nothing")
    merged_ray_sets = [tuple(sorted(set(itertools.chain.from_iterable(g))))
                       for g in merged]
    merged_members = set(itertools.chain.from_iterable(merged))
    unmerged = [c for c in F.max_cones if c not in merged_members]

    # fano: some merged cone contains a line
    for rayset in merged_ray_sets:
        gens = F.cone_gens(rayset)
        circ = xl.positive_circuit_indices(list(gens))
        if circ:
            lin_gens = [gens[i] for i in circ]
            P = xl.quotient_projection(lin_gens, F.rank)
            if any(not xl.is_zero(xl.mat_vec(m.matrix, v)) for v in lin_gens) \
                    and m.target.rank > 0:
                raise InvariantBreach("contracted fibers are not vertical over the base")
            Z = quotient_fan(F, P, F.max_cones)
            bad = validate_fan(Z)
            if bad:
                raise InvariantBreach(f"fano quotient fan invalid: {bad}")
            if m.target.rank == 0:
                base = FanMap((), Z, m.target)
            else:
                s = lattice_oracle.section_of_projection(P)
                B = tuple(tuple(xl.dot(row, col) for col in zip(*s))
                          for row in m.matrix)
                base = FanMap(B, Z, m.target)
            return ContractionResult("fano", Z, FanMap(P, F, Z), base)

    # divisorial: a merged cone with a non-extreme generator (the removed
    # ray may sit inside a proper face, not only in the full interior)
    interior = []
    for rayset in merged_ray_sets:
        gens = F.cone_gens(rayset)
        ext = set(xl.extreme_rays(list(gens)))
        for pos, i in enumerate(rayset):
            if pos not in ext:
                interior.append(i)
    if interior:
        # the same ray may be swallowed by several merged groups at once
        if len(set(interior)) != 1:
            raise PreconditionError(
                "more than one interior ray; not an extremal-ray contraction")
        ray = interior[0]
        survivors = [i for i in range(len(F.rays)) if i != ray]
        reindex = {old: new for new, old in enumerate(survivors)}
        new_cones = []
        for rayset in merged_ray_sets:
            kept = tuple(sorted(reindex[i] for i in rayset if i != ray))
            gens = tuple(F.rays[i] for i in rayset if i != ray)
            if len(gens) != cone_dim(gens):
                raise InvariantBreach("divisorial target cone is not simplicial")
            new_cones.append(kept)
        for c in unmerged:
            if ray in c:
                raise InvariantBreach("removed ray survives in an unmerged cone")
            new_cones.append(tuple(sorted(reindex[i] for i in c)))
        Z = Fan(F.rank, tuple(F.rays[i] for i in survivors),
                tuple(sorted(set(new_cones))))
        bad = validate_fan(Z)
        if bad:
            raise InvariantBreach(f"divisorial target fan invalid: {bad}")
        return ContractionResult("divisorial", Z, identity_map(F, Z),
                                 FanMap(m.matrix, Z, m.target),
                                 removed_ray=F.rays[ray])

    # flipping: small, merged cones become non-simplicial
    Z = Fan(F.rank, F.rays, tuple(sorted(set(merged_ray_sets + unmerged))))
    bad = validate_fan(Z)
    if bad:
        raise InvariantBreach(f"flipping target fan invalid: {bad}")
    return ContractionResult("flipping", Z, identity_map(F, Z),
                             FanMap(m.matrix, Z, m.target),
                             merged_cones=tuple(merged_ray_sets))


def step_maps(m: FanMap, trace):
    """(map, chosen class) of every step of an MMP trace started at m."""
    F = m.source
    for s in trace.steps:
        yield FanMap(m.matrix, F, m.target), s.chosen_class
        F = s.fan_after


def check_contraction(m: FanMap, cls) -> str:
    """Contract the walls of class `cls` with `mmp.contract` and with the
    oracle; fail unless every field but the relation and the supporting
    divisor agrees, the relation is `cls` and a flip's supporting divisor
    pairs to 0 with `cls` and to at least 1 with every other class.
    Returns the kind."""
    pairs = contracted_walls(m)
    wall_set = [w for w, c in pairs if c == cls]
    new, old = mmp.contract(m, wall_set), contract(m, wall_set)
    assert new.relation == cls
    L = new.supporting
    if new.kind == "flipping":
        assert cls.pair(L) == 0, (m, cls)
        assert all(c.pair(L) >= 1 for _, c in pairs if c != cls), (m, cls)
    else:
        assert L is None
    assert mmp.ContractionResult(**{**vars(new), "relation": None,
                                    "supporting": None}) == old, (m, cls)
    return new.kind


def check_successor(m: FanMap):
    """Fail unless the flags that a map built by an MMP step carries
    (`fan.swap_cells`) equal the whole-map `check_morphism` of an equal map
    that carries none, the contracted walls read off them equal the
    whole-map `contracted_walls`, and the map's fan passes the whole-fan
    `validate_fan`."""
    whole = FanMap(m.matrix, m.source, m.target)
    assert m.step_flags == fn.check_morphism.__wrapped__(whole), m
    assert contracted_walls.__wrapped__(m) == \
        contracted_walls.__wrapped__(whole), m
    assert validate_fan(m.source) == [], m


def zariski_on_resolution(m: FanMap, D: InvariantDivisor) -> ZariskiResult:
    """Relative Zariski decomposition: resolve, run the D-MMP, pull the nef
    end back to a common refinement; P is that pullback and N the exact
    excess of D over it."""
    X, Y = m.source, m.target
    check_divisor(X, D)
    if not X.is_simplicial():
        raise PreconditionError("source must be simplicial (Q-factorial)")
    Xr, rmap = resolve(X)
    Dr = pullback(rmap, D)
    mr = FanMap(m.matrix, Xr, Y)
    trace = run_mmp(mr, Dr)
    if trace.outcome != "minimal":
        raise PreconditionError("pseudo-effectivity failed: the MMP ends in a "
                                "fano fibration with D negative on its fibers")
    Xl, Dl = trace.final_fan, trace.final_divisor
    Z, mu, nu = common_refinement(Xr, Xl)
    P = pullback(nu, Dl)
    N = pullback(mu, Dr) - P
    if not N.is_effective():
        raise InvariantBreach("negative part is not effective")
    zbase = FanMap(m.matrix, Z, Y)
    vP = nefness(P, zbase)
    if not vP.nef:
        raise InvariantBreach("positive part is not nef over the base")
    # semi-ampleness certificate: the ample model of P exists
    contract_face(zbase, P)
    idx = support_function(Z, P).cartier_index
    return ZariskiResult(Z, identity_map(Z, X), zbase, P, N, Xl, idx)
