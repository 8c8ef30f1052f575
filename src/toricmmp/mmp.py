"""Extremal contractions, flips, the D-MMP driver, and the negativity oracle.

`run_mmp` is the trichotomy loop: while D is negative on a class of the
map (not nef over the base), it contracts a negative extremal ray and
records the step with its certificates; a no-repeat set of fans witnesses
termination.  `contract` reads each step off the ray's wall relation
(Reid 1983), and one helper, `_swap_circuits`, builds the map of both
birational kinds from the class's circuit cones by `fan.swap_cells`, so
no later map is checked whole.  `contract_face` gives the ample model of
a nef divisor, and the negativity oracle, `verify_negativity`, works on a
common refinement certified by the cells its pieces change
(`fan.common_refinement`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional

from . import exactlin as xl
from .errors import InvariantBreach, PreconditionError
from .record import record
from .fan import (Fan, FanMap, certify_fan, check_morphism, common_refinement,
                  identity_map, index_rays, quotient_fan, swap_cells)
from .divisor import InvariantDivisor, check_divisor, pullback, pushforward
from .curves import (CurveClass, contracted_walls, mori_classes, nefness,
                     supporting_divisor)


class NotExtremal(PreconditionError):
    """`contract`'s class spans no extremal ray of the relative Mori cone."""


@record
class ContractionResult:
    kind: str                     # 'fano' | 'divisorial' | 'flipping'
    target: Fan
    contraction: FanMap           # source fan -> target fan
    base_map: FanMap              # target fan -> original base
    removed_ray: Optional[tuple] = None
    merged_cones: tuple = ()      # ray-index tuples in source indexing
    relation: Optional[CurveClass] = None  # the walls' sum a_i v_i = 0
    supporting: Optional[InvariantDivisor] = None  # flipping: L of the ray


def _merge_groups(F: Fan, wall_set):
    """Union-find of maximal cones across the given walls."""
    parent = list(range(len(F.max_cones)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    idx = {c: i for i, c in enumerate(F.max_cones)}
    for w in wall_set:
        a, b = find(idx[w.side_a]), find(idx[w.side_b])
        if a != b:
            parent[a] = b
    groups = {}
    for i, c in enumerate(F.max_cones):
        groups.setdefault(find(i), []).append(c)
    return list(groups.values())


def _section_of_projection(P):
    """Integer right inverse s with P s = identity: column j is
    `smith_solve(P, e_j)`.  P comes from a Smith transform, so P is onto and
    every column has divisibility index 1 (else InvariantBreach)."""
    cols = [xl.smith_solve(P, e) for e in xl.identity_matrix(len(P))]
    if any(col is None or col[1] != 1 for col in cols):
        raise InvariantBreach("quotient projection has no integer section")
    return xl.transpose([xl.integers(x) for x, _ in cols])


def contract(m: FanMap, wall_set) -> ContractionResult:
    """Contract the extremal ray whose walls are `wall_set`.

    The walls must be contracted by m, share one relation sum a_i v_i = 0
    (their `contracted_walls` class), and be every contracted wall of that
    class.  The class must span an extremal ray, else NotExtremal.  That
    verdict and L below are read off the map's flags, `check_morphism(m)`
    (`fan.MorphismFlags`): the ratio-test certificate `run_mmp` left there,
    else one `is_extreme` LP against the other contracted classes, kept, so
    a second contraction of the class on an equal map solves no LP.  Its
    signs give the kind (Reid 1983), with no search: no negative a_i is
    fano, the quotient by the lattice of the rays J+ with a_i > 0; one
    negative a_j is divisorial, and the target drops
    v_j = sum (a_i / -a_j) v_i; two or more is flipping, and the circuit
    cones stay whole in the small, non-simplicial target, the fan of the
    linearity domains of the class's `supporting_divisor` L (its
    certificate, `supporting`).  Each wall names its circuit cone, the rays
    of its two cells, taken once in `contracted_walls` order: two walls of
    the class that share a cell name the same rays, since the relation
    lives on both ray sets and the shared cell's rays are independent.  For
    both birational kinds each circuit cone must have rank + 1 rays and be
    cut by F into the cells rayset - {j}, j in J+; then it is the union of
    those cells (the two triangulations of a circuit cover the same cone),
    and dropping the one J- ray of a divisorial circuit leaves independent
    rays, a simplicial cone.  The divisorial target and its map to the base
    come from `_swap_circuits`, as a flip's do.
    """
    F = m.source
    pairs = contracted_walls(m)
    relation = dict(pairs)
    if any(w not in relation for w in wall_set):
        raise PreconditionError("a wall of the set is not contracted by the map")
    relations = {relation[w] for w in wall_set}
    if len(relations) != 1:
        raise PreconditionError("the walls do not share one relation")
    (rel,) = relations
    if set(wall_set) != {w for w, c in pairs if c == rel}:
        raise PreconditionError("the set misses a contracted wall of its class")
    if not check_morphism(m).is_extreme(rel.coeffs):
        raise NotExtremal(f"the class {rel.coeffs} spans no extremal ray")
    j_plus = [i for i, a in enumerate(rel.coeffs) if a > 0]
    j_minus = [i for i, a in enumerate(rel.coeffs) if a < 0]

    if not j_minus:
        P, Z = _fibration(m, [F.rays[i] for i in j_plus])
        B = ()
        if m.target.rank > 0:
            s = _section_of_projection(P)
            B = tuple(tuple(xl.dot(row, col) for col in zip(*s))
                      for row in m.matrix)
        return ContractionResult("fano", Z, FanMap(P, F, Z),
                                 FanMap(B, Z, m.target), relation=rel)

    L = None
    if len(j_minus) > 1:
        L = supporting_divisor(m, rel)
        if L is None:
            raise InvariantBreach("an extremal class has no supporting divisor")
    circuits = list(dict.fromkeys(
        tuple(sorted(set(w.side_a) | set(w.side_b))) for w, c in pairs
        if c == rel))
    for rayset in circuits:
        original = {c for c in F.max_cones if set(c) <= set(rayset)}
        if (len(rayset) != F.rank + 1
                or original != _circuit_cells(rayset, j_plus)):
            raise InvariantBreach(
                f"merged cone {rayset} is not the J+ side of a circuit")

    if len(j_minus) == 1:
        base = _swap_circuits(m, rel.coeffs, circuits)
        Z = base.source
        return ContractionResult("divisorial", Z, identity_map(F, Z), base,
                                 removed_ray=F.rays[j_minus[0]], relation=rel)

    merged = set().union(*(_circuit_cells(r, j_plus) for r in circuits))
    unmerged = [c for c in F.max_cones if c not in merged]
    Z = Fan(F.rank, F.rays, tuple(sorted(set(circuits + unmerged))))
    return ContractionResult("flipping", Z, identity_map(F, Z),
                             FanMap(m.matrix, Z, m.target),
                             merged_cones=tuple(circuits), relation=rel,
                             supporting=L)


def _fibration(m: FanMap, lin_gens):
    """(P, Z) for the fibration contracting the lines spanned by `lin_gens`,
    which must lie in the fibres over the base: P projects onto the quotient
    by their saturated lattice, Z is the fan of the images of all cones."""
    F = m.source
    P = xl.quotient_projection(lin_gens, F.rank)
    if any(not xl.is_zero(xl.mat_vec(m.matrix, v)) for v in lin_gens):
        raise InvariantBreach("contracted fibers are not vertical over the base")
    return P, certify_fan(quotient_fan(F, P, F.max_cones), "fano quotient fan")


# ---------------------------------------------------------------------------
# flips
# ---------------------------------------------------------------------------

def flip(m: FanMap, wall_set, D: InvariantDivisor):
    """Elementary transformation across a flipping contraction (Reid's
    circuit construction): `contract`, then `_flip_contracted`.  D must be
    negative on the walls' relation, so that it is strictly positive on the
    new internal walls (ampleness over the small target); otherwise
    PreconditionError.  Returns (flipped fan, map to the small target,
    transported divisor)."""
    res = contract(m, wall_set)
    new_map, Dp, _ = _flip_contracted(m, D, res)
    return new_map.source, identity_map(new_map.source, res.target), Dp


def _flip_contracted(m: FanMap, D: InvariantDivisor, res):
    """`flip`, given the ContractionResult `res` of the walls: (the flipped
    fan's map to m's base, from `_swap_circuits`, the transported divisor,
    D's value on the new internal walls).  These are read off the circuit:
    the wall rayset - {j, k} between the cells rayset - {j} and
    rayset - {k}, for j, k in J-, carries the relation with the opposite
    sign, so D's value there is -D.c, checked positive before the fan is
    built; the new fan is simplicial, so D is Q-Cartier on it."""
    if res.kind != "flipping":
        raise PreconditionError(f"contraction is {res.kind}, not flipping")
    positive = -res.relation.pair(D)
    if positive <= 0:
        raise PreconditionError("D is not negative on the flipped class")
    new_map = _swap_circuits(m, res.relation.coeffs, res.merged_cones)
    return new_map, InvariantDivisor(D.coeffs), positive


def _swap_circuits(m: FanMap, rel, raysets) -> FanMap:
    """The map of a birational step from the class `rel` and its circuit
    cones `raysets` (Reid 1983), by `swap_cells`: in each circuit the
    cells rayset - {j}, j in J+, go out and the cells rayset - {j}, j in
    J-, come in, and a divisorial step (one ray in J-) drops that ray."""
    j_plus = [i for i, a in enumerate(rel) if a > 0]
    j_minus = [i for i, a in enumerate(rel) if a < 0]
    dropped = j_minus if len(j_minus) == 1 else []
    return swap_cells(
        m, [i for i in range(len(rel)) if i not in dropped],
        set().union(*(_circuit_cells(r, j_plus) for r in raysets)),
        set().union(*(_circuit_cells(r, j_minus) for r in raysets)))


def _circuit_cells(rayset, side) -> set:
    """Cells rayset - {j}, j in side: one triangulation of a circuit cone."""
    return {tuple(i for i in rayset if i != j) for j in side}


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

@record
class MMPStep:
    kind: str                      # 'divisorial' | 'flipping' | 'fano'
    chosen_class: CurveClass
    value: Fraction                # D . chosen class (negative)
    rho_before: int
    rho_after: Optional[int]
    fan_after: Fan
    divisor_after: Optional[InvariantDivisor]
    removed_ray: Optional[tuple] = None
    flip_positive_value: Optional[Fraction] = None


@record
class MMPTrace:
    steps: tuple
    outcome: str                   # 'minimal' | 'fano'
    final_fan: Fan
    final_map: FanMap
    final_divisor: Optional[InvariantDivisor]


# termination is a theorem: a run this long is a bug
MAX_STEPS = 10000


def run_mmp(m: FanMap, D: InvariantDivisor) -> MMPTrace:
    """D-MMP over the base of m; returns the full certified trace.

    D is paired with each class of a map once; no negative value ends the
    run `minimal`.  Ray selection reads the kind off the signs of each
    class's relation: among the D-negative extremal classes, one with a
    negative coefficient (divisorial or flipping) is preferred,
    lexicographically smallest class first; a fano class is taken only when
    no such class is extremal.  `contract` is asked once per tested
    candidate, and builds once per step.  Before it is asked, the ratio
    test (`_ratio_certificate`) leaves the certificate L of one class on
    the map's flags; when that class is chosen, `contract` solves no LP
    for it, and a divisorial step carries L to its target.  Each map's
    `mori_classes` and rho are found once, and only m's projectivity is an
    LP: every model a step reaches is again projective over the base, and
    the step hands it an ample certificate (`_carried`) that
    `mori_classes` checks by dot products; the LP runs again only if that
    check fails.  Only m goes
    through the whole-map `check_morphism`: each later map carries the
    flags and wall relations its step derived (`fan.swap_cells`), so
    `contracted_walls` reads its classes off them, and rho is still the
    rank of those classes, checked against the step's kind.
    """
    cur_map, cur_D = m, D
    classes, rho, ample = mori_classes(m)
    check_divisor(m.source, D)
    steps = []
    seen = {m.source.canonical()}
    for _ in range(MAX_STEPS):
        negative = {c: v for c in classes if (v := c.pair(cur_D)) < 0}
        if not negative:
            return MMPTrace(tuple(steps), "minimal", cur_map.source, cur_map,
                            cur_D)
        ratio = _ratio_certificate(cur_map, ample, cur_D, negative)
        c, res = _negative_contraction(cur_map, negative)
        L = ratio[1] if ratio is not None and ratio[0] == c else None
        value = negative[c]
        if res.kind == "fano":
            steps.append(MMPStep("fano", c, value, rho, None, res.target, None))
            return MMPTrace(tuple(steps), "fano", res.target, res.base_map, None)
        pos = None
        if res.kind == "divisorial":
            new_map = res.base_map
            new_D = pushforward(res.contraction, cur_D)
        else:
            new_map, new_D, pos = _flip_contracted(cur_map, cur_D, res)
        new_classes, rho_after, ample = mori_classes(
            new_map, _carried(res, ample if L is None else L, new_map,
                              new_D))
        if rho_after != rho - (res.kind == "divisorial"):
            raise InvariantBreach(f"{res.kind} step takes rho {rho} to "
                                  f"{rho_after}")
        key = new_map.source.canonical()
        if key in seen:
            raise InvariantBreach("fan repeated; termination violated")
        seen.add(key)
        steps.append(MMPStep(res.kind, c, value, rho, rho_after,
                             new_map.source, new_D, removed_ray=res.removed_ray,
                             flip_positive_value=pos))
        cur_map, cur_D, classes, rho = new_map, new_D, new_classes, rho_after
    raise InvariantBreach("step limit exceeded")


def _ratio_certificate(m: FanMap, ample, D: InvariantDivisor, negative):
    """(c*, L) when the ratio test of the MMP with scaling (Birkar-Cascini-
    Hacon-McKernan 2010) on the ample class `ample` certifies the class c*,
    else None.  t* = min A.c / (-D.c) over the D-negative classes
    `negative`, compared on integer multiples of A and D by
    cross-multiplication.  When c* alone reaches it, L = A + t* D (times
    the positive integer -D.c*) is zero on c* and positive on every other
    class, so it exposes the ray of c*; `fan.MorphismFlags.certify_ray`
    checks that by dot products and keeps L as the verdict of `contract`."""
    A, Dz = xl._integer_row(ample), xl._integer_row(D.coeffs)
    best, tied = None, False
    for c in negative:
        a, d = xl.dot(c.coeffs, A), -xl.dot(c.coeffs, Dz)
        if best is None or a * best[2] < best[1] * d:
            best, tied = (c, a, d), False
        elif a * best[2] == best[1] * d:
            tied = True
    c, a, d = best
    L = tuple(d * x + a * y for x, y in zip(A, Dz))
    if tied or not check_morphism(m).certify_ray(c.coeffs, L):
        return None
    return c, L


def _carried(res: ContractionResult, ample, new_map: FanMap,
             new_D: InvariantDivisor) -> tuple:
    """The candidate ample certificate of the model a step reaches, built
    from the step (Reid 1983; Cox-Little-Schenck, *Toric Varieties*, ch.
    15).  Divisorial: `ample` pushed forward, by the `pushforward` that
    carries D; `run_mmp` passes the ray's ratio-test certificate L, which
    descends to an ample class of the target, or else the source's ample
    certificate.  Flip: A+ = L + eps D+, with L the ray's supporting
    divisor, zero on the new internal walls, where D+ is positive, and eps
    half the least L.c / (-D+.c) over the distinct contracted classes c of
    the new map with D+.c < 0 (1 when there is none).  Only a candidate;
    `mori_classes` checks it."""
    if res.kind == "divisorial":
        return pushforward(res.contraction, InvariantDivisor(ample)).coeffs
    L = res.supporting
    classes = {c for _, c in contracted_walls(new_map)}
    bounds = [c.pair(L) / -d for c in classes if (d := c.pair(new_D)) < 0]
    eps = min(bounds) / 2 if bounds else Fraction(1)
    return tuple(a + eps * d for a, d in zip(L.coeffs, new_D.coeffs))


def _negative_contraction(m: FanMap, negative):
    """(class, contraction) of `run_mmp`'s ray selection.  The D-negative
    classes `negative` with a negative coefficient, whose contractions are
    birational (Reid 1983), come first, then the rest, each part in sorted
    order; the first that `contract` does not refuse is contracted."""
    pairs = contracted_walls(m)
    for c in sorted(negative, key=lambda c: min(c.coeffs) >= 0):
        try:
            return c, contract(m, [w for w, d in pairs if d == c])
        except NotExtremal:
            pass
    raise InvariantBreach("divisor not nef but no negative extremal ray")


# ---------------------------------------------------------------------------
# face contraction (ample model of a nef divisor)
# ---------------------------------------------------------------------------

def contract_face(m: FanMap, D: InvariantDivisor):
    """Merge across every contracted wall where D pairs to zero; the result
    is the D-ample model (possibly non-simplicial).  Returns
    (fan, contraction map, descended divisor)."""
    verdict = nefness(D, m)
    if not verdict.nef:
        raise PreconditionError("divisor is not nef over the base")
    F = m.source
    pairs = contracted_walls(m)
    zero_walls = [w for w, c in pairs if c.pair(D) == 0]
    if not zero_walls:
        return F, identity_map(F, F), InvariantDivisor(D.coeffs)
    groups = _merge_groups(F, zero_walls)
    merged = [tuple(sorted(set(itertools.chain.from_iterable(g))))
              for g in groups if len(g) > 1]
    for rayset in merged:
        # D must descend: one covector fits the whole merged cone, so the
        # coefficients add no rank to its rays
        rows = [F.rays[i] for i in rayset]
        if xl.rank(rows) != xl.rank([r + (-D.coeffs[i],)
                                     for r, i in zip(rows, rayset)]):
            raise InvariantBreach("divisor does not descend to the merged cone")
    for rayset in merged:
        gens = list(F.cone_gens(rayset))
        if xl.cone_contains_line(gens):
            # a D-trivial face may carry several relations, so the lines
            # come from this cone's positive circuits, not from one relation
            lines = [gens[k] for k in xl.positive_circuit_indices(gens)]
            return _contract_fibration_face(m, D, lines)
    index, cones = {}, []
    for g in groups:
        rayset = tuple(sorted(set(itertools.chain.from_iterable(g))))
        gens = F.cone_gens(rayset)
        keep = list(rayset)
        if len(g) > 1 and gens:
            keep = [rayset[k] for k in sorted(xl.extreme_rays(gens))]
        cones.append(index_rays(index, [F.rays[i] for i in keep]))
    Z = certify_fan(Fan(F.rank, tuple(index), tuple(sorted(set(cones)))),
                    "ample model fan")
    coeff_at = dict(zip(F.rays, D.coeffs))
    Dz = InvariantDivisor(tuple(coeff_at[r] for r in Z.rays))
    return Z, identity_map(F, Z), Dz


def _contract_fibration_face(m: FanMap, D: InvariantDivisor, lines):
    """Ample model when the D-trivial face is a fibration: a merged cone
    contains the lines spanned by `lines`, so the model lives in a quotient
    lattice."""
    P, Z = _fibration(m, lines)
    Dz = InvariantDivisor(())
    if Z.rank > 0:
        Dz = pullback(FanMap(_section_of_projection(P), Z, m.source), D)
    return Z, FanMap(P, m.source, Z), Dz


# ---------------------------------------------------------------------------
# negativity oracle
# ---------------------------------------------------------------------------

def verify_negativity(mu_side, nu_side) -> InvariantDivisor:
    """Negativity-lemma oracle.

    Each side is (Fan X, FanMap X->W, divisor).  Checks the hypotheses
    (equal pushforwards on common rays; -D strictly nef over W on the first
    side, D' strictly nef over W on the second), builds the common
    refinement Z, and certifies E = (pullback of D) - (pullback of D') to be
    effective, supported away from the rays of W, and nonzero whenever
    either side is a non-trivial modification.
    """
    X, f, D = mu_side
    Xp, g, Dp = nu_side
    if f.target.canonical() != g.target.canonical():
        raise PreconditionError("the two sides must share the small target")
    W = f.target
    common = set(X.rays) & set(Xp.rays)
    for r in common:
        if D.coeffs[X.rays.index(r)] != Dp.coeffs[Xp.rays.index(r)]:
            raise PreconditionError(
                f"pushforwards disagree at common ray {r}")
    v1 = nefness(D.scale(-1), f, strict=True)
    if not (v1.nef and v1.strict):
        raise PreconditionError("-D is not strictly nef over the small target")
    v2 = nefness(Dp, g, strict=True)
    if not (v2.nef and v2.strict):
        raise PreconditionError("D' is not strictly nef over the small target")
    Z, mu, nu = common_refinement(X, Xp)
    E = pullback(mu, D) - pullback(nu, Dp)
    if not E.is_effective():
        raise InvariantBreach("negativity failed: E has a negative coefficient")
    w_rays = set(W.rays)
    for r, e in zip(Z.rays, E.coeffs):
        if e != 0 and r in w_rays:
            raise InvariantBreach("E is not exceptional over the small target")
    nontrivial = (X.canonical() != W.canonical()
                  or Xp.canonical() != W.canonical())
    if nontrivial and E.is_zero():
        raise InvariantBreach("E vanishes although a side is non-trivial")
    return E
