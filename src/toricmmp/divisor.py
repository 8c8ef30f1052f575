"""Torus-invariant Q-divisors and their support functions.

Sign convention, pinned once for the whole package: the support function of
D = sum d_rho D_rho satisfies psi_D(v_rho) = -d_rho.  Everything downstream
(section polytopes, pullback, nef tests) is derived from this single choice.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import exactlin as xl
from .errors import InputError, PreconditionError
from .record import record
from .fan import Fan, FanMap, cone_contains


def parse_rational(s) -> Fraction:
    """An int, a Fraction or a rational string ("-3/7", "1.5") as a
    Fraction; InputError on anything else, a float or a bool included."""
    if isinstance(s, (int, Fraction)) and not isinstance(s, bool):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"bad rational {s!r}: {e}")
    raise InputError(f"bad rational {s!r}")


class NotQCartier(PreconditionError):
    """Raised when no per-cone covector exists; carries the witness cone."""

    def __init__(self, cone):
        super().__init__(f"divisor is not Q-Cartier: no covector on cone {cone}")
        self.cone = cone


@record
class InvariantDivisor:
    coeffs: tuple

    def __post_init__(self):
        # a Fraction is immutable, so it is kept; an int is converted, and
        # anything else is parsed (`parse_rational`)
        object.__setattr__(self, "coeffs", tuple(
            c if c.__class__ is Fraction else Fraction(c) if c.__class__ is int
            else parse_rational(c) for c in self.coeffs))

    def __add__(self, other):
        return InvariantDivisor(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return InvariantDivisor(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c):
        return InvariantDivisor(tuple(Fraction(c) * a for a in self.coeffs))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_effective(self):
        return all(c >= 0 for c in self.coeffs)


def zero_divisor(F: Fan) -> InvariantDivisor:
    return InvariantDivisor((Fraction(0),) * len(F.rays))


def canonical_divisor(F: Fan) -> InvariantDivisor:
    """K = -sum of all prime invariant divisors."""
    return InvariantDivisor((Fraction(-1),) * len(F.rays))


def check_divisor(F: Fan, D: InvariantDivisor):
    if len(D.coeffs) != len(F.rays):
        raise InputError("coefficient count does not match ray count")


@record
class SupportFunction:
    """Per maximal cone a covector m_sigma with <m_sigma, v_rho> = -d_rho."""
    covectors: tuple  # aligned with fan.max_cones
    cartier_index: int
    fan: Fan

    def value(self, v) -> Fraction:
        for cone, m in zip(self.fan.max_cones, self.covectors):
            if cone_contains(self.fan.cone_gens(cone), v):
                return Fraction(xl.dot(m, v))
        raise PreconditionError(f"{tuple(v)} lies outside the fan support")


def _covector(F: Fan, D: InvariantDivisor, cone) -> tuple:
    """(m, l): a covector with <m, v_rho> = -d_rho on the rays of `cone`,
    by one Smith form (`exactlin.smith_solve`), and the least l >= 1 making
    l m integral; NotQCartier with the cone when there is none."""
    if not cone:
        return (Fraction(0),) * F.rank, 1
    solved = xl.smith_solve([F.rays[i] for i in cone],
                            [-D.coeffs[i] for i in cone])
    if solved is None:
        raise NotQCartier(cone)
    return solved


@lru_cache(maxsize=None)
def support_function(F: Fan, D: InvariantDivisor) -> SupportFunction:
    """Solve <m, v_rho> = -d_rho on every maximal cone (`_covector`);
    raises NotQCartier with the witness cone when some system is
    inconsistent.  The Cartier index is the least l >= 1 making every
    covector of lD integral: the lcm of the cones' indices."""
    check_divisor(F, D)
    covectors = []
    index = 1
    for cone in F.max_cones:
        m, ell = _covector(F, D, cone)
        covectors.append(m)
        index = math.lcm(index, ell)
    return SupportFunction(tuple(covectors), index, F)


def pullback(m: FanMap, D: InvariantDivisor) -> InvariantDivisor:
    """Pullback along a refinement or resolution: coefficient at a source ray
    v is -psi_D(A v).  D must be Q-Cartier on the target: a non-simplicial
    target runs the whole `support_function` first, for its NotQCartier
    and witness cone; on a simplicial one every D is.  Then psi_D is read
    only where needed: an image k v_j on target ray j gets k d_j, as every
    covector meets <m, v_j> = -d_j, and any other image the covector
    (`_covector`) of the first maximal cone holding it, the cone
    `SupportFunction.value` reads (PreconditionError when none does)."""
    check_divisor(m.target, D)
    T = m.target
    if not T.is_simplicial():
        support_function(T, D)  # NotQCartier, with its witness cone
    index = {r: j for j, r in enumerate(T.rays)}
    covectors = {}
    out = []
    for v in m.source.rays:
        image = m.apply(v)
        k = math.gcd(*image)
        j = index.get(tuple(a // k for a in image)) if k else None
        if j is not None:
            out.append(k * D.coeffs[j])
            continue
        cone = next((c for c in T.max_cones
                     if cone_contains(T.cone_gens(c), image)), None)
        if cone is None:
            raise PreconditionError(f"{image} lies outside the fan support")
        if cone not in covectors:
            covectors[cone] = _covector(T, D, cone)[0]
        out.append(-Fraction(xl.dot(covectors[cone], image)))
    return InvariantDivisor(tuple(out))


def pushforward(m: FanMap, D: InvariantDivisor) -> InvariantDivisor:
    """Drop coefficients at rays without a counterpart downstairs; the map
    must send every surviving ray onto a target ray.  Each source ray is
    mapped once."""
    check_divisor(m.source, D)
    landing = {}
    for v, d in zip(m.source.rays, D.coeffs):
        image = m.apply(v)
        if not xl.is_zero(image):
            landing.setdefault(xl.primitive(image), set()).add(d)
    out = []
    for w in m.target.rays:
        vals = landing.get(w)
        if not vals:
            raise PreconditionError(f"target ray {w} has no preimage ray")
        if len(vals) > 1:
            raise PreconditionError(f"ambiguous pushforward coefficient at {w}")
        out.append(vals.pop())
    return InvariantDivisor(tuple(out))


def sections_polytope(F: Fan, D: InvariantDivisor) -> xl.HalfspaceSystem:
    """P_D = {u : <u, v_rho> + d_rho >= 0 for every ray}, the polyhedron of
    section monomials."""
    check_divisor(F, D)
    return xl.HalfspaceSystem(tuple(F.rays), tuple(D.coeffs))


def sections_basis(F: Fan, D: InvariantDivisor, box=None) -> list:
    """Lattice points of P_D, sorted.  Without a `box` [(lo, hi), ...] P_D
    must be bounded or empty (checked; without rays it is the whole space);
    with one, the points in the box."""
    if box is None and F.rank and not F.rays:
        raise PreconditionError("polyhedron is unbounded; pass a box")
    return xl.lattice_points(sections_polytope(F, D), box=box)


def round_down(D: InvariantDivisor) -> InvariantDivisor:
    return InvariantDivisor(tuple(Fraction(math.floor(c)) for c in D.coeffs))
