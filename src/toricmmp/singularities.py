"""Discrepancies and the terminal / canonical / klt / lc classification.

With the pinned sign convention the pair divisor B = K + D has coefficients
b_rho = -1 + d_rho and support function psi_B with psi_B(v_rho) = -b_rho;
the discrepancy of the exceptional divisor obtained by subdividing at a
primitive v is a(v) = -1 + psi_B(v).  On an existing ray with D = 0 this is
exactly 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import exactlin as xl
from .errors import InputError
from .record import record
from .fan import Fan, cone_facets, cone_span_perp
from .divisor import (InvariantDivisor, canonical_divisor, check_divisor,
                      support_function, NotQCartier)


def _pair_support(F: Fan, D: InvariantDivisor):
    B = canonical_divisor(F) + D
    return support_function(F, B)


def discrepancy(F: Fan, D: InvariantDivisor, v) -> Fraction:
    """Exact discrepancy of the divisor extracted by star-subdividing at the
    primitive vector v; requires K + D Q-Cartier and v in the support."""
    check_divisor(F, D)
    v = xl.integers(v)
    if tuple(xl.primitive(v)) != v:
        raise InputError(f"{v} is not primitive")
    psi = _pair_support(F, D)
    return Fraction(-1) + psi.value(v)


@record
class PairClassification:
    verdict: str  # terminal | canonical | klt | lc | not-lc | not-Q-Cartier
    witness: Optional[tuple] = None
    min_discrepancy: Optional[Fraction] = None


def _low_discrepancy_points(F: Fan, psi):
    """Primitive lattice points v != 0 in some maximal cone with
    psi_K(v) <= 1 (i.e. discrepancy <= 0), ray generators excluded."""
    found = {}
    rayset = set(F.rays)
    for cone, m in zip(F.max_cones, psi.covectors):
        gens = F.cone_gens(cone)
        if not gens:
            continue
        normals = list(cone_facets(gens))
        offsets = [0] * len(normals)
        for z in cone_span_perp(gens):
            normals += [z, tuple(-c for c in z)]
            offsets += [0, 0]
        normals.append(tuple(-c for c in m))
        offsets.append(1)  # psi(v) = <m,v> <= 1
        H = xl.HalfspaceSystem(tuple(normals), tuple(offsets))
        for p in xl.lattice_points(H):
            if xl.is_zero(p) or p in rayset:
                continue
            if tuple(xl.primitive(p)) != p:
                continue
            found[p] = Fraction(-1) + Fraction(xl.dot(m, p))
    return found


def classify_pair(F: Fan, D: InvariantDivisor) -> PairClassification:
    """Threshold classification of the toric pair.

    Coefficients below 1 (at most 1) plus Q-Cartier K+D give klt (lc)
    outright; the finer terminal/canonical split is decided for D = 0 by
    enumerating the primitive lattice points of discrepancy <= 0 per cone.
    """
    check_divisor(F, D)
    for c in D.coeffs:
        if c < 0 or c > 1:
            raise InputError("pair coefficients must lie in [0, 1]")
    try:
        psi = _pair_support(F, D)
    except NotQCartier as e:
        return PairClassification("not-Q-Cartier", witness=tuple(e.cone))
    if not D.is_zero():
        verdict = "klt" if all(c < 1 for c in D.coeffs) else "lc"
        return PairClassification(verdict)
    low = _low_discrepancy_points(F, psi)
    if not low:
        return PairClassification("terminal")
    worst = min(low.values())
    witness = min(p for p, a in low.items() if a == worst)
    if worst == 0:
        return PairClassification("canonical", witness=witness,
                                  min_discrepancy=worst)
    return PairClassification("klt", witness=witness, min_discrepancy=worst)
