import random
from fractions import Fraction

import pytest

import fan_oracle
from toricmmp import exactlin as xl
from toricmmp import newton as nt
from toricmmp.errors import InputError
from toricmmp.fan import validate_fan

CUSP = ((2, 0), (0, 3))             # x^2 + y^3
A1_SURFACE = ((2, 0, 0), (0, 2, 0), (0, 0, 2))


def test_check_exponents():
    with pytest.raises(InputError):
        nt.check_exponents(())
    with pytest.raises(InputError):
        nt.check_exponents(((1, 0), (0, -1)))
    with pytest.raises(InputError):
        nt.check_exponents(((1, 0), (0, 1, 1)))


def test_ord_value():
    assert nt.ord_value(CUSP, (1, 1)) == 2
    assert nt.ord_value(CUSP, (3, 2)) == 6
    assert nt.ord_value(CUSP, (1, 0)) == 0
    assert nt.ord_value(A1_SURFACE, (1, 1, 1)) == 2


def test_newton_polytope_cusp():
    H = nt.newton_polytope(CUSP)
    facets = sorted(zip(H.normals, H.offsets))
    # one slanted facet 3x + 2y >= 6, plus the two coordinate halfplanes
    assert ((3, 2), Fraction(-6)) in facets
    assert ((1, 0), Fraction(0)) in facets
    assert ((0, 1), Fraction(0)) in facets
    assert len(facets) == 3
    # containment test: all exponents satisfy every facet
    for m in CUSP:
        for nrm, off in zip(H.normals, H.offsets):
            assert xl.dot(nrm, m) + off >= 0


def test_newton_polytope_a1():
    H = nt.newton_polytope(A1_SURFACE)
    facets = sorted(zip(H.normals, H.offsets))
    assert ((1, 1, 1), Fraction(-2)) in facets
    assert len(facets) == 4


def test_normal_fan_cusp():
    F = nt.normal_fan(CUSP)
    assert validate_fan(F) == []
    assert (3, 2) in F.rays
    assert len(F.max_cones) == 2
    # support is the full orthant
    from toricmmp.fan import cone_covered_by_gens
    assert cone_covered_by_gens(((1, 0), (0, 1)),
                                [F.cone_gens(c) for c in F.max_cones])


def test_normal_fan_a1():
    F = nt.normal_fan(A1_SURFACE)
    assert validate_fan(F) == []
    # three vertices; all three linearity domains share the ray (1,1,1)
    assert len(F.max_cones) == 3
    assert (1, 1, 1) in F.rays
    nt._assert_ord_linear(A1_SURFACE, F)


def test_normal_fan_single_monomial():
    F = nt.normal_fan(((3, 1),))
    assert len(F.max_cones) == 1  # one vertex: ord is globally linear
    assert sorted(F.rays) == [(0, 1), (1, 0)]


# the germs of the CLI tests and the benchmark's `newton` commands
CLI_GERMS = (CUSP, ((3, 0), (0, 5)), A1_SURFACE)


def test_normal_fan_matches_per_exponent_oracle():
    rng = random.Random(20240801)
    cases = list(CLI_GERMS) + [((0, 0),), ((1, 2), (1, 2), (2, 1))]
    for _ in range(100):
        n = rng.randint(2, 4)
        cases.append(tuple(tuple(rng.randint(0, 5) for _ in range(n))
                           for _ in range(rng.randint(1, 5))))
    for E in cases:
        assert nt.normal_fan(E) == fan_oracle.normal_fan(E), E


def test_ambient_resolution_cusp():
    m = nt.ambient_resolution(CUSP)
    R = m.source
    assert (3, 2) in R.rays
    from toricmmp.fan import cone_lattice_multiplicity
    for c in R.max_cones:
        assert cone_lattice_multiplicity(R.cone_gens(c)) == 1
    nt._assert_ord_linear(CUSP, R)


def test_model_divisor_values():
    m = nt.ambient_resolution(CUSP)
    D = nt.model_divisor(CUSP, m.source, "minimal")
    for v, d in zip(m.source.rays, D.coeffs):
        assert d == -1 - nt.ord_value(CUSP, v)
    Dd = nt.model_divisor(CUSP, m.source, "dlt")
    for v, d, dd in zip(m.source.rays, D.coeffs, Dd.coeffs):
        if v in ((1, 0), (0, 1)):
            assert dd == d
        else:
            assert dd == d + 1
    with pytest.raises(InputError):
        nt.model_divisor(CUSP, m.source, "nope")


def test_model_smooth_exponents_is_trivial():
    # a coordinate hyperplane: ord is linear, nothing happens
    rep = nt.model(((1, 0),), "minimal")
    assert rep.trace.outcome == "minimal"
    assert rep.discrepancies == ()
    assert sorted(rep.model_fan.rays) == [(0, 1), (1, 0)]


@pytest.mark.parametrize("mt", list(nt.MODEL_TYPES))
def test_model_cusp_all_types(mt):
    rep = nt.model(CUSP, mt)
    assert rep.model_type == mt
    assert rep.trace.outcome == "minimal"
    assert rep.nef_certificate.nef
    assert validate_fan(rep.model_fan) == []


def test_model_cusp_discrepancies():
    rep = nt.model(CUSP, "minimal")
    table = dict(rep.discrepancies)
    # the divisorial valuation at (1,1) has a(E) = 1 + 1 - 1 - ord = 2 - 1 - 2
    for v, a in table.items():
        expected = (sum(v) - 1 - nt.ord_value(CUSP, v))
        assert a == expected


def test_model_a1_surface():
    rep = nt.model(A1_SURFACE, "minimal")
    assert rep.trace.outcome == "minimal"
    # every exceptional ray surviving on the minimal model is non-negative
    for v, a in rep.discrepancies:
        assert a >= 0


def test_model_invariant_under_exponent_order():
    a = nt.model(CUSP, "canonical")
    b = nt.model(tuple(reversed(CUSP)), "canonical")
    assert a.model_fan.canonical() == b.model_fan.canonical()
    assert sorted(a.discrepancies) == sorted(b.discrepancies)


def test_discrepancy_formula_a1_surface():
    rep = nt.model(A1_SURFACE, "minimal")
    table = dict(rep.discrepancies)
    if (1, 1, 1) in table:
        # blow-up of the origin: a = 3 - 1 - ord(1,1,1) = 0 for multiplicity 2
        assert table[(1, 1, 1)] == 3 - 1 - 2
