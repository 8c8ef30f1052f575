from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toricmmp import divisor as dv
from toricmmp import exactlin as xl
from toricmmp.divisor import InvariantDivisor, NotQCartier
from toricmmp.errors import InputError, PreconditionError
from toricmmp.fan import Fan, FanMap


def test_algebra():
    D = InvariantDivisor((1, Fraction(1, 2)))
    E = InvariantDivisor((0, Fraction(1, 2)))
    assert (D + E).coeffs == (Fraction(1), Fraction(1))
    assert (D - E).coeffs == (Fraction(1), Fraction(0))
    assert D.scale(2).coeffs == (Fraction(2), Fraction(1))
    assert not D.is_zero() and (D - D).is_zero()
    assert D.is_effective() and not (E - D).is_effective()
    assert [c.denominator for c in (D + E).coeffs + D.coeffs] == [1, 1, 1, 2]


def test_coefficients_are_fractions():
    # a Fraction is kept as it is; ints and rational strings convert
    half = Fraction(1, 2)
    D = InvariantDivisor([3, half, "1", Fraction(4, 2)])
    assert D.coeffs == (3, half, 1, 2)
    assert all(type(c) is Fraction for c in D.coeffs)
    assert D.coeffs[1] is half
    assert InvariantDivisor(D.coeffs) == D


def test_check_divisor(p2):
    with pytest.raises(InputError):
        dv.check_divisor(p2, InvariantDivisor((1, 2)))


def test_support_function_smooth(orthant2):
    D = InvariantDivisor((2, 3))
    psi = dv.support_function(orthant2, D)
    assert psi.covectors == ((-2, -3),)
    assert psi.cartier_index == 1
    assert psi.value((1, 1)) == -5


def test_support_function_a1(a1_cone_fan):
    # D_{rho_0} on the A_1 cone: m = (-1, 1/2), Cartier index 2
    D = InvariantDivisor((1, 0))
    psi = dv.support_function(a1_cone_fan, D)
    assert psi.covectors == ((Fraction(-1), Fraction(1, 2)),)
    assert psi.cartier_index == 2
    # K is Cartier there (Gorenstein)
    psiK = dv.support_function(a1_cone_fan, dv.canonical_divisor(a1_cone_fan))
    assert psiK.cartier_index == 1


def test_not_q_cartier(quadric_cone_fan):
    D = InvariantDivisor((1, 0, 0, 0))
    with pytest.raises(NotQCartier) as ei:
        dv.support_function(quadric_cone_fan, D)
    assert ei.value.cone == (0, 1, 2, 3)
    # the canonical class is Cartier on the quadric cone
    K = dv.canonical_divisor(quadric_cone_fan)
    assert dv.support_function(quadric_cone_fan, K).cartier_index == 1


def test_value_outside_support(orthant2):
    psi = dv.support_function(orthant2, dv.zero_divisor(orthant2))
    with pytest.raises(PreconditionError):
        psi.value((-1, 0))


def test_pullback_blowup(blowup_map):
    # pulling back D_{x} from the plane picks up the exceptional ray once
    D = InvariantDivisor((1, 0))
    up = dv.pullback(blowup_map, D)
    assert up.coeffs == (Fraction(1), Fraction(0), Fraction(1))


def test_pushforward_roundtrip(blowup_map):
    D = InvariantDivisor((Fraction(2), Fraction(-1, 3)))
    up = dv.pullback(blowup_map, D)
    down = dv.pushforward(blowup_map, up)
    assert down.coeffs == D.coeffs


def test_pushforward_missing_ray(orthant2, p2):
    m = FanMap(((1, 0), (0, 1)), orthant2, p2)
    with pytest.raises(PreconditionError):
        dv.pushforward(m, dv.zero_divisor(orthant2))


def test_pushforward_ambiguous_coefficient(blowup2):
    # (x, y) -> x sends the rays (1, 0) and (1, 1) onto one ray
    m = FanMap(((1, 0),), blowup2, Fan(1, ((1,),), ((0,),)))
    assert dv.pushforward(m, InvariantDivisor((2, 5, 2))).coeffs == (2,)
    with pytest.raises(PreconditionError,
                       match="ambiguous pushforward coefficient"):
        dv.pushforward(m, InvariantDivisor((2, 0, 3)))


def test_sections_p2(p2):
    # H = D_{rho_2}: the unit triangle, 3 monomials
    D = InvariantDivisor((0, 0, 1))
    pts = dv.sections_basis(p2, D)
    assert sorted(pts) == [(0, 0), (0, 1), (1, 0)]
    pts = dv.sections_basis(p2, D.scale(2))
    assert len(pts) == 6
    assert dv.sections_basis(p2, dv.canonical_divisor(p2)) == []


def test_sections_unbounded_needs_box(orthant2):
    D = dv.zero_divisor(orthant2)
    with pytest.raises(PreconditionError):
        dv.sections_basis(orthant2, D)
    pts = dv.sections_basis(orthant2, D, box=[(0, 1), (0, 1)])
    assert sorted(pts) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_exceptional_sections_stay_constant(blowup2, blowup_map):
    # P_{mE} = P_0 for the exceptional divisor E, any m >= 0: adding
    # multiples of E never creates sections
    E = InvariantDivisor((0, 0, 1))
    box = [(-6, 6), (-6, 6)]
    base = dv.sections_basis(blowup2, dv.zero_divisor(blowup2), box=box)
    for m in range(4):
        pts = dv.sections_basis(blowup2, E.scale(m), box=box)
        assert pts == base


def test_round_down():
    D = InvariantDivisor((Fraction(3, 2), Fraction(-1, 2), Fraction(2)))
    assert dv.round_down(D).coeffs == (Fraction(1), Fraction(-1), Fraction(2))


def test_principal_divisor(p2):
    D = InvariantDivisor(tuple(xl.dot((1, 0), v) for v in p2.rays))
    assert D.coeffs == (Fraction(1), Fraction(0), Fraction(-1))
    # principal divisors are Cartier with integral covectors
    psi = dv.support_function(p2, D)
    assert psi.cartier_index == 1


rat = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(st.tuples(rat, rat, rat, rat))
@settings(max_examples=40, deadline=None)
def test_simplicial_implies_q_cartier(coeffs):
    F = Fan(2, ((1, 0), (0, 1), (-1, 1), (0, -1)),
            ((0, 1), (1, 2), (2, 3), (0, 3)))
    D = InvariantDivisor(coeffs)
    psi = dv.support_function(F, D)  # never raises on a simplicial fan
    # the covector really interpolates -d on each cone
    for cone, m in zip(F.max_cones, psi.covectors):
        for i in cone:
            assert xl.dot(m, F.rays[i]) == -D.coeffs[i]
    # scaled covectors of index*D are integral
    for cone, m in zip(F.max_cones, psi.covectors):
        for c in m:
            assert (c * psi.cartier_index).denominator == 1
