import itertools
from fractions import Fraction

import pytest

from toricmmp import divisor as dv
from toricmmp import exactlin as xl
from toricmmp import singularities as sg
from toricmmp.divisor import InvariantDivisor
from toricmmp.errors import InputError
from toricmmp.fan import Fan, cone_contains


def test_discrepancy_a1(a1_cone_fan):
    D = dv.zero_divisor(a1_cone_fan)
    assert sg.discrepancy(a1_cone_fan, D, (1, 1)) == 0


def test_discrepancy_one_third():
    F = Fan(2, ((1, 0), (-1, 3)), ((0, 1),))
    assert sg.discrepancy(F, dv.zero_divisor(F), (0, 1)) == Fraction(-1, 3)


def test_discrepancy_terminal_cone():
    F = Fan(3, ((1, 0, 0), (0, 1, 0), (1, 1, 2)), ((0, 1, 2),))
    assert sg.discrepancy(F, dv.zero_divisor(F), (1, 1, 1)) == Fraction(1, 2)


def test_discrepancy_on_existing_ray(a1_cone_fan):
    D = dv.zero_divisor(a1_cone_fan)
    assert sg.discrepancy(a1_cone_fan, D, (1, 0)) == 0
    assert sg.discrepancy(a1_cone_fan, D, (1, 2)) == 0


def test_discrepancy_requires_primitive(a1_cone_fan):
    with pytest.raises(InputError):
        sg.discrepancy(a1_cone_fan, dv.zero_divisor(a1_cone_fan), (2, 2))


def test_classify_smooth(orthant2, p2):
    assert sg.classify_pair(orthant2, dv.zero_divisor(orthant2)).verdict == "terminal"
    assert sg.classify_pair(p2, dv.zero_divisor(p2)).verdict == "terminal"


def test_classify_a1(a1_cone_fan):
    c = sg.classify_pair(a1_cone_fan, dv.zero_divisor(a1_cone_fan))
    assert c.verdict == "canonical"
    assert c.witness == (1, 1) and c.min_discrepancy == 0


def test_classify_a1_cone_that_is_not_full_dimensional():
    # the A1 cone in a rank-3 lattice: its span rows bound the points, and
    # the verdict is the rank-2 one
    F = Fan(3, ((1, 0, 0), (1, 2, 0)), ((0, 1),))
    c = sg.classify_pair(F, dv.zero_divisor(F))
    assert (c.verdict, c.witness, c.min_discrepancy) == ("canonical",
                                                         (1, 1, 0), 0)


def test_classify_one_third():
    F = Fan(2, ((1, 0), (-1, 3)), ((0, 1),))
    c = sg.classify_pair(F, dv.zero_divisor(F))
    assert c.verdict == "klt"
    assert c.min_discrepancy == Fraction(-1, 3)
    assert c.witness == (0, 1)


def test_classify_terminal_threefold():
    F = Fan(3, ((1, 0, 0), (0, 1, 0), (1, 1, 2)), ((0, 1, 2),))
    c = sg.classify_pair(F, dv.zero_divisor(F))
    assert c.verdict == "terminal"


def test_classify_ordinary_double_point():
    # the 3-fold ordinary double point is terminal (discrepancy +1)
    F = Fan(3, ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)), ((0, 1, 2, 3),))
    c = sg.classify_pair(F, dv.zero_divisor(F))
    assert c.verdict == "terminal"
    assert sg.discrepancy(F, dv.zero_divisor(F), (1, 1, 2)) == 1


def test_classify_a2_canonical():
    F = Fan(2, ((1, 0), (1, 3)), ((0, 1),))
    c = sg.classify_pair(F, dv.zero_divisor(F))
    assert c.verdict == "canonical"
    assert c.min_discrepancy == 0
    assert c.witness in ((1, 1), (1, 2))
    for v in ((1, 1), (1, 2)):
        assert sg.discrepancy(F, dv.zero_divisor(F), v) == 0


def test_classify_not_q_cartier():
    F = Fan(3, ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)), ((0, 1, 2, 3),))
    D = InvariantDivisor((Fraction(1, 2), 0, 0, 0))
    c = sg.classify_pair(F, D)
    assert c.verdict == "not-Q-Cartier"
    assert c.witness == (0, 1, 2, 3)


def test_classify_coefficient_thresholds(orthant2):
    assert sg.classify_pair(
        orthant2, InvariantDivisor((Fraction(1, 2), 0))).verdict == "klt"
    assert sg.classify_pair(
        orthant2, InvariantDivisor((1, Fraction(1, 3)))).verdict == "lc"
    with pytest.raises(InputError):
        sg.classify_pair(orthant2, InvariantDivisor((2, 0)))
    with pytest.raises(InputError):
        sg.classify_pair(orthant2, InvariantDivisor((-1, 0)))


def _brute_min_discrepancy(F, bound=4):
    """Minimum discrepancy over primitive points of the support in a box."""
    D = dv.zero_divisor(F)
    best = None
    for p in itertools.product(range(-bound, bound + 1), repeat=F.rank):
        if all(c == 0 for c in p) or tuple(p) in F.rays:
            continue
        if tuple(xl.primitive(p)) != p:
            continue
        if not any(cone_contains(F.cone_gens(c), p) for c in F.max_cones):
            continue
        a = sg.discrepancy(F, D, p)
        if a <= 0 and (best is None or a < best):
            best = a
    return best


@pytest.mark.parametrize("rays,mult", [
    (((1, 0), (1, 2)), 2),
    (((1, 0), (-1, 3)), 3),
    (((1, 0), (1, 4)), 4),
    (((1, 0), (2, 5)), 5),
])
def test_classify_matches_brute_force(rays, mult):
    F = Fan(2, rays, ((0, 1),))
    c = sg.classify_pair(F, dv.zero_divisor(F))
    brute = _brute_min_discrepancy(F)
    if c.verdict == "terminal":
        assert brute is None
    else:
        assert c.min_discrepancy == brute
