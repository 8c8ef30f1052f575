"""`record` behaves as `dataclass(frozen=True)` on the package's records."""

import dataclasses
from fractions import Fraction

import pytest

from toricmmp import curves, divisor, exactlin, fan, mmp, newton, sections, \
    singularities
from toricmmp.record import record


def _pair(body):
    """The class `body` defines, made once by `record` and once by
    `dataclass(frozen=True)`, both named Point."""
    made = []
    for decorate in (record, dataclasses.dataclass(frozen=True)):
        ns = {}
        exec(body, ns)
        made.append(decorate(ns["Point"]))
    return made


BODY = """
class Point:
    x: int
    y: tuple
    label: str = "p"
    note: object = None

    def __post_init__(self):
        object.__setattr__(self, "y", tuple(self.y))
"""


@pytest.mark.parametrize("args,kwargs", [
    ((1, [2, 3]), {}),
    ((1, (2,), "q"), {}),
    ((1,), {"y": [4], "note": Fraction(1, 2)}),
    ((), {"note": 0, "label": "r", "y": (), "x": -1}),
    ((1, (2, 3), "p", None), {}),
])
def test_record_matches_frozen_dataclass(args, kwargs):
    R, D = _pair(BODY)
    r, d = R(*args, **kwargs), D(*args, **kwargs)
    assert repr(r) == repr(d)
    assert hash(r) == hash(d)
    assert vars(r) == vars(d)
    assert r == R(*args, **kwargs) and not r != R(*args, **kwargs)
    assert r != d  # another class
    assert r != R(2, (5,))
    for obj in (r, d):
        with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
            obj.x = 0
        with pytest.raises(AttributeError, match="cannot assign to field 'z'"):
            obj.z = 0
        with pytest.raises(AttributeError, match="cannot delete field 'x'"):
            del obj.x


@pytest.mark.parametrize("args,kwargs", [
    ((), {}), ((1,), {}), ((1, (2,), "p", None, 5), {}),
    ((1, (2,)), {"x": 1}), ((1, (2,)), {"colour": 1}),
])
def test_record_rejects_what_dataclass_rejects(args, kwargs):
    for cls in _pair(BODY):
        with pytest.raises(TypeError,
                           match="missing|takes|unexpected|multiple"):
            cls(*args, **kwargs)


def test_one_field():
    R, D = _pair("class Point:\n    x: tuple\n")
    r, d = R((1, 2)), D((1, 2))
    assert (repr(r), hash(r)) == (repr(d), hash(d))
    assert r == R((1, 2)) and r != R((1, 3))


def test_package_records_hash_and_repr_as_dataclasses_did():
    P2 = fan.Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
    D = divisor.InvariantDivisor((1, Fraction(1, 2), 0))
    assert P2.max_cones == ((0, 1), (1, 2), (0, 2))
    assert hash(P2) == hash((P2.rank, P2.rays, P2.max_cones))
    assert hash(D) == hash((D.coeffs,))
    assert repr(D) == ("InvariantDivisor(coeffs=(Fraction(1, 1), "
                       "Fraction(1, 2), Fraction(0, 1)))")
    step = mmp.MMPStep(**{n: None for n in mmp.MMPStep.__annotations__})
    assert repr(step).startswith("MMPStep(kind=None, ")
    with pytest.raises(AttributeError):
        P2.rank = 3
    for cls in (curves.CurveClass, curves.NECone, curves.NefVerdict,
                divisor.InvariantDivisor, divisor.SupportFunction,
                exactlin.HalfspaceSystem, fan.Fan, fan.FanMap,
                fan.MorphismFlags, fan.Wall, mmp.ContractionResult,
                mmp.MMPStep, mmp.MMPTrace, newton.ModelReport,
                sections.ZariskiResult,
                sections.CKMVerdict, singularities.PairClassification):
        assert cls.__init__.__qualname__ == cls.__qualname__ + ".__init__"
