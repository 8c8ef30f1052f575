import sys
from functools import lru_cache

import pytest

from toricmmp import corpus
from toricmmp.fan import Fan, FanMap, identity_map, map_to_point


def termination_instances(seed, count):
    """`corpus.termination_instances(seed, count)`, built once per session.
    Its maps and divisors are immutable and cache nothing on the instance
    (`test_caches`), so tests can share them; a test that counts LPs, cache
    hits or fallbacks clears the package caches first, whether or not the
    build warmed them (`clear_package_caches`)."""
    return _built(corpus.termination_instances, seed, count)


def affine_instances(seed, count):
    """`corpus.affine_instances(seed, count)`, built once per session."""
    return _built(corpus.affine_instances, seed, count)


@lru_cache(maxsize=None)
def _built(build, seed, count):
    return tuple(build(seed, count))


def clear_package_caches():
    """Empty every process-global cache of the package: each `functools`
    cache a loaded module of it holds (`test_caches` pins them to the ones
    the benchmark clears)."""
    for name, module in list(sys.modules.items()):
        if name.startswith("toricmmp."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.fixture
def orthant2():
    return Fan(2, ((1, 0), (0, 1)), ((0, 1),))


@pytest.fixture
def p2():
    return Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))


@pytest.fixture
def f1():
    # Hirzebruch surface, one-point blow-up of the plane
    return Fan(2, ((1, 0), (0, 1), (-1, 1), (0, -1)),
               ((0, 1), (1, 2), (2, 3), (0, 3)))


@pytest.fixture
def blowup2():
    return Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 2), (1, 2)))


@pytest.fixture
def blowup_map(blowup2, orthant2):
    return FanMap(((1, 0), (0, 1)), blowup2, orthant2)


QUADRIC_RAYS = ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))


@pytest.fixture
def quadric_cone_fan():
    return Fan(3, QUADRIC_RAYS, ((0, 1, 2, 3),))


@pytest.fixture
def quadric_tri_a():
    # diagonal through rays 0 and 3
    return Fan(3, QUADRIC_RAYS, ((0, 1, 3), (0, 2, 3)))


@pytest.fixture
def quadric_tri_b():
    return Fan(3, QUADRIC_RAYS, ((0, 1, 2), (1, 2, 3)))


@pytest.fixture
def quadric_map_a(quadric_tri_a, quadric_cone_fan):
    return FanMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                  quadric_tri_a, quadric_cone_fan)


@pytest.fixture
def corpus65_map():
    # the pre-flip state of corpus instance 65
    # (termination_instances(seed=20240801, count=100)): a 3-fold over the
    # orthant
    return FanMap(
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 2, 1), (2, 4, 3)),
            ((0, 1, 3), (0, 2, 4), (0, 3, 4), (2, 3, 4))),
        Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 2),)))


@pytest.fixture
def a1_cone_fan():
    return Fan(2, ((1, 0), (1, 2)), ((0, 1),))


@pytest.fixture
def a1xp1_over_a1():
    source = Fan(2, ((1, 0), (0, 1), (0, -1)), ((0, 1), (0, 2)))
    base = Fan(1, ((1,),), ((0,),))
    return FanMap(((1, 0),), source, base)
