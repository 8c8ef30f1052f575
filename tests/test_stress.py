"""Opt-in stress run of the MMP on larger seeded fans.

Left out of the default run by the `slow` marker; run it with

    python3 -m pytest -m slow -s tests/test_stress.py

Each instance is a seeded `corpus.random_complete_fan` (rank 3 with up to 9
rays, or rank 4) mapped to a point, with a `corpus.random_divisor`.  The MMP
must end, and its certificates are re-checked as in the acceptance corpus:
nefness at a minimal end and negativity on every replayed flip.  The time
per instance is printed, to find worst cases.  The seeds are fixed and are
not to be chosen by their outcome.
"""

import random
import time

import pytest

from test_acceptance import _check_flip_steps
from toricmmp import corpus
from toricmmp.curves import nefness
from toricmmp.fan import map_to_point
from toricmmp.mmp import run_mmp

CASES = [(3, nrays) for nrays in range(5, 10)] + [(4, nrays) for nrays in (6, 7)]
SEEDS = range(3)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("rank,nrays", CASES)
def test_mmp_stress(rank, nrays, seed):
    rng = random.Random(1000 * seed + 10 * rank + nrays)
    start = time.perf_counter()
    F = corpus.random_complete_fan(rng, rank, nrays)
    m = map_to_point(F)
    D = corpus.random_divisor(rng, F)
    trace = run_mmp(m, D)
    assert trace.outcome in ("minimal", "fano")
    if trace.outcome == "minimal":
        assert nefness(trace.final_divisor, trace.final_map).nef
    _check_flip_steps(m, D, trace)
    steps = ",".join(s.kind for s in trace.steps) or "none"
    print(f"\nrank {rank}, {len(F.rays)} rays, seed {seed}: steps {steps}, "
          f"{trace.outcome}, {time.perf_counter() - start:.2f} s")
