"""Opt-in stress run of the MMP on larger seeded fans.

Left out of the default run by the `slow` marker; run it with

    python3 -m pytest -m slow -s tests/test_stress.py

Each instance is a seeded `corpus.random_complete_fan` (rank 3 with up to 9
rays, or rank 4, 5 or 6) mapped to a point, with a `corpus.random_divisor`.
The MMP must end, and its certificates are re-checked as in the acceptance
corpus: nefness at a minimal end and negativity on every replayed flip.
Each step's contraction must also equal the LP oracle's (`mmp_oracle`),
each map's contracted walls, classes and ample certificate the replaced
paths' (`fan_oracle.check_contracted`), and each map's supporting divisors
and flipping target the replaced paths' (`fan_oracle.check_supporting`).
The ample certificate `run_mmp` holds for each map it reaches, carried from
the step before or found by the LP fallback, must be strictly positive on
every class of `fan_oracle.contracted_walls`, and each map a step builds
must carry the whole-map flags, walls and fan verdict
(`mmp_oracle.check_successor`).  The run and the flip replay are
cross-checked against the paths the replay's checks replaced
(`replay_oracle.cross_checked`).  The two whole-fan oracles
share their verdicts on pairs of cones (`fan_oracle.shared_pair_verdicts`).
The time and the fallbacks per instance are printed, to find worst cases.
The seeds are fixed and are not to be chosen by their outcome.
"""

import random
import time

import pytest

import fan_oracle
import mmp_oracle
import replay_oracle
from test_acceptance import _check_flip_steps
from toricmmp import corpus
from toricmmp import exactlin as xl
from toricmmp import mmp
from toricmmp.curves import nefness
from toricmmp.fan import map_to_point

CASES = ([(3, nrays) for nrays in range(5, 10)] + [(4, nrays) for nrays in (6, 7)]
         + [(5, nrays) for nrays in (7, 8)] + [(6, 8)])
SEEDS = range(3)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("rank,nrays", CASES)
def test_mmp_stress(rank, nrays, seed, monkeypatch):
    rng = random.Random(1000 * seed + 10 * rank + nrays)
    start = time.perf_counter()
    F = corpus.random_complete_fan(rng, rank, nrays)
    m = map_to_point(F)
    D = corpus.random_divisor(rng, F)
    held = []  # (map, carried candidate or None, certificate held)
    orig = mmp.mori_classes

    def classes(cur, ample=None):
        out = orig(cur, ample)
        held.append((cur, ample, out[2]))
        return out

    monkeypatch.setattr(mmp, "mori_classes", classes)
    with replay_oracle.cross_checked() as (_, mismatches):
        trace = mmp.run_mmp(m, D)
        monkeypatch.undo()
        assert trace.outcome in ("minimal", "fano")
        if trace.outcome == "minimal":
            assert nefness(trace.final_divisor, trace.final_map).nef
        for cur, _, ample in held:
            assert all(xl.dot(c.coeffs, ample) > 0
                       for _, c in fan_oracle.contracted_walls(cur)), cur
        for cur, _, _ in held[1:]:
            mmp_oracle.check_successor(cur)
        with fan_oracle.shared_pair_verdicts():
            _check_flip_steps(m, D, trace)
            for cur, cls in mmp_oracle.step_maps(m, trace):
                mmp_oracle.check_contraction(cur, cls)
                fan_oracle.check_contracted(cur)
                fan_oracle.check_supporting(cur, cls)
            fan_oracle.check_contracted(trace.final_map)
    assert mismatches == []
    fallbacks = sum(a is not None and a != got for _, a, got in held)
    steps = ",".join(s.kind for s in trace.steps) or "none"
    print(f"\nrank {rank}, {len(F.rays)} rays, seed {seed}: steps {steps}, "
          f"{trace.outcome}, {len(held) - 1} carried, {fallbacks} fallbacks, "
          f"{time.perf_counter() - start:.2f} s")
