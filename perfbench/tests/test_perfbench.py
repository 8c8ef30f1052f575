"""Tests of the benchmark itself: the tail rule, failure counting, and that
tracing changes no result and leaves every wrapped name restored."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import bench_trace as bt  # noqa: E402
import bench_workloads as bw  # noqa: E402
import run  # noqa: E402

import toricmmp.cli  # noqa: E402  (loads every toricmmp module)
from toricmmp import fan  # noqa: E402


def _lattice_instances():
    wl = bw.Lattice()
    inputs = [{"key": "t:0", "rays": [[0, 1], [3, -1]], "divisor": [1, 0]},
              {"key": "t:1", "rays": [[1, 0, 0], [0, 1, 0], [1, 1, 2]],
               "divisor": [0, 1, -1]}]
    return wl, wl.load(inputs)


def _corpus_instances():
    wl = bw.Corpus()
    f1 = {"rank": 2, "rays": [[1, 0], [0, 1], [-1, 1], [0, -1]],
          "cones": [[0, 1], [1, 2], [2, 3], [0, 3]]}
    point = {"rank": 0, "rays": [], "cones": [[]]}
    return wl, wl.load([{"key": "t:f1", "matrix": [], "source": f1,
                         "target": point,
                         "divisor": ["-1", "-1", "-1", "-1"]}])


# -- tail percentile ----------------------------------------------------------

def test_tail_rank_keeps_ten_samples_beyond():
    assert run.tail_rank(100) == 90
    assert run.tail_rank(37) == 27
    assert run.tail_rank(11) == 1
    assert run.tail_rank(10) is None


def test_end_to_end_reads_the_tail_and_median():
    times = [float(i) for i in range(1, 41)]  # 1..40
    m = run.end_to_end([3.0, 1.0, 2.0], [5.0, 7.0], list(reversed(times)),
                       12.5)
    assert m["setup_s"] == 2.0
    assert m["total_s"] == 6.0
    assert m["instance_p50_s"] == 20.5
    assert m["instance_tail_s"] == 30.0  # rank 30: ten samples beyond it
    assert m["slowest_s"] == 40.0
    assert "setup_s" not in run.end_to_end(None, [1.0], times, 1.0)
    with pytest.raises(ValueError):
        run.end_to_end([1.0], [1.0], times[:10], 1.0)


# -- failure counting ---------------------------------------------------------

def test_matching_records_count_no_failure():
    wl, instances = _lattice_instances()
    results = [wl.run(inst) for inst in instances]
    records = {inst[0]: {k: v for k, v in r.items() if k not in wl.unrecorded}
               for inst, r in zip(instances, results)}
    tally = run.Tally()
    for inst, r in zip(instances, results):
        tally.add(inst[0], run.problems_of(wl, inst, r, records))
    assert (tally.attempted, tally.failed) == (2, 0)


def test_corrupted_record_and_error_are_failures():
    wl, instances = _lattice_instances()
    results = [wl.run(inst) for inst in instances]
    records = {inst[0]: {k: v for k, v in r.items() if k not in wl.unrecorded}
               for inst, r in zip(instances, results)}
    records["t:1"]["hilbert_basis"] = records["t:1"]["hilbert_basis"][1:]
    tally = run.Tally()
    tally.add("t:0", run.problems_of(wl, instances[0],
                                     {"error": "ValueError: boom"}, records))
    tally.add("t:1", run.problems_of(wl, instances[1], results[1], records))
    assert (tally.attempted, tally.failed) == (2, 2)
    assert tally.problems["t:1"] == ["result differs from the committed record"]
    assert run.Tally().failed == 0


def test_structural_check_catches_a_reducible_basis_element():
    wl, instances = _lattice_instances()
    result = wl.run(instances[0])
    a, b = result["hilbert_basis"][:2]
    result["hilbert_basis"].append([x + y for x, y in zip(a, b)])
    assert any("reducible" in p for p in wl.check(instances[0], result))


# -- tracing ------------------------------------------------------------------

def _bindings():
    mods = [m for name, m in sys.modules.items()
            if m is not None and name.startswith("toricmmp")]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    out.update({("Fan", k): v for k, v in vars(fan.Fan).items()})
    return out


def test_tracing_changes_no_result_and_restores_every_name():
    before = _bindings()
    caches = bt.cache_objects()
    plain, traced = [], []
    for wl, instances in (_lattice_instances(), _corpus_instances()):
        bt.clear_caches(caches)
        plain += [wl.run(inst) for inst in instances]
        bt.clear_caches(caches)
        tracer = bt.Tracer()
        with tracer:
            assert toricmmp.mmp.run_mmp is not before[("toricmmp.mmp",
                                                       "run_mmp")]
            assert toricmmp.sections.run_mmp is toricmmp.mmp.run_mmp
            assert fan.Fan.support_convex is not before[("Fan",
                                                         "support_convex")]
            traced += [wl.run(inst) for inst in instances]
        agg = tracer.aggregate()
        assert agg["fn"]["mmp.run_mmp"]["calls"] == (1 if wl.name == "corpus"
                                                     else 0)
    after = _bindings()
    assert traced == plain
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_layer_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    tracer = bt.Tracer()
    zero = {name: (0, 0, 0) for name, _mod, _attr in bt.CACHES}
    names = list(bt.layer_metrics(tracer.aggregate(), zero))
    names += ["cli.import_s", "trace.overhead_ratio"]
    assert [m["name"] for m in spec["per_layer"]] == names
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    e2e = run.end_to_end([1.0], [1.0], [1.0] * 20, 1.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert all(m["unit"] == run.unit_of(m["name"])
               for m in spec["end_to_end"])
