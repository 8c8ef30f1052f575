"""Compare result files written by `run.py --out`.

    python3 perfbench/compare.py --old a1.json a2.json ... --new b1.json ...

Files on each side are runs of one workload (traced or not).  For every
metric both sides report, prints the median of each side, the change of
the new median against the old one, and the old side's spread (distance
between its quartiles, as a share of its median).  An end-to-end metric
is flagged when the new median is worse than the old one by more than the
bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _metrics(path):
    with open(path) as fh:
        result = json.load(fh)
    return result["workload"], result["end_to_end"] | (result["per_layer"]
                                                        or {})


def _spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--old", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    old = [_metrics(f) for f in args.old]
    new = [_metrics(f) for f in args.new]
    workloads = {w for w, _ in old + new}
    if len(workloads) != 1:
        raise SystemExit(f"files mix workloads: {sorted(workloads)}")
    print(f"workload {workloads.pop()}: {len(old)} old run(s), "
          f"{len(new)} new run(s)")
    print(f"{'metric':<44} {'old':>12} {'new':>12} {'change':>8} "
          f"{'old spread':>10}")
    for name in old[0][1]:
        a = [m[name] for _, m in old if name in m]
        b = [m[name] for _, m in new if name in m]
        if not b:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        change = (mb - ma) / ma if ma else float("nan")
        flag = ""
        if name in spec:
            worse = change if spec[name]["better"] == "lower" else -change
            if worse > spec[name]["bound"]:
                flag = "  WORSE than bound"
        print(f"{name:<44} {ma:12.6g} {mb:12.6g} {change:+8.1%} "
              f"{_spread(a):10.3f}{flag}")


if __name__ == "__main__":
    main()
