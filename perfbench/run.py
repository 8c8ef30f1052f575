"""toricmmp benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Set-up (a fresh interpreter that imports toricmmp and generates the
workload's inputs) runs three times and is reported as a median.  The timed
section then runs whole passes over the instances, in an order drawn from
`--seed`, with toricmmp's caches cleared before each pass, while another
pass fits into `--seconds`; a second pass always runs when one pass fits.
Per-instance times are medians over passes.  Times are normalised for the host's speed (bench_clock.py).
With `--trace 1` one more pass runs with every toricmmp entry point wrapped,
and the per-layer metrics are printed instead of the end-to-end ones.  The
last line of stdout is one JSON object.

`--workload all` runs each workload in its own interpreter and prints every
end-to-end metric; `--out FILE` also writes the full result as JSON;
`--write-records` rewrites the committed expected results of the default
instances.  NOTES.md has the details.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3
IMPORT_REPEATS = 5
E2E_UNITS = {"setup_s": "s", "total_s": "s", "instance_p50_s": "s",
             "instance_tail_s": "s", "slowest_s": "s", "peak_rss_mb": "MB"}


def tail_rank(n):
    """1-based rank of the tail sample: the highest percentile that still
    has at least ten samples beyond it.  None below eleven samples."""
    return n - 10 if n > 10 else None


def end_to_end(setup_samples, pass_seconds, instance_seconds, peak_rss_mb):
    """The end-to-end metrics; `setup_s` is left out when set-up was not
    timed (traced runs)."""
    times = sorted(instance_seconds)
    rank = tail_rank(len(times))
    if rank is None:
        raise ValueError("the tail needs at least eleven instances")
    out = {}
    if setup_samples:
        out["setup_s"] = statistics.median(setup_samples)
    out["total_s"] = statistics.median(pass_seconds)
    out["instance_p50_s"] = statistics.median(times)
    out["instance_tail_s"] = times[rank - 1]
    out["slowest_s"] = times[-1]
    out["peak_rss_mb"] = peak_rss_mb
    return out


def unit_of(metric):
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_per_step")):
        return "ratio"
    return "count"


def provenance():
    load = os.getloadavg()
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha, dirty = "unknown", None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout.strip()
        dirty = bool(subprocess.run(["git", "status", "--porcelain"],
                                    cwd=ROOT, capture_output=True, text=True,
                                    timeout=30, check=True).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count(), "git_sha": sha, "git_dirty": dirty,
            "loadavg_start": list(load)}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def emit_inputs(name, instances_seed, probe_fd):
    """Set-up child: generate the inputs under a speed probe, print them and
    report the probe to `probe_fd`."""
    import bench_clock
    probe = bench_clock.SpeedProbe(period=0.005)
    with probe:
        import bench_workloads as bw
        text = json.dumps(bw.WORKLOADS[name]().make_inputs(instances_seed))
    sys.stdout.write(text)
    with os.fdopen(probe_fd, "w") as fh:
        json.dump({"probe": probe.stats()}, fh)


def run_setups(name, instances_seed, probe):
    """`SETUP_REPEATS` fresh set-up interpreters as spans (see `run_pass`),
    and the inputs they generated (which must agree)."""
    import bench_clock
    spans, outputs = [], set()
    for _ in range(SETUP_REPEATS):
        start = probe.mark()
        proc, report = bench_clock.run_probed(
            lambda fd: [sys.executable, os.path.abspath(__file__),
                        "--emit-inputs", "--probe-fd", str(fd),
                        "--workload", name,
                        "--instances-seed", str(instances_seed)],
            capture_output=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.decode()[-2000:]}")
        spans.append((start, probe.mark(), report["probe"]))
        outputs.add(proc.stdout)
    if len(outputs) != 1:
        raise RuntimeError("set-up is not deterministic")
    return spans, json.loads(outputs.pop())


def bare_import_seconds():
    """Median time of an interpreter that imports toricmmp.cli, minus the
    median time of a bare interpreter."""
    import bench_workloads as bw

    def median_wall(code):
        samples = []
        for _ in range(IMPORT_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=bw.cli_env(),
                           check=True, timeout=60)
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    return median_wall("import toricmmp.cli") - median_wall("pass")


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run_pass(wl, instances, order, probe, on_instance=None):
    """Run every instance once in `order`; returns the spans (probe marks
    around the instance, and the probe stats of the subprocess it ran, if
    any) and the results, both indexed like `instances`."""
    spans = [None] * len(instances)
    results = [None] * len(instances)
    for i in order:
        if on_instance is not None:
            on_instance(i)
        start = probe.mark()
        try:
            results[i] = wl.run(instances[i])
        except Exception as exc:  # counted as a failed operation
            results[i] = {"error": f"{type(exc).__name__}: {exc}"}
        spans[i] = (start, probe.mark(), getattr(wl, "probe_stats", None))
    return spans, results


def problems_of(wl, instance, result, records):
    if "error" in result:
        return [result["error"]]
    problems = wl.check(instance, result)
    expected = records.get(instance[0])
    if expected is not None:
        recorded = {k: v for k, v in result.items() if k not in wl.unrecorded}
        if recorded != expected:
            problems.append("result differs from the committed record")
    return problems


class Tally:
    """Operations attempted and failed, with the problems per instance key.
    A failure is an exception, a failed check or a record mismatch."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = {}

    def add(self, key, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.setdefault(key, []).extend(problems)


def measure(name, seed, seconds, trace, instances_seed):
    import bench_clock
    import bench_trace as bt
    import bench_workloads as bw

    prov = provenance()
    wl = bw.WORKLOADS[name]()
    tracer = bt.Tracer()
    # subprocesses run their own probe; the parent's timer would only
    # compete with them for the CPU
    probe = bench_clock.SpeedProbe()
    probing = probe if name != "cli" else contextlib.nullcontext()
    if trace:
        # set-up runs once, in process and traced; it is timed untraced
        with tracer:
            inputs = wl.make_inputs(instances_seed)
        setup_spans = []
    else:
        setup_spans, inputs = run_setups(name, instances_seed, probe)
    instances = wl.load(inputs)
    order = list(range(len(instances)))
    random.Random(seed).shuffle(order)
    records = bw.load_records(name)
    caches = bt.cache_objects()

    passes = []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        bt.clear_caches(caches)
        with probing:
            passes.append(run_pass(wl, instances, order, probe))
        now = time.perf_counter()
        if now - t_start + (now - t_pass) > seconds and \
                (len(passes) > 1 or now - t_pass > seconds):
            break
    if name == "cli":
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if trace:
        bt.clear_caches(caches)
        if name == "cli":
            layers, traced_spans, traced_results = traced_cli_pass(
                instances, order, probe)
        else:
            with probing, tracer:
                traced_spans, traced_results = run_pass(
                    wl, instances, order, probe,
                    lambda i: setattr(tracer, "instance", i))
            speed = (sum(probe.normalize(a, b) for a, b, _ in traced_spans)
                     / sum(map(raw_seconds, traced_spans)))
            layers = bt.layer_metrics(
                bt.scale_times(tracer.aggregate(), speed),
                bt.cache_counts(caches))

    tally = Tally()
    for _, results in passes:
        for inst, result in zip(instances, results):
            tally.add(inst[0], problems_of(wl, inst, result, records))

    def normalized(span):
        start, end, child = span
        if child is None:
            return probe.normalize(start, end)
        return bench_clock.normalize_child(end[0] - start[0], child)

    def summary(clock):
        """End-to-end metrics and per-instance seconds under `clock`."""
        per_pass = [[clock(span) for span in spans] for spans, _ in passes]
        per_instance = [statistics.median(p[i] for p in per_pass)
                        for i in range(len(instances))]
        return end_to_end([clock(span) for span in setup_spans],
                          [sum(p) for p in per_pass], per_instance,
                          peak / 1024.0), per_instance

    metrics, per_instance = summary(normalized)
    raw_metrics, raw_per_instance = summary(raw_seconds)

    if trace:
        traced_s = sum(normalized(span) for span in traced_spans)
        layers["cli.import_s"] = bare_import_seconds()
        layers["trace.overhead_ratio"] = traced_s / metrics["total_s"]
        for inst, result, plain in zip(instances, traced_results,
                                       passes[0][1]):
            problems = problems_of(wl, inst, result, records)
            if result != plain:
                problems.append("traced result differs from the untraced one")
            tally.add(inst[0], problems)
    rank = tail_rank(len(per_instance))
    keys = [inst[0] for inst in instances]
    return {"workload": name, "seed": seed, "instances_seed": instances_seed,
            "seconds": seconds, "instances": len(instances),
            "passes": len(passes),
            "tail": {"rank": rank, "of": len(per_instance),
                     "percentile": 100.0 * rank / len(per_instance)},
            "attempted": tally.attempted, "failed": tally.failed,
            "failed_frac": tally.failed / tally.attempted,
            "failures": tally.problems,
            "end_to_end": metrics, "raw_end_to_end": raw_metrics,
            "per_layer": layers if trace else None,
            "instance_seconds": dict(zip(keys, per_instance)),
            "raw_instance_seconds": dict(zip(keys, raw_per_instance)),
            "calibration_units": len(probe.units),
            "provenance": prov}


def raw_seconds(span):
    """Wall seconds of a span, without the calibration units run in it."""
    (t0, s0), (t1, s1), child = span
    return t1 - t0 - (child["spent"] if child is not None else s1 - s0)


def traced_cli_pass(instances, order, probe):
    """Each command traced in its own process; span aggregates (normalised
    with the command's own probe) and cache counters are summed over the
    command processes."""
    import bench_clock
    import bench_trace as bt
    import bench_workloads as bw

    traced = bw.Cli(trace=True)
    spans, results = run_pass(traced, instances, order, probe)
    agg = bt.merge_aggregates(
        bt.scale_times(a["trace"], bench_clock.REF_UNIT_S / a["probe"]["mean"])
        for a in traced.aggregates)
    cache = {}
    for a in traced.aggregates:
        for key, counts in a["cache"].items():
            prev = cache.get(key, (0, 0, 0))
            cache[key] = tuple(x + y for x, y in zip(prev, counts))
    return bt.layer_metrics(agg, cache), spans, results


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def final_line(result, trace):
    metrics = result["per_layer"] if trace else result["end_to_end"]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()}})


def report(result):
    tail = result["tail"]
    print(f"workload {result['workload']}: {result['instances']} instances, "
          f"{result['passes']} pass(es), seed {result['seed']}, "
          f"instances seed {result['instances_seed']}")
    print(f"  {'metric':<18} {'normalised':>12}      {'raw':>12}")
    for k, v in result["end_to_end"].items():
        note = ""
        if k == "instance_tail_s":
            note = (f"  (p{tail['percentile']:.0f}: rank {tail['rank']} "
                    f"of {tail['of']})")
        raw = result["raw_end_to_end"][k]
        print(f"  {k:<18} {v:12.4f} {unit_of(k):<4} {raw:12.4f} "
              f"{unit_of(k)}{note}")
    print(f"  {'failed_frac':<18} {result['failed_frac']:12.4f} ratio"
          f"  ({result['failed']} of {result['attempted']})")
    for key, problems in sorted(result["failures"].items()):
        print(f"  FAILED {key}: {'; '.join(sorted(set(problems)))}")
    if result["per_layer"]:
        for k, v in result["per_layer"].items():
            if v:
                print(f"  {k:<44} {v:14.6f} {unit_of(k)}")
    print("  provenance " + json.dumps(result["provenance"], sort_keys=True))


def run_all(args):
    """Every workload in its own interpreter, one after another."""
    rows, ok, attempted, failed = {}, True, 0, 0
    for name in ("corpus", "lattice", "cli"):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", "0"]
        if args.out:
            argv += ["--out", f"{args.out}.{name}.json"]
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=600)
        sys.stdout.write(proc.stdout[:proc.stdout.rstrip().rfind("\n") + 1])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for k, v in res["metrics"].items():
            rows[f"{name}.{k}"] = v
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": rows}))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["corpus", "lattice", "cli", "all"])
    p.add_argument("--seed", type=int, default=0,
                   help="orders the instances within a pass")
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--instances-seed", type=int, default=None,
                   help="draws another instance set; only the default one "
                        "has committed records, the others get the "
                        "structural checks alone")
    p.add_argument("--out", help="also write the full result as JSON here")
    p.add_argument("--emit-inputs", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--probe-fd", type=int, help=argparse.SUPPRESS)
    p.add_argument("--write-records", action="store_true")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "toricmmp", "__init__.py")):
        print(f"toricmmp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)

    if args.emit_inputs:
        emit_inputs(args.workload, args.instances_seed, args.probe_fd)
        return 0
    import bench_workloads as bw
    if args.instances_seed is None:
        args.instances_seed = bw.WORKLOADS[args.workload].default_instances_seed
    try:
        if args.write_records:
            return write_records(args.workload)
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.instances_seed)
    finally:
        shutil.rmtree(bw.SCRATCH, ignore_errors=True)
    report(result)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(final_line(result, bool(args.trace)))
    return 0


def write_records(name):
    import bench_workloads as bw
    wl = bw.WORKLOADS[name]()
    instances = wl.load(wl.make_inputs(wl.default_instances_seed))
    records = {}
    for inst in instances:
        result = wl.run(inst)
        problems = wl.check(inst, result)
        if problems:
            raise RuntimeError(f"{inst[0]}: {problems}")
        records[inst[0]] = {k: v for k, v in result.items()
                            if k not in wl.unrecorded}
    os.makedirs(bw.RECORDS, exist_ok=True)
    with open(os.path.join(bw.RECORDS, f"{name}.json"), "w") as fh:
        json.dump(records, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
