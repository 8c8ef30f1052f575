"""The three workloads of the benchmark.

Each workload has
  * `make_inputs(instances_seed)` -> JSON-able inputs (run during set-up),
  * `load(inputs)` -> instances handed to toricmmp,
  * `run(instance)` -> a JSON-able result (the timed operation),
  * `check(instance, result)` -> structural problems, as strings.
Results are also compared with the committed records in `records/`,
except the keys a workload lists in `unrecorded`.

toricmmp functions are looked up as module attributes at call time, so a
tracer installed on the modules sees every call made here.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sys
from fractions import Fraction

import bench_clock
import toricmmp
from toricmmp import corpus, curves, divisor, exactlin, fan, mmp, sections, \
    singularities
from toricmmp import io as tio

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
CLI_INPUTS = os.path.join(HERE, "inputs", "cli")
CLI_CHILD = os.path.join(HERE, "cli_child.py")
RECORDS = os.path.join(HERE, "records")
SCRATCH = os.path.join(os.path.dirname(HERE), ".perfbench_tmp")


def _fan(obj):
    return fan.Fan(obj["rank"], obj["rays"], obj["cones"])


def _fracs(values):
    return [str(Fraction(v)) for v in values]


def _divisor(coeffs):
    return divisor.InvariantDivisor(tuple(Fraction(c) for c in coeffs))


# ---------------------------------------------------------------------------
# corpus: the acceptance gate's MMP instances
# ---------------------------------------------------------------------------

class Corpus:
    """`termination_instances(seed, count=100)`: run_mmp, nefness at a
    minimal end, and every flip re-derived with `contract` and checked
    with `verify_negativity`."""

    name = "corpus"
    default_instances_seed = 20240801
    unrecorded = ()
    count = 100

    def make_inputs(self, instances_seed):
        out = []
        for i, (m, D) in enumerate(corpus.termination_instances(
                seed=instances_seed, count=self.count)):
            out.append({"key": f"{instances_seed}:{i}",
                        "matrix": [list(r) for r in m.matrix],
                        "source": tio.fan_to_obj(m.source),
                        "target": tio.fan_to_obj(m.target),
                        "divisor": _fracs(D.coeffs)})
        return out

    def load(self, inputs):
        return [(obj["key"],
                 fan.FanMap(obj["matrix"], _fan(obj["source"]),
                            _fan(obj["target"])),
                 _divisor(obj["divisor"]))
                for obj in inputs]

    def run(self, instance):
        _key, m, D = instance
        trace = mmp.run_mmp(m, D)
        nef = None
        if trace.outcome == "minimal":
            nef = curves.nefness(trace.final_divisor, trace.final_map).nef
        flips = self._replay_flips(m, D, trace)
        rank, rays, cones = trace.final_fan.canonical()
        return {"outcome": trace.outcome,
                "steps": [[s.kind, list(s.chosen_class.coeffs), str(s.value)]
                          for s in trace.steps],
                "final_fan": [rank, [list(r) for r in rays],
                              [list(c) for c in cones]],
                "final_divisor": (None if trace.final_divisor is None
                                  else _fracs(trace.final_divisor.coeffs)),
                "nef_at_end": nef,
                "flips_replayed": flips}

    @staticmethod
    def _replay_flips(m, D, trace):
        """Re-derive each flipping step and pass it through the negativity
        oracle; returns per flip whether both certificates held."""
        out = []
        F0, D0 = m.source, D
        for s in trace.steps:
            if s.kind == "fano":
                break
            if s.kind == "flipping":
                cur = fan.FanMap(m.matrix, F0, m.target)
                wall_set = [w for w, c in curves.contracted_walls(cur)
                            if c == s.chosen_class]
                res = mmp.contract(cur, wall_set)
                ident = exactlin.identity_matrix(F0.rank)
                E = mmp.verify_negativity(
                    (F0, fan.FanMap(ident, F0, res.target), D0),
                    (s.fan_after, fan.FanMap(ident, s.fan_after, res.target),
                     s.divisor_after))
                out.append(res.kind == "flipping" and E.is_effective()
                           and not E.is_zero())
            F0, D0 = s.fan_after, s.divisor_after
        return out

    def check(self, instance, result):
        problems = []
        if result["outcome"] not in ("minimal", "fano"):
            problems.append(f"outcome {result['outcome']}")
        if result["outcome"] == "minimal" and not result["nef_at_end"]:
            problems.append("divisor not nef at the minimal end")
        n_flips = sum(1 for s in result["steps"] if s[0] == "flipping")
        if len(result["flips_replayed"]) != n_flips \
                or not all(result["flips_replayed"]):
            problems.append("a flip failed its re-derivation or negativity")
        return problems


# ---------------------------------------------------------------------------
# lattice: single affine cones, no MMP
# ---------------------------------------------------------------------------

def _det3(g):
    (a, b, c), (d, e, f), (h, i, j) = g
    return a * (e * j - f * i) - b * (d * j - f * h) + c * (d * i - e * h)


def _primitive(v):
    return math.gcd(*v) == 1


class Lattice:
    """Cyclic quotient surface cones 1/r(1,a) (r <= 7) and 3-D simplicial
    cones with entries in [-1, 1] (multiplicity at most 4), each with an
    integral divisor with coefficients in [-1, 2]: `classify_pair` of
    (cone, 0), `hilbert_basis(section_cone(...))` and
    `graded_lattice_points` for degrees 1..4 in a box."""

    name = "lattice"
    default_instances_seed = 0
    unrecorded = ("graded_degree1",)  # kept for `check`, digested in the record
    count = 50
    box = 4
    degrees = (1, 2, 3, 4)

    def make_inputs(self, instances_seed):
        rng = random.Random(instances_seed)
        out = []
        for i in range(self.count):
            if i % 2 == 0:
                r = rng.randint(2, 7)
                a = rng.choice([a for a in range(1, r) if math.gcd(a, r) == 1])
                rays = [[0, 1], [r, -a]]
            else:
                while True:
                    rays = [[rng.randint(-1, 1) for _ in range(3)]
                            for _ in range(3)]
                    if all(_primitive(v) for v in rays) and _det3(rays):
                        break
            coeffs = [rng.randint(-1, 2) for _ in rays]
            out.append({"key": f"{instances_seed}:{i}", "rays": rays,
                        "divisor": coeffs})
        return out

    def load(self, inputs):
        return [(obj["key"],
                 fan.Fan(len(obj["rays"][0]), obj["rays"],
                         (tuple(range(len(obj["rays"]))),)),
                 _divisor(obj["divisor"]))
                for obj in inputs]

    def run(self, instance):
        _key, F, D = instance
        pair = singularities.classify_pair(F, toricmmp.zero_divisor(F))
        basis = sections.hilbert_basis(sections.section_cone(F, D))
        box = [(-self.box, self.box)] * F.rank
        graded = [sections.graded_lattice_points(F, D, k, box=box)
                  for k in self.degrees]
        points = json.dumps([[list(p) for p in pts] for pts in graded])
        return {"verdict": pair.verdict,
                "witness": None if pair.witness is None else list(pair.witness),
                "min_discrepancy": (None if pair.min_discrepancy is None
                                    else str(pair.min_discrepancy)),
                "hilbert_basis": [list(b) for b in basis],
                "graded_counts": [len(pts) for pts in graded],
                "graded_sha256": hashlib.sha256(points.encode()).hexdigest(),
                "graded_degree1": [list(p) for p in graded[0]]}

    def check(self, instance, result):
        """Hilbert-basis membership and irreducibility, and agreement of the
        degree-1 basis elements with the enumerated degree-1 points."""
        _key, F, D = instance
        C = sections.section_cone(F, D)
        basis = [tuple(b) for b in result["hilbert_basis"]]
        problems = []
        if not basis:
            problems.append("empty Hilbert basis")
        for b in basis:
            if not all(isinstance(c, int) for c in b) or not C.contains(b) \
                    or not any(b):
                problems.append(f"basis element {b} not a nonzero point of C")
        for x in basis:
            for y in basis:
                diff = tuple(p - q for p, q in zip(x, y))
                if x != y and any(diff) and C.contains(diff):
                    problems.append(f"basis element {x} is reducible by {y}")
        degree1 = {tuple(p) for p in result["graded_degree1"]}
        for p in degree1:
            if not C.contains(p):
                problems.append(f"degree-1 point {p} outside C")
        for b in basis:
            if b[-1] == 1 and all(abs(c) <= self.box for c in b[:-1]) \
                    and b not in degree1:
                problems.append(f"degree-1 basis element {b} not enumerated")
        return problems


# ---------------------------------------------------------------------------
# cli: one fresh interpreter per command
# ---------------------------------------------------------------------------

def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Cli:
    """Fixed input files under `inputs/cli`; each command of
    `commands.json` runs in a fresh interpreter through `cli_child.py`
    (which calls `toricmmp.cli.main` under a speed probe), and its exit
    code and stdout bytes are checked."""

    name = "cli"
    default_instances_seed = 0
    unrecorded = ()

    def __init__(self, trace=False):
        # with `trace`, each command also returns its span aggregates and
        # cache counters; they collect in `aggregates`
        self.trace = trace
        self.aggregates = []
        self.probe_stats = None  # of the last command run

    def make_inputs(self, instances_seed):
        with open(os.path.join(CLI_INPUTS, "commands.json")) as fh:
            commands = json.load(fh)
        return [{"key": cmd["id"], "argv": cmd["argv"],
                 "expect_exit": cmd["expect_exit"]} for cmd in commands]

    def load(self, inputs):
        return [(obj["key"], obj["argv"], obj["expect_exit"])
                for obj in inputs]

    def run(self, instance):
        key, argv, _expect = instance
        os.makedirs(SCRATCH, exist_ok=True)
        trace_path = os.path.join(SCRATCH, f"{key}.trace.json")
        argv = [trace_path if a == "{tmp}" else a for a in argv]
        proc, report = bench_clock.run_probed(
            lambda fd: [sys.executable, CLI_CHILD, str(fd),
                        "1" if self.trace else "0", *argv],
            cwd=CLI_INPUTS, env=cli_env(), capture_output=True, timeout=120)
        self.probe_stats = report["probe"]
        if self.trace:
            self.aggregates.append(report)
        trace_matches = None
        if trace_path in argv:
            with open(trace_path, "rb") as fh:
                trace_matches = fh.read() == proc.stdout
            os.remove(trace_path)
        return {"exit": proc.returncode,
                "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
                "traceback": b"Traceback" in proc.stderr,
                "trace_file_matches": trace_matches}

    def check(self, instance, result):
        _key, _argv, expect = instance
        problems = []
        if result["exit"] != expect:
            problems.append(f"exit code {result['exit']}, expected {expect}")
        if result["traceback"]:
            problems.append("traceback on stderr")
        if result["trace_file_matches"] is False:
            problems.append("--trace file differs from stdout")
        return problems


WORKLOADS = {"corpus": Corpus, "lattice": Lattice, "cli": Cli}


def load_records(name):
    path = os.path.join(RECORDS, f"{name}.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)
