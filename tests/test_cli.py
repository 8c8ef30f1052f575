import json
import os
import subprocess
import sys

import pytest

import toricmmp
from toricmmp.cli import main
from toricmmp import io as tio
from toricmmp.divisor import parse_rational
from toricmmp.fan import Fan


P2 = {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
      "cones": [[0, 1], [1, 2], [0, 2]]}
F1 = {"rank": 2, "rays": [[1, 0], [0, 1], [-1, 1], [0, -1]],
      "cones": [[0, 1], [1, 2], [2, 3], [0, 3]]}
QUADRIC = {"rank": 3,
           "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
           "cones": [[0, 1, 2, 3]]}
BLOWUP = {"rank": 2, "rays": [[1, 0], [0, 1], [1, 1]],
          "cones": [[0, 2], [1, 2]]}
ORTHANT = {"rank": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]]}


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_fan_validate_ok(tmp_path, capsys):
    f = _write(tmp_path, "p2.json", P2)
    code, out = _run(capsys, ["fan", "validate", "--fan", f])
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_fan_validate_bad(tmp_path, capsys):
    bad = {"rank": 2, "rays": [[1, 0], [-1, 0]], "cones": [[0, 1]]}
    f = _write(tmp_path, "bad.json", bad)
    code, out = _run(capsys, ["fan", "validate", "--fan", f])
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_fan_malformed_json(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    code, _ = _run(capsys, ["fan", "validate", "--fan", str(p)])
    assert code == 1


# malformed files and arguments: each command must exit 1 without a traceback
BAD_FILES = {
    "no_rays.json": {"rank": 2, "cones": []},
    "bad_index.json": {"rank": 2, "rays": [[1, 0]], "cones": [[3]]},
    # two cones overlapping in a 2-dimensional piece: not a fan
    "overlap.json": {"rank": 2, "rays": [[1, 0], [0, 1], [1, 1]],
                     "cones": [[0, 1], [0, 2]]},
    "p2.json": P2,
    "orthant.json": ORTHANT,
    "short.json": {"coeffs": ["1"]},
    "bad_rational.json": {"coeffs": ["x/y", "0", "0"]},
    "overlap_source.json": {"matrix": [[1, 0], [0, 1]],
                            "source": "overlap.json", "target": "orthant.json"},
    "overlap_target.json": {"matrix": [[1, 0], [0, 1]],
                            "source": "orthant.json", "target": "overlap.json"},
    "bad_shape.json": {"matrix": [[1, 0]],
                       "source": "p2.json", "target": "orthant.json"},
    "bad_exponents.json": {"exponents": [[1, "a"]]},
    # JSON numbers that are not integers, and a negative rank
    "float_ray.json": {"rank": 2, "rays": [[1.5, 0], [0, 1]],
                       "cones": [[0, 1]]},
    "float_one.json": {"rank": 2, "rays": [[1.0, 0], [0, 1]],
                       "cones": [[0, 1]]},
    "bool_index.json": {"rank": 2, "rays": [[1, 0], [0, 1]],
                        "cones": [[False, True]]},
    "float_rank.json": {"rank": 2.0, "rays": [[1, 0], [0, 1]],
                        "cones": [[0, 1]]},
    "negative_rank.json": {"rank": -1, "rays": [], "cones": []},
    "float_matrix.json": {"matrix": [[1, 0], [0, 1.0]],
                          "source": "orthant.json", "target": "orthant.json"},
    "float_exponents.json": {"exponents": [[1, 0.5], [0, 2]]},
    "bool_exponents.json": {"exponents": [[1, True], [0, 2]]},
    "bool_coeffs.json": {"coeffs": [True, 0, 0]},
    # coefficients must be a JSON list, not a string or an object of three
    "string_coeffs.json": {"coeffs": "123"},
    "object_coeffs.json": {"coeffs": {"1": 0, "2": 0, "3": 0}},
}
MALFORMED = (
    ["fan", "resolve", "--fan", "no_rays.json"],
    ["mmp", "--fan", "bad_index.json"],
    ["sing", "classify", "--fan", "overlap.json"],
    ["ne-cone", "--fan", "overlap.json"],
    ["ne-cone", "--map", "overlap_source.json"],
    ["ne-cone", "--map", "overlap_target.json"],
    ["mmp", "--map", "bad_shape.json"],
    ["mmp", "--fan", "missing.json"],
    ["mmp", "--fan", "p2.json", "--divisor", "short.json"],
    ["sections", "--fan", "p2.json", "--divisor", "bad_rational.json"],
    ["newton", "--exponents", "bad_exponents.json"],
    ["sing", "classify", "--fan", "p2.json", "--point", "a,b"],
    ["sections", "--fan", "p2.json", "--box", "1"],
    ["sections", "--fan", "p2.json", "--box", "0:x,0:1"],
    ["sections", "--fan", "p2.json", "--box", "-2:2,-2:2"],  # needs --box=
    ["fan", "validate", "--fan", "float_ray.json"],
    ["fan", "validate", "--fan", "float_one.json"],
    ["fan", "validate", "--fan", "bool_index.json"],
    ["fan", "validate", "--fan", "float_rank.json"],
    ["sing", "classify", "--fan", "negative_rank.json"],
    ["ne-cone", "--map", "float_matrix.json"],
    ["newton", "--exponents", "float_exponents.json"],
    ["newton", "--exponents", "bool_exponents.json"],
    ["sections", "--fan", "p2.json", "--divisor", "bool_coeffs.json"],
    ["sections", "--fan", "p2.json", "--divisor", "string_coeffs.json"],
    ["sections", "--fan", "p2.json", "--divisor", "object_coeffs.json"],
    # a leading minus needs --point=-1,-1
    ["sing", "classify", "--fan", "p2.json", "--point", "-1,-1"],
    ["sections", "--fan", "p2.json", "--box=2:-2,0:1"],  # reversed range
    ["corpus", "--count", "-1"],
    ["mmp", "--fan", "p2.json", "--trace", "no_such_dir/trace.json"],
    ["mmp"],
    ["no-such-command"],
)


def test_malformed_input_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, obj in BAD_FILES.items():
        _write(tmp_path, name, obj)
    for argv in MALFORMED:
        code = main(argv)
        err = capsys.readouterr().err
        assert (code, "Traceback" in err) == (1, False), argv


def test_fan_qfactorialize(tmp_path, capsys):
    f = _write(tmp_path, "q.json", QUADRIC)
    code, out = _run(capsys, ["fan", "qfactorialize", "--fan", f])
    assert code == 0
    data = json.loads(out)
    assert data["simplicial"] is True
    assert len(data["fan"]["cones"]) == 2


def test_cone_listed_twice_counts_once(tmp_path, capsys):
    twice = dict(P2, cones=P2["cones"] + [[1, 0]])
    f = _write(tmp_path, "twice.json", twice)
    div = _write(tmp_path, "d.json", {"coeffs": ["1", "1", "1"]})
    code, out = _run(capsys, ["fan", "validate", "--fan", f])
    assert code == 0 and json.loads(out)["valid"] is True
    code, out = _run(capsys, ["fan", "qfactorialize", "--fan", f])
    assert code == 0 and json.loads(out)["fan"]["cones"] == P2["cones"]
    code, out = _run(capsys, ["mmp", "--fan", f, "--divisor", div])
    assert code == 0 and json.loads(out)["final_fan"]["cones"] == P2["cones"]


def test_ne_cone_f1(tmp_path, capsys):
    f = _write(tmp_path, "f1.json", F1)
    code, out = _run(capsys, ["ne-cone", "--fan", f])
    assert code == 0
    data = json.loads(out)
    assert data["rho"] == 2
    assert sorted(map(tuple, data["extremal_rays"])) == \
        [(0, 1, 0, 1), (1, -1, 1, 0)]


def test_mmp_trace(tmp_path, capsys):
    f = _write(tmp_path, "f1.json", F1)
    trace_file = tmp_path / "trace.json"
    code, out = _run(capsys, ["mmp", "--fan", f, "--trace", str(trace_file)])
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "fano"
    assert [s["kind"] for s in data["steps"]] == ["divisorial", "fano"]
    assert json.loads(trace_file.read_text()) == data


def test_mmp_divisor_file(tmp_path, capsys):
    _write(tmp_path, "tri.json",
           {"rank": 3,
            "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
            "cones": [[0, 1, 3], [0, 2, 3]]})
    _write(tmp_path, "cone.json", QUADRIC)
    mp = _write(tmp_path, "small.json",
                {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                 "source": "tri.json", "target": "cone.json"})
    div = _write(tmp_path, "d.json", {"coeffs": ["1", "0", "0", "0"]})
    code, out = _run(capsys, ["mmp", "--map", mp, "--divisor", div])
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "minimal"
    assert [s["kind"] for s in data["steps"]] == ["flipping"]


def test_map_file(tmp_path, capsys):
    src = _write(tmp_path, "blowup.json", BLOWUP)
    tgt = _write(tmp_path, "orthant.json", ORTHANT)
    mp = _write(tmp_path, "map.json",
                {"matrix": [[1, 0], [0, 1]],
                 "source": "blowup.json", "target": "orthant.json"})
    code, out = _run(capsys, ["ne-cone", "--map", mp])
    assert code == 0
    data = json.loads(out)
    assert data["extremal_rays"] == [[1, 1, -1]]


def test_zariski(tmp_path, capsys):
    src = _write(tmp_path, "blowup.json", BLOWUP)
    tgt = _write(tmp_path, "orthant.json", ORTHANT)
    mp = _write(tmp_path, "map.json",
                {"matrix": [[1, 0], [0, 1]],
                 "source": "blowup.json", "target": "orthant.json"})
    div = _write(tmp_path, "e.json", {"coeffs": ["0", "0", "1"]})
    code, out = _run(capsys, ["zariski", "--map", mp, "--divisor", div])
    assert code == 0
    data = json.loads(out)
    assert data["ckm_ok"] is True
    assert data["P"]["coeffs"] == ["0", "0", "0"]
    # N = E in the model fan's ray order
    rays = [tuple(r) for r in data["model_fan"]["rays"]]
    n = dict(zip(rays, data["N"]["coeffs"]))
    assert n == {(1, 0): "0", (0, 1): "0", (1, 1): "1"}


def test_zariski_with_an_empty_divisor_exits_1(tmp_path, capsys):
    f = _write(tmp_path, "p2.json", P2)
    code = main(["zariski", "--fan", f, "--divisor", ""])
    err = capsys.readouterr().err
    assert code == 1
    assert "input error: --divisor is required" in err


def test_sections_and_box(tmp_path, capsys):
    f = _write(tmp_path, "p2.json", P2)
    div = _write(tmp_path, "h.json", {"coeffs": ["0", "0", "1"]})
    code, out = _run(capsys, ["sections", "--fan", f, "--divisor", div])
    assert code == 0
    pts = json.loads(out)["lattice_points"]
    assert sorted(map(tuple, pts)) == [(0, 0), (0, 1), (1, 0)]
    # unbounded without a box: reported, still exit 0
    f2 = _write(tmp_path, "orthant.json", ORTHANT)
    code, out = _run(capsys, ["sections", "--fan", f2])
    assert code == 0
    assert json.loads(out)["lattice_points"] is None
    # P_D = {u_1 >= 1, u_1 <= 0} is empty although the u_2-axis recedes
    f3 = _write(tmp_path, "line.json",
                {"rank": 2, "rays": [[1, 0], [-1, 0]], "cones": [[0], [1]]})
    div = _write(tmp_path, "d.json", {"coeffs": ["-1", "0"]})
    code, out = _run(capsys, ["sections", "--fan", f3, "--divisor", div])
    assert code == 0
    data = json.loads(out)
    assert data["lattice_points"] == [] and "note" not in data
    # a fan without rays: P_D is the whole plane
    f4 = _write(tmp_path, "rayless.json", {"rank": 2, "rays": [], "cones": [[]]})
    code, out = _run(capsys, ["sections", "--fan", f4])
    assert code == 0
    data = json.loads(out)
    assert data["lattice_points"] is None and "note" in data
    code, out = _run(capsys, ["sections", "--fan", f4, "--box", "0:1,0:1"])
    assert code == 0
    assert json.loads(out)["lattice_points"] == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_hilbert(tmp_path, capsys):
    f = _write(tmp_path, "a1.json",
               {"rank": 2, "rays": [[1, 0], [1, 2]], "cones": [[0, 1]]})
    div = _write(tmp_path, "d.json", {"coeffs": ["1", "0"]})
    code, out = _run(capsys, ["hilbert", "--fan", f, "--divisor", div])
    assert code == 0
    assert json.loads(out)["count"] == 6


def test_sing_classify(tmp_path, capsys):
    f = _write(tmp_path, "a1.json",
               {"rank": 2, "rays": [[1, 0], [1, 2]], "cones": [[0, 1]]})
    code, out = _run(capsys, ["sing", "classify", "--fan", f,
                              "--point", "1,1"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "canonical"
    assert data["discrepancy_at_point"] == "0"


def test_point_with_leading_minus(tmp_path, capsys):
    f = _write(tmp_path, "p2.json", P2)
    code, out = _run(capsys, ["sing", "classify", "--fan", f,
                              "--point=-1,-1"])
    assert code == 0
    assert "discrepancy_at_point" in json.loads(out)


def test_sing_precondition_exit_code(tmp_path, capsys):
    f = _write(tmp_path, "q.json", QUADRIC)
    div = _write(tmp_path, "d.json", {"coeffs": ["1", "0", "0", "0"]})
    code, out = _run(capsys, ["zariski",
                              "--fan", f, "--divisor", div])
    assert code == 2  # non-simplicial source is a precondition failure


def test_box_too_large_to_scan_exits_2(tmp_path, capsys):
    # a cone of multiplicity 10^30: a side of its parallelepiped's box is
    # longer than sys.maxsize, so the scan cannot run
    f = _write(tmp_path, "wide.json", {"rank": 2, "rays": [[10 ** 30, 1],
                                                           [0, 1]],
                                       "cones": [[0, 1]]})
    for argv in (["fan", "resolve", "--fan", f], ["hilbert", "--fan", f]):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert captured.err.startswith("precondition violated"), argv


def test_newton(tmp_path, capsys):
    exp = _write(tmp_path, "cusp.json", {"exponents": [[2, 0], [0, 3]]})
    code, out = _run(capsys, ["newton", "--exponents", exp,
                              "--model", "canonical"])
    assert code == 0
    data = json.loads(out)
    assert data["model_type"] == "canonical"
    assert data["nef"] is True


def test_corpus_smoke(capsys):
    code, out = _run(capsys, ["corpus", "--seed", "3", "--count", "4"])
    assert code == 0
    data = json.loads(out)
    assert len(data["instances"]) == 4


def test_byte_determinism(tmp_path, capsys):
    f = _write(tmp_path, "f1.json", F1)
    _, out1 = _run(capsys, ["mmp", "--fan", f])
    _, out2 = _run(capsys, ["mmp", "--fan", f])
    assert out1.encode() == out2.encode()


def test_fan_roundtrip(tmp_path):
    F = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
    p = tmp_path / "out.json"
    p.write_text(tio.dumps(tio.fan_to_obj(F)))
    assert tio.load_fan(str(p)).canonical() == F.canonical()


def test_divisor_rational_roundtrip():
    from fractions import Fraction
    assert parse_rational("-3/7") == Fraction(-3, 7)
    assert tio.format_rational(Fraction(-3, 7)) == "-3/7"
    assert tio.format_rational(Fraction(4, 2)) == "2"


# A fresh interpreter imports toricmmp.cli and prints the modules that the
# import added to sys.modules.
_LOADED = """
import json, sys
before = set(sys.modules)
import toricmmp.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_every_module_and_compiles_no_methods():
    src = os.path.dirname(os.path.dirname(toricmmp.__file__))
    done = subprocess.run([sys.executable, "-c", _LOADED],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    loaded = set(json.loads(done.stdout))
    package = {"toricmmp." + name[:-3] for name in os.listdir(
        os.path.dirname(toricmmp.__file__))
        if name.endswith(".py") and name != "__init__.py"}
    # the traced benchmark (perfbench/bench_trace.py) wraps entry points
    # only in the modules that `import toricmmp.cli` loaded
    assert {m for m in loaded if m.startswith("toricmmp.")} == package
    # records are built by `record.record`: no `dataclass` compiles methods,
    # and nothing brings in `inspect`
    assert not loaded & {"dataclasses", "inspect"}
