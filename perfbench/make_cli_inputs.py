"""Write the fixed input files and the command list of the `cli` workload.

Run from the repository root:

    python3 perfbench/make_cli_inputs.py

The files are committed; rerun only to change the command mix, then record
the expected outputs again with `python3 perfbench/run.py --workload cli
--write-records`.  Fans come from hand-written fixtures, from the acceptance
corpus `termination_instances(seed=20240801, count=100)` and from
`affine_instances(seed=77, count=3)`.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "inputs", "cli")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from toricmmp import corpus  # noqa: E402
from toricmmp import io as tio  # noqa: E402

HAND_FANS = {
    "p2": (2, [[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]]),
    "f1": (2, [[1, 0], [0, 1], [-1, 1], [0, -1]],
           [[0, 1], [1, 2], [2, 3], [0, 3]]),
    "a1xp1": (2, [[1, 0], [0, 1], [0, -1]], [[0, 1], [0, 2]]),
    "line": (1, [[1]], [[0]]),
    "cyclic_7_3": (2, [[0, 1], [7, -3]], [[0, 1]]),
    "quadric_cone": (3, [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
                     [[0, 1, 2, 3]]),
    "quadric_tri_a": (3, [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
                      [[0, 1, 3], [0, 2, 3]]),
    "terminal_5": (3, [[1, 0, 0], [0, 1, 0], [1, 2, 5]], [[0, 1, 2]]),
    "orthant3": (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2]]),
    "two_cones": (2, [[1, 0], [0, 1], [-1, 0]], [[0, 1], [1, 2]]),
}
HAND_DIVISORS = {
    "p2_o1": [1, 0, 0],
    "p2_k": [-1, -1, -1],
    "cyclic_d": [1, 2],
    "quadric_d": [1, 0, 0, 0],
    "orthant3_d": [1, 1, 0],
}
CORPUS_MMP = (1, 11, 65)   # a flip at 65
EXPONENTS = {"x3_y5": [[3, 0], [0, 5]],
             "x2_y2_z2": [[2, 0, 0], [0, 2, 0], [0, 0, 2]]}


def _write(name, obj):
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def _write_map(prefix, m, D):
    _write(f"{prefix}_source.json", tio.fan_to_obj(m.source))
    _write(f"{prefix}_target.json", tio.fan_to_obj(m.target))
    _write(f"{prefix}_map.json", {"matrix": [list(r) for r in m.matrix],
                                  "source": f"{prefix}_source.json",
                                  "target": f"{prefix}_target.json"})
    _write(f"{prefix}_div.json", tio.divisor_to_obj(D))


def main():
    os.makedirs(OUT, exist_ok=True)
    for name, (rank, rays, cones) in HAND_FANS.items():
        _write(f"{name}.json", {"rank": rank, "rays": rays, "cones": cones})
    for name, coeffs in HAND_DIVISORS.items():
        _write(f"{name}.json", {"coeffs": coeffs})
    _write("a1xp1_map.json", {"matrix": [[1, 0]], "source": "a1xp1.json",
                              "target": "line.json"})
    _write("two_cones_map.json", {"matrix": [[1, 0], [0, 1]],
                                  "source": "two_cones.json",
                                  "target": "two_cones.json"})
    for name, exps in EXPONENTS.items():
        _write(f"{name}.json", {"exponents": exps})

    commands = [
        ("validate_p2", ["fan", "validate", "--fan", "p2.json"], 0),
        ("validate_quadric", ["fan", "validate", "--fan",
                              "quadric_tri_a.json"], 0),
        ("sing_cyclic", ["sing", "classify", "--fan", "cyclic_7_3.json"], 0),
        ("sing_quadric", ["sing", "classify", "--fan", "quadric_cone.json"],
         0),
        ("sing_terminal_point", ["sing", "classify", "--fan",
                                 "terminal_5.json", "--point", "1,1,2"], 0),
        ("necone_f1", ["ne-cone", "--fan", "f1.json"], 0),
        ("necone_a1xp1", ["ne-cone", "--map", "a1xp1_map.json"], 0),
        ("sections_p2", ["sections", "--fan", "p2.json", "--divisor",
                         "p2_o1.json"], 0),
        ("sections_cyclic_box", ["sections", "--fan", "cyclic_7_3.json",
                                 "--divisor", "cyclic_d.json",
                                 "--box", "0:6,0:6"], 0),
        ("hilbert_cyclic", ["hilbert", "--fan", "cyclic_7_3.json",
                            "--divisor", "cyclic_d.json"], 0),
        ("hilbert_orthant3", ["hilbert", "--fan", "orthant3.json",
                              "--divisor", "orthant3_d.json"], 0),
        ("resolve_quadric", ["fan", "resolve", "--fan", "quadric_cone.json"],
         0),
        ("resolve_terminal", ["fan", "resolve", "--fan", "terminal_5.json"],
         0),
        ("mmp_f1_k", ["mmp", "--fan", "f1.json", "--trace", "{tmp}"], 0),
        ("mmp_quadric_flip", ["mmp", "--map", "quadric_map.json",
                              "--divisor", "quadric_d.json",
                              "--trace", "{tmp}"], 0),
        # expected precondition failures (exit code 2) on valid inputs
        ("zariski_p2_k_fano", ["zariski", "--fan", "p2.json", "--divisor",
                               "p2_k.json"], 2),
        ("hilbert_non_affine", ["hilbert", "--map", "two_cones_map.json",
                                "--divisor", "p2_o1.json"], 2),
        ("necone_nonsimplicial", ["ne-cone", "--map",
                                   "quadric_cone_id_map.json"], 2),
    ]
    _write("quadric_map.json", {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                "source": "quadric_tri_a.json",
                                "target": "quadric_cone.json"})
    _write("quadric_cone_id_map.json", {
        "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "source": "quadric_cone.json", "target": "quadric_cone.json"})

    instances = corpus.termination_instances(seed=20240801, count=100)
    for i in CORPUS_MMP:
        m, D = instances[i]
        prefix = f"corpus_{i:02d}"
        _write_map(prefix, m, D)
        commands.append((f"mmp_{prefix}", ["mmp", "--map",
                                           f"{prefix}_map.json", "--divisor",
                                           f"{prefix}_div.json",
                                           "--trace", "{tmp}"], 0))
    for i, (m, D) in enumerate(corpus.affine_instances(seed=77, count=3)):
        prefix = f"affine77_{i:02d}"
        _write_map(prefix, m, D)
        commands.append((f"zariski_{prefix}", ["zariski", "--map",
                                               f"{prefix}_map.json",
                                               "--divisor",
                                               f"{prefix}_div.json"], 0))
    for name in EXPONENTS:
        for model in ("minimal", "canonical", "dlt", "log-canonical"):
            commands.append((f"newton_{name}_{model}",
                             ["newton", "--exponents", f"{name}.json",
                              "--model", model], 0))
    _write("commands.json", [{"id": cid, "argv": argv, "expect_exit": code}
                             for cid, argv, code in commands])


if __name__ == "__main__":
    main()
