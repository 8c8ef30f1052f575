"""Command-line front end.

Exit codes: 0 success, 1 malformed input, 2 precondition violation,
3 internal invariant breach (always a bug).  All reports are
byte-deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import sys

from . import corpus as corpus_mod
from . import io as tio
from . import mmp as mmp_mod
from . import newton as newton_mod
from . import sections as sections_mod
from . import singularities as sing_mod
from .curves import ne_cone
from .divisor import (canonical_divisor, sections_basis, sections_polytope,
                      zero_divisor)
from .errors import InputError, InvariantBreach, PreconditionError
from .fan import Fan, map_to_point, qfactorialize, resolve, validate_fan


def _valid(F: Fan, what="fan") -> Fan:
    """F itself; a fan that breaks the fan axioms is malformed input."""
    violations = validate_fan(F)
    if violations:
        raise InputError(f"{what} axioms violated: {violations}")
    return F


def _ints(text, sep, option):
    try:
        return tuple(int(x) for x in text.split(sep))
    except ValueError:
        raise InputError(f"{option} expects integers, got {text!r}")


def _load_setting(args, default_divisor=None):
    """(FanMap, divisor) from --map or --fan (+ point base).  Without
    --divisor the divisor is `default_divisor(source fan)`; with no default
    it is None for a command that takes no --divisor, else an InputError."""
    if getattr(args, "map", None):
        m = tio.load_map(args.map)
        _valid(m.source, "source fan")
        _valid(m.target, "target fan")
    elif getattr(args, "fan", None):
        m = map_to_point(_valid(tio.load_fan(args.fan)))
    else:
        raise InputError("one of --fan or --map is required")
    D = None
    if getattr(args, "divisor", None):
        D = tio.load_divisor(args.divisor, m.source)
    elif default_divisor is not None:
        D = default_divisor(m.source)
    elif hasattr(args, "divisor"):  # an empty --divisor for zariski
        raise InputError("--divisor is required")
    return m, D


def _trace_obj(trace):
    steps = []
    for s in trace.steps:
        rec = {"kind": s.kind,
               "class": list(s.chosen_class.coeffs),
               "value": s.value,
               "rho_before": s.rho_before,
               "rho_after": s.rho_after,
               "fan_after": tio.fan_to_obj(s.fan_after)}
        if s.removed_ray is not None:
            rec["removed_ray"] = list(s.removed_ray)
        if s.divisor_after is not None:
            rec["divisor_after"] = tio.divisor_to_obj(s.divisor_after)
        if s.flip_positive_value is not None:
            rec["flip_positive_value"] = s.flip_positive_value
        steps.append(rec)
    out = {"outcome": trace.outcome,
           "steps": steps,
           "final_fan": tio.fan_to_obj(trace.final_fan)}
    if trace.final_divisor is not None:
        out["final_divisor"] = tio.divisor_to_obj(trace.final_divisor)
    return out


def cmd_fan(args):
    F = tio.load_fan(args.fan)
    if args.action == "validate":
        violations = validate_fan(F)
        print(tio.dumps({"valid": not violations, "violations": violations}),
              end="")
        if violations:
            raise InputError("fan axioms violated")
        return
    _valid(F)
    if args.action == "resolve":
        R, _ = resolve(F)
    else:
        R, _ = qfactorialize(F)
    print(tio.dumps({"fan": tio.fan_to_obj(R),
                     "simplicial": R.is_simplicial()}), end="")


def cmd_ne_cone(args):
    m, _ = _load_setting(args)
    ne = ne_cone(m)
    print(tio.dumps({
        "generators": [list(c.coeffs) for c in ne.generators],
        "extremal_rays": [list(c.coeffs) for c in ne.extremal_rays],
        "rho": ne.rho}), end="")


def cmd_mmp(args):
    m, D = _load_setting(args, canonical_divisor)
    trace = mmp_mod.run_mmp(m, D)
    text = tio.dumps(_trace_obj(trace))
    if args.trace:
        try:
            with open(args.trace, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise InputError(f"cannot write --trace file: {e}")
    print(text, end="")


def cmd_zariski(args):
    m, D = _load_setting(args)
    R = sections_mod.zariski_decompose(m, D)
    verdict = sections_mod.verify_ckm(R, D)
    print(tio.dumps({
        "model_fan": tio.fan_to_obj(R.model),
        "P": tio.divisor_to_obj(R.P),
        "N": tio.divisor_to_obj(R.N),
        "p_cartier_index": R.p_cartier_index,
        "ckm_ok": verdict.ok,
        "ckm_failed_condition": verdict.failed_condition,
        "ckm_failed_degree": verdict.failed_degree}), end="")


def cmd_sections(args):
    m, D = _load_setting(args, zero_divisor)
    F = m.source
    H = sections_polytope(F, D)
    out = {"halfspaces": [{"normal": list(n), "offset": o}
                          for n, o in zip(H.normals, H.offsets)]}
    box = None
    if args.box:
        box = [_ints(part, ":", "--box") for part in args.box.split(",")]
        if len(box) != F.rank or any(len(b) != 2 or b[0] > b[1] for b in box):
            raise InputError(f"--box needs {F.rank} ranges lo:hi with lo <= hi: "
                             f"{args.box!r}")
    try:
        out["lattice_points"] = [list(p) for p in sections_basis(F, D, box=box)]
    except PreconditionError:
        out["lattice_points"] = None
        out["note"] = "polytope unbounded; pass --box lo:hi,lo:hi,..."
    print(tio.dumps(out), end="")


def cmd_hilbert(args):
    m, D = _load_setting(args, zero_divisor)
    gens = sections_mod.algebra_generators(m, D)
    print(tio.dumps({"generators": [list(g) for g in gens],
                     "count": len(gens)}), end="")


def cmd_sing(args):
    F = _valid(tio.load_fan(args.fan))
    D = tio.load_divisor(args.divisor, F) if args.divisor else zero_divisor(F)
    result = sing_mod.classify_pair(F, D)
    out = {"verdict": result.verdict,
           "witness": list(result.witness) if result.witness else None,
           "min_discrepancy": result.min_discrepancy}
    if args.point:
        v = _ints(args.point, ",", "--point")
        out["discrepancy_at_point"] = sing_mod.discrepancy(F, D, v)
    print(tio.dumps(out), end="")


def cmd_newton(args):
    E = tio.load_exponents(args.exponents)
    rep = newton_mod.model(E, args.model)
    print(tio.dumps({
        "model_type": rep.model_type,
        "ambient_fan": tio.fan_to_obj(rep.ambient_start.source),
        "divisor": tio.divisor_to_obj(rep.divisor),
        "trace": _trace_obj(rep.trace),
        "model_fan": tio.fan_to_obj(rep.model_fan),
        "nef": rep.nef_certificate.nef,
        "discrepancies": [{"ray": list(v), "value": a}
                          for v, a in rep.discrepancies]}), end="")


def cmd_corpus(args):
    if args.count < 0:
        raise InputError(f"--count must be nonnegative, got {args.count}")
    instances = corpus_mod.termination_instances(args.seed, args.count)
    records = []
    for m, D in instances:
        trace = mmp_mod.run_mmp(m, D)
        records.append({"rank": m.source.rank,
                        "rays": len(m.source.rays),
                        "outcome": trace.outcome,
                        "steps": [s.kind for s in trace.steps]})
    print(tio.dumps({"seed": args.seed, "count": args.count,
                     "instances": records}), end="")


def build_parser():
    p = argparse.ArgumentParser(prog="toricmmp",
                                description="Exact toric Mori-theory engine")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("fan", help="validate / resolve / qfactorialize a fan")
    q.add_argument("action", choices=["validate", "resolve", "qfactorialize"])
    q.add_argument("--fan", required=True)
    q.set_defaults(func=cmd_fan)

    q = sub.add_parser("ne-cone", help="relative Mori cone report")
    q.add_argument("--fan")
    q.add_argument("--map")
    q.set_defaults(func=cmd_ne_cone)

    q = sub.add_parser("mmp", help="run the D-MMP (default D = K)")
    q.add_argument("--fan")
    q.add_argument("--map")
    q.add_argument("--divisor")
    q.add_argument("--trace", help="write the trace artifact here")
    q.set_defaults(func=cmd_mmp)

    q = sub.add_parser("zariski", help="relative Zariski decomposition")
    q.add_argument("--fan")
    q.add_argument("--map")
    q.add_argument("--divisor", required=True)
    q.set_defaults(func=cmd_zariski)

    q = sub.add_parser("sections", help="section polytope and monomial basis")
    q.add_argument("--fan")
    q.add_argument("--map")
    q.add_argument("--divisor")
    q.add_argument("--box", help="lo:hi,lo:hi,... enumeration box; write "
                   "--box=-2:2,-2:2 when it starts with a minus sign")
    q.set_defaults(func=cmd_sections)

    q = sub.add_parser("hilbert", help="section-algebra generators")
    q.add_argument("--fan")
    q.add_argument("--map")
    q.add_argument("--divisor")
    q.set_defaults(func=cmd_hilbert)

    q = sub.add_parser("sing", help="singularity classification")
    q.add_argument("action", choices=["classify"])
    q.add_argument("--fan", required=True)
    q.add_argument("--divisor")
    q.add_argument("--point", help="comma-separated vector for a discrepancy; "
                   "write --point=-1,0,2 when it starts with a minus sign")
    q.set_defaults(func=cmd_sing)

    q = sub.add_parser("newton", help="Newton-polytope hypersurface models")
    q.add_argument("--exponents", required=True)
    q.add_argument("--model", choices=list(newton_mod.MODEL_TYPES),
                   default="minimal")
    q.set_defaults(func=cmd_newton)

    q = sub.add_parser("corpus", help="random-instance property harness")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--count", type=int, default=20)
    q.set_defaults(func=cmd_corpus)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # a usage error (argparse's 2) is bad input
        return 1 if e.code else 0
    try:
        args.func(args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 1
    except PreconditionError as e:
        print(f"precondition violated: {e}", file=sys.stderr)
        return 2
    except InvariantBreach as e:
        print(f"invariant breach (bug): {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
