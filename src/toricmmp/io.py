"""File formats and deterministic serialization.

All artifacts use one self-describing JSON layout; exact rationals travel as
"p/q" strings so certificates survive round trips losslessly.  Fan files
carry rank / rays / cones; map files carry matrix / source / target (paths
resolved relative to the map file); divisor files carry coeffs.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .errors import InputError
from .exactlin import integer, integers
from .fan import Fan, FanMap
from .divisor import InvariantDivisor


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read {path}: {e}")


def _int_rows(rows) -> tuple:
    """JSON integer rows; any other entry is a TypeError (`exactlin.integer`)."""
    return tuple(integers(r, TypeError) for r in rows)


def load_fan(path) -> Fan:
    data = _load_json(path)
    try:
        rank = integer(data["rank"], TypeError)
        if rank < 0:
            raise ValueError(f"negative rank {rank}")
        return Fan(rank, _int_rows(data["rays"]), _int_rows(data["cones"]))
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed fan file {path}: {e}")


def fan_to_obj(F: Fan):
    return {"rank": F.rank,
            "rays": [list(r) for r in F.rays],
            "cones": [list(c) for c in F.max_cones]}


def load_divisor(path, F: Fan) -> InvariantDivisor:
    """The divisor in the file, whose coefficients `InvariantDivisor`
    parses, with one for each ray of F."""
    data = _load_json(path)
    try:
        coeffs = data["coeffs"]
        if not isinstance(coeffs, list):  # a string or object would iterate
            raise TypeError(f"coeffs must be a list, got {coeffs!r}")
    except (KeyError, TypeError) as e:
        raise InputError(f"malformed divisor file {path}: {e}")
    D = InvariantDivisor(coeffs)
    if len(D.coeffs) != len(F.rays):
        raise InputError("divisor length does not match the fan's ray count")
    return D


def divisor_to_obj(D: InvariantDivisor):
    return {"coeffs": [format_rational(c) for c in D.coeffs]}


def load_map(path) -> FanMap:
    data = _load_json(path)
    base = os.path.dirname(os.path.abspath(path))
    try:
        matrix = _int_rows(data["matrix"])
        source = load_fan(os.path.join(base, data["source"]))
        target = load_fan(os.path.join(base, data["target"]))
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed map file {path}: {e}")
    return FanMap(matrix, source, target)


def load_exponents(path) -> tuple:
    data = _load_json(path)
    if isinstance(data, dict):
        data = data.get("exponents")
    try:
        return _int_rows(data)
    except (TypeError, ValueError) as e:
        raise InputError(f"malformed exponents file {path}: {e}")


def dumps(obj) -> str:
    """Byte-deterministic report text."""
    return json.dumps(obj, indent=2, sort_keys=True,
                      default=format_rational) + "\n"
